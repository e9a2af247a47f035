"""Batched block location for the vectorized serving path.

The scalar scheduler resolves one ``BlockId -> physical disk`` per read;
the vectorized round loop resolves a whole round at once through a
*batch locator*: arrays of ``(object_id, block_index)`` in, an ``int64``
array of physical disk ids out.

Two implementations:

* :class:`SequentialBatchLocator` wraps any scalar locator (the array
  inventory by default).  It is always semantics-preserving — including
  mid-migration, when a block's bytes are not yet where the backend says
  they belong — but loops per block, so it only removes the per-call
  dispatch overhead of the scalar path.
* :class:`BackendBatchLocator` caches computed placement: the physical
  home of every block of each object a round has demanded, located
  through the backend's ``locate_batch`` kernel.  Under AO1 a block's
  disk is a function of its ``X0`` and the scaling log alone, so the
  homes stay valid while the *placement key* holds: the backend object
  (a restore or an aborted scaling operation replaces it), its
  operation log by object and by length (a scaling operation appends,
  a reshuffle starts a new log) and ``array.physical_ids``.  A steady
  round is one gather; the kernel runs once per placement change, over
  the whole cached column, and over the blocks of the objects a round
  demands for the first time.  A catalog change (an object added,
  removed or re-seeded) keeps the unchanged objects' homes.  Memory:
  8 bytes per demanded block, plus one start per local object id.
  Lemma 4.3 bounds the REMAP chain a kernel pass runs; a steady round
  runs none.  The contract is unchanged: the locator assumes
  the inventory agrees with the computed placement (no scaling
  operation in flight), exactly like :meth:`CMServer.block_location`.
  A placement change outside the key is outside that contract too:
  :meth:`WeightedStrawPolicy.set_weight
  <repro.placement.weighted_straw.WeightedStrawPolicy.set_weight>`
  moves no block and logs nothing, so re-weighting a served backend is
  unsupported (no server path calls it) and the locator keeps
  answering the homes the inventory holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.storage.block import BlockId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.server.cmserver import CMServer
    from repro.server.objects import MediaObject


class BatchLocator(Protocol):
    """Resolves a batch of blocks to physical disk ids."""

    def locate_physical(
        self, object_ids: np.ndarray, block_indices: np.ndarray
    ) -> np.ndarray:
        """Physical disk id per ``(object_ids[i], block_indices[i])``."""
        ...


class SequentialBatchLocator:
    """Batch adapter over a scalar ``BlockId -> physical`` locator.

    The semantic oracle: whatever the scalar path would have resolved,
    block by block, this returns as one array.
    """

    def __init__(self, locate: Callable[[BlockId], int]):
        self._locate = locate

    def locate_physical(
        self, object_ids: np.ndarray, block_indices: np.ndarray
    ) -> np.ndarray:
        locate = self._locate
        return np.fromiter(
            (
                locate(BlockId(oid, index))
                for oid, index in zip(object_ids.tolist(), block_indices.tolist())
            ),
            dtype=np.int64,
            count=object_ids.shape[0],
        )


class BackendBatchLocator:
    """Computed placement, located once per placement change.

    Keeps one ``int64`` column of physical homes for the server's
    objects, one segment per object, plus the segment start of each
    local object id (-1 for an object with no segment yet).  A round is
    one gather, ``home[start[object_ids] + block_indices]``: no ``X0``
    gather, no kernel call and no physical-id lookup.

    An object's segment is located (one ``locate_batch`` pass over its
    blocks, :meth:`CMServer.computed_homes`) the first time a round
    demands it, and kept with the catalog entry it came from.  The homes
    stay valid while the placement key holds: the backend object, its
    operation log by object and by length, and ``array.physical_ids``.
    When the key moved (a scaling operation, an abort, a reshuffle), the
    whole laid-out column is located again in one kernel pass.  The
    catalog's :attr:`~repro.server.objects.ObjectCatalog.version` is
    compared once per call; when it moved, segments whose entry is gone
    or was replaced (a reshuffle re-seeds every object) are dropped and
    the rest keep their homes, so a stale home can never be served and
    an add or a drop costs a copy, not a kernel pass.  Block indices
    must lie within their object.
    """

    def __init__(self, server: "CMServer"):
        self.server = server
        #: object id -> the catalog entry its segment was located from,
        #: in column order.
        self._entries: dict[int, MediaObject] = {}
        #: The segments, back to back; ``_used`` entries are filled and
        #: the capacity doubles, so appends cost amortized O(1) a block.
        self._home = np.empty(0, dtype=np.int64)
        self._used = 0
        #: local object id -> its segment's start in the column, or -1.
        self._start = np.empty(0, dtype=np.int64)
        self._version: int | None = None
        #: The placement key the homes were located under: the backend,
        #: its operation log, the log's length and the physical ids.
        self._key: tuple = (None, None, 0, ())

    def locate_physical(
        self, object_ids: np.ndarray, block_indices: np.ndarray
    ) -> np.ndarray:
        server = self.server
        if object_ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self._version != server.catalog.version:
            self._resync()
        backend = server.backend
        log = backend.log
        physical_ids = server.array.physical_ids
        key = self._key
        if (
            key[0] is not backend
            or key[1] is not log
            or key[2] != len(log)
            or key[3] != physical_ids
        ):
            self._key = (backend, log, len(log), physical_ids)
            self._relocate()
        try:
            offsets = self._start[object_ids]
        except IndexError:
            raise KeyError("a demanded object is not in the catalog") from None
        missing = offsets < 0
        if missing.any():
            self._append(np.unique(object_ids[missing]).tolist())
            offsets = self._start[object_ids]
        return self._home[offsets + block_indices]

    def _resync(self) -> None:
        """Keep the segments whose catalog entry is unchanged, and lay
        them out, homes and all, as one fresh column."""
        catalog = self.server.catalog
        kept = [
            media
            for oid, media in self._entries.items()
            if oid in catalog and catalog.get(oid) is media
        ]
        starts = self._start[[media.object_id for media in kept]].tolist()
        homes = [
            self._home[start : start + media.num_blocks]
            for media, start in zip(kept, starts)
        ]
        size = 1 + max((media.object_id for media in catalog), default=-1)
        self._start = np.full(size, -1, dtype=np.int64)
        self._entries = {}
        self._used = 0
        if kept:
            self._lay_out(kept, np.concatenate(homes))
        self._version = catalog.version

    def _relocate(self) -> None:
        """Locate every laid-out segment again, in one kernel pass."""
        if self._used:
            self._home[: self._used] = self.server.computed_homes(
                list(self._entries.values())
            )

    def _append(self, object_ids: list[int]) -> None:
        """Locate the segments of objects first demanded now."""
        catalog = self.server.catalog
        objects = [catalog.get(oid) for oid in object_ids]
        self._lay_out(objects, self.server.computed_homes(objects))

    def _lay_out(self, objects: list[MediaObject], homes: np.ndarray) -> None:
        """Append segments (``homes``, objects back to back) to the
        column and record their starts."""
        lengths = np.array([media.num_blocks for media in objects], dtype=np.int64)
        used = self._used
        self._start[[media.object_id for media in objects]] = (
            used + np.cumsum(lengths) - lengths
        )
        need = used + homes.shape[0]
        if need > self._home.shape[0]:
            grown = np.empty(max(need, 2 * self._home.shape[0]), dtype=np.int64)
            grown[:used] = self._home[:used]
            self._home = grown
        self._home[used:need] = homes
        self._used = need
        for media in objects:
            self._entries[media.object_id] = media
