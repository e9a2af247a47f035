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
* :class:`BackendBatchLocator` computes placements wholesale through the
  backend's ``locate_batch`` kernel over one ``X0`` column per server
  (a segment per object, kept with the catalog entry it came from):
  one gather and one kernel call per round.  This is the
  millions-of-reads/sec path; it assumes the inventory agrees with the
  computed placement (no scaling operation in flight), exactly like
  :meth:`CMServer.block_location`.
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
    """Computed placement through the backend's vectorized kernel.

    Keeps one ``uint64`` column of ``X0`` values for the server's
    objects, one segment per object, plus the segment start of each
    local object id (-1 for an object with no segment yet).  A round is
    one gather, ``column[start[object_ids] + block_indices]``, one
    ``locate_batch`` call and one physical-id lookup: no Python runs
    per object.

    An object's segment is the server's ``X0`` column for it
    (:meth:`CMServer.x0_column`), laid into the locator's column the
    first time a round demands it and kept with the catalog entry it
    came from.  The catalog's
    :attr:`~repro.server.objects.ObjectCatalog.version` is compared once
    per call; when it moved, segments whose entry is gone or was
    replaced (a reshuffle re-seeds every object) are dropped and the
    rest are laid out afresh, so a stale ``X0`` can never be served and
    an add or a drop costs a concatenate, not a recompute.  Block
    indices must lie within their object.
    """

    def __init__(self, server: "CMServer"):
        self.server = server
        #: object id -> (catalog entry, X0 array computed from it).
        self._segments: dict[int, tuple[MediaObject, np.ndarray]] = {}
        #: The segments, back to back; ``_used`` entries are filled and
        #: the capacity doubles, so appends cost amortized O(1) a block.
        self._column = np.empty(0, dtype=np.uint64)
        self._used = 0
        #: local object id -> its segment's start in the column, or -1.
        self._start = np.empty(0, dtype=np.int64)
        self._version: int | None = None

    def locate_physical(
        self, object_ids: np.ndarray, block_indices: np.ndarray
    ) -> np.ndarray:
        server = self.server
        if object_ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self._version != server.catalog.version:
            self._resync()
        try:
            offsets = self._start[object_ids]
        except IndexError:
            raise KeyError("a demanded object is not in the catalog") from None
        missing = offsets < 0
        if missing.any():
            self._append(np.unique(object_ids[missing]).tolist())
            offsets = self._start[object_ids]
        x0s = self._column[offsets + block_indices]
        ids = None
        if server.backend.requires_ids:
            ids = [
                BlockId(oid, index)
                for oid, index in zip(object_ids.tolist(), block_indices.tolist())
            ]
        logical = server.backend.locate_batch(ids, x0s)
        table = np.asarray(server.array.physical_ids, dtype=np.int64)
        return table[logical]

    def _resync(self) -> None:
        """Keep the segments whose catalog entry is unchanged, and lay
        them out as one fresh column."""
        catalog = self.server.catalog
        kept = [
            (oid, x0s)
            for oid, (media, x0s) in self._segments.items()
            if oid in catalog and catalog.get(oid) is media
        ]
        self._segments = {oid: self._segments[oid] for oid, __ in kept}
        size = 1 + max((media.object_id for media in catalog), default=-1)
        self._start = np.full(size, -1, dtype=np.int64)
        self._used = 0
        self._lay_out(kept)
        self._version = catalog.version

    def _append(self, object_ids: list[int]) -> None:
        """Compute the segments of objects first demanded now."""
        server = self.server
        added = []
        for oid in object_ids:
            x0s = server.x0_column(oid)
            self._segments[oid] = (server.catalog.get(oid), x0s)
            added.append((oid, x0s))
        self._lay_out(added)

    def _lay_out(self, segments: list[tuple[int, np.ndarray]]) -> None:
        """Append segments to the column and record their starts."""
        if not segments:
            return
        lengths = np.array([x0s.shape[0] for __, x0s in segments], dtype=np.int64)
        used = self._used
        self._start[[oid for oid, __ in segments]] = (
            used + np.cumsum(lengths) - lengths
        )
        need = used + int(lengths.sum())
        if need > self._column.shape[0]:
            grown = np.empty(max(need, 2 * self._column.shape[0]), dtype=np.uint64)
            grown[:used] = self._column[:used]
            self._column = grown
        self._column[used:need] = np.concatenate([x0s for __, x0s in segments])
        self._used = need
