"""The disk array: physical drives behind a compact logical index space.

SCADDAR's REMAP arithmetic addresses disks by *logical* index 0..N-1; the
array owns the logical -> physical name table and the physical block
inventory.  The inventory exists so the simulator can actually move bytes
and meter the traffic — the CM server never consults it to *find* a block
(that is the whole point of SCADDAR; the integration tests assert that
``AF()`` and the physical inventory always agree).

The inventory is columnar: per object, a home column (the physical id
holding each block index, -1 where the block is absent) and the ``X0``
each block was written with, plus a resident count per disk.  Single
blocks place, move and drop in O(1); whole objects place in one bulk
write (:meth:`DiskArray.place_objects`) and audits read the columns
(:meth:`DiskArray.home_columns`) instead of one Python object per block.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.storage.block import Block, BlockId
from repro.storage.disk import Disk, DiskSpec


class PlacementConflictError(Exception):
    """Raised when a block cannot be placed (capacity exhausted or the
    block is already resident on another disk)."""


class DiskArray:
    """Physical disks + logical name table + block inventory.

    Parameters
    ----------
    specs:
        Disk specs for the initial group (one disk per spec).

    Examples
    --------
    >>> array = DiskArray([DiskSpec()] * 4)
    >>> array.num_disks
    4
    """

    def __init__(self, specs: Sequence[DiskSpec]):
        if not specs:
            raise ValueError("a disk array needs at least one disk")
        self._disks: dict[int, Disk] = {}
        self._logical_order: list[int] = []
        #: object id -> physical id per block index (-1: not resident).
        #: A column may run past the object's last block; its tail is -1.
        self._homes: dict[int, np.ndarray] = {}
        #: object id -> the ``X0`` each resident block was written with.
        self._x0s: dict[int, np.ndarray] = {}
        #: physical id -> blocks resident on that disk.
        self._resident: dict[int, int] = {}
        self._total_blocks = 0
        self._blocks_moved = 0
        self._inventory_version = 0
        #: Summed bandwidth of the attached disks (block reads/round),
        #: kept by attach and detach.  A plain attribute: admission
        #: control reads it once per admitted stream.
        self.total_bandwidth = 0
        for spec in specs:
            self._attach(Disk(spec=spec))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_disks(self) -> int:
        """Current disk count ``N``."""
        return len(self._logical_order)

    @property
    def physical_ids(self) -> tuple[int, ...]:
        """Physical ids in logical order (index = logical disk number)."""
        return tuple(self._logical_order)

    def physical_at(self, logical: int) -> int:
        """Physical id of the disk at a logical index."""
        if not 0 <= logical < len(self._logical_order):
            raise IndexError(
                f"logical disk {logical} out of 0..{len(self._logical_order) - 1}"
            )
        return self._logical_order[logical]

    def logical_of(self, physical_id: int) -> int:
        """Logical index of a physical disk (O(N))."""
        try:
            return self._logical_order.index(physical_id)
        except ValueError:
            raise KeyError(f"physical disk {physical_id} is not in the array")

    def disk(self, physical_id: int) -> Disk:
        """The :class:`Disk` with the given physical id."""
        try:
            return self._disks[physical_id]
        except KeyError:
            raise KeyError(f"physical disk {physical_id} is not in the array")

    def add_group(self, specs: Sequence[DiskSpec]) -> list[int]:
        """Attach a disk group; returns the new disks' physical ids.

        New disks take the highest logical indices, matching the REMAP
        addition equations (added disks are ``N_{j-1} .. N_j - 1``).
        """
        if not specs:
            raise ValueError("disk group must contain at least one disk")
        return [self._attach(Disk(spec=spec)) for spec in specs]

    def survivors_after_removal(self, removed_logicals: Iterable[int]) -> list[int]:
        """Physical ids that would remain, in post-removal logical order.

        This is the physical-side counterpart of the paper's ``new()``
        re-indexing; callers use it to resolve RF() target indices before
        the removal is committed.
        """
        removed = frozenset(removed_logicals)
        for logical in removed:
            self.physical_at(logical)  # bounds check
        return [
            pid
            for logical, pid in enumerate(self._logical_order)
            if logical not in removed
        ]

    def remove_group(self, removed_logicals: Iterable[int]) -> list[Disk]:
        """Detach the disks at the given logical indices.

        The disks must already be empty — the redistribution (RF) must
        move their blocks first, exactly as the paper's online protocol
        requires ("necessary steps can be taken before the actual
        removal", Section 1).
        """
        removed = sorted(frozenset(removed_logicals))
        if not removed:
            raise ValueError("removal group must contain at least one disk")
        if len(removed) >= len(self._logical_order):
            raise ValueError("cannot remove all disks from the array")
        detached: list[Disk] = []
        for logical in removed:
            pid = self.physical_at(logical)
            if self._resident[pid]:
                raise PlacementConflictError(
                    f"physical disk {pid} (logical {logical}) still holds "
                    f"{self._resident[pid]} blocks; move them first"
                )
        for logical in reversed(removed):
            pid = self._logical_order.pop(logical)
            disk = self._disks.pop(pid)
            self.total_bandwidth -= disk.bandwidth_blocks_per_round
            detached.append(disk)
            del self._resident[pid]
        detached.reverse()
        return detached

    # ------------------------------------------------------------------
    # Block inventory
    # ------------------------------------------------------------------
    def place(self, block: Block, logical: int) -> None:
        """Place a brand-new block on the disk at a logical index."""
        self._place_physical(block, self.physical_at(logical))

    def place_physical(self, block: Block, physical_id: int) -> None:
        """Place a brand-new block on a disk by physical id."""
        self._place_physical(block, physical_id)

    def place_objects(
        self,
        object_ids: Sequence[int],
        lengths: Sequence[int],
        x0s: np.ndarray,
        logical: np.ndarray,
    ) -> None:
        """Place whole objects in one bulk write.

        Blocks ``0 .. lengths[k] - 1`` of ``object_ids[k]``, objects back
        to back in ``x0s`` (their ``X0``) and ``logical`` (the disk each
        goes to, by logical index).  All or nothing: no object may hold
        a resident block yet, and every disk must have room for its
        share.  :attr:`inventory_version` advances by one per block.
        """
        logical = np.asarray(logical, dtype=np.int64)
        if not sum(lengths) == logical.shape[0] == len(x0s):
            raise ValueError(
                f"{sum(lengths)} blocks in the objects, {logical.shape[0]} "
                f"disks and {len(x0s)} X0s given"
            )
        if len(set(object_ids)) != len(object_ids) or any(
            oid in self._homes and (self._homes[oid] >= 0).any()
            for oid in object_ids
        ):
            raise PlacementConflictError(
                "an object placed in bulk already has resident blocks"
            )
        if logical.size and not 0 <= logical.min() <= logical.max() < self.num_disks:
            raise IndexError(f"logical disk out of 0..{self.num_disks - 1}")
        added = np.bincount(logical, minlength=self.num_disks)
        for pid, count in zip(self._logical_order, added.tolist()):
            capacity = self._disks[pid].capacity_blocks
            if self._resident[pid] + count > capacity:
                raise PlacementConflictError(
                    f"physical disk {pid} is full ({capacity} blocks)"
                )
        homes = np.asarray(self._logical_order, dtype=np.int64)[logical]
        x0s = np.array(x0s, dtype=np.uint64)
        start = 0
        for oid, length in zip(object_ids, lengths):
            self._homes[oid] = homes[start : start + length]
            self._x0s[oid] = x0s[start : start + length]
            start += length
        for pid, count in zip(self._logical_order, added.tolist()):
            self._resident[pid] += count
        self._total_blocks += logical.shape[0]
        self._inventory_version += logical.shape[0]

    def move(self, block_id: BlockId, target_physical: int) -> bool:
        """Move a resident block to another disk (by physical id).

        Returns ``True`` when a physical transfer happened, ``False`` when
        the block was already on the target.  Every true move increments
        the traffic meter used by the movement benchmarks.
        """
        source = self.home_of(block_id)
        if target_physical not in self._disks:
            raise KeyError(f"physical disk {target_physical} is not in the array")
        if source == target_physical:
            return False
        capacity = self._disks[target_physical].capacity_blocks
        if self._resident[target_physical] >= capacity:
            raise PlacementConflictError(
                f"physical disk {target_physical} is full ({capacity} blocks)"
            )
        self._homes[block_id.object_id][block_id.index] = target_physical
        self._resident[source] -= 1
        self._resident[target_physical] += 1
        self._blocks_moved += 1
        return True

    def home_of(self, block_id: BlockId) -> int:
        """Physical id of the disk currently holding the block."""
        try:
            home = self._homes[block_id.object_id].item(block_id.index)
        except (KeyError, IndexError):
            home = -1
        if home >= 0:
            return home
        raise KeyError(f"block {block_id} is not resident in the array")

    def home_columns(
        self, object_ids: Sequence[int], lengths: Sequence[int]
    ) -> np.ndarray:
        """The home columns of several objects back to back, each cut or
        padded with -1 (absent) to its length."""
        out = np.full(sum(lengths), -1, dtype=np.int64)
        start = 0
        for oid, length in zip(object_ids, lengths):
            column = self._homes.get(oid)
            if column is not None:
                stored = min(length, column.shape[0])
                out[start : start + stored] = column[:stored]
            start += length
        return out

    def blocks_on_physical(self, physical_id: int) -> frozenset[Block]:
        """All blocks resident on a disk (by physical id), built on
        demand from the columns: O(objects + blocks)."""
        if physical_id not in self._resident:
            raise KeyError(f"physical disk {physical_id} is not in the array")
        blocks: list[Block] = []
        if self._resident[physical_id]:
            for oid, homes in self._homes.items():
                indices = np.flatnonzero(homes == physical_id)
                x0s = self._x0s[oid][indices]
                blocks.extend(
                    Block(oid, index, x0)
                    for index, x0 in zip(indices.tolist(), x0s.tolist())
                )
        return frozenset(blocks)

    def blocks_on(self, logical: int) -> frozenset[Block]:
        """All blocks resident on the disk at a logical index."""
        return self.blocks_on_physical(self.physical_at(logical))

    def resident_on(self, physical_id: int) -> int:
        """Number of blocks resident on a disk (by physical id), O(1)."""
        try:
            return self._resident[physical_id]
        except KeyError:
            raise KeyError(f"physical disk {physical_id} is not in the array")

    def resident_ids(self) -> list[BlockId]:
        """Every resident block, ordered by object id then index."""
        ids: list[BlockId] = []
        for oid in sorted(self._homes):
            ids.extend(
                BlockId(oid, index)
                for index in np.flatnonzero(self._homes[oid] >= 0).tolist()
            )
        return ids

    def drop(self, block_id: BlockId) -> None:
        """Remove a block from the array (object deletion)."""
        source = self.home_of(block_id)
        self._homes[block_id.object_id][block_id.index] = -1
        self._resident[source] -= 1
        self._total_blocks -= 1
        self._inventory_version += 1

    def drop_object(self, object_id: int) -> int:
        """Remove every resident block of an object; returns how many.

        Forgets the object's columns.  :attr:`inventory_version` advances
        by one per block dropped.
        """
        homes = self._homes.pop(object_id, None)
        self._x0s.pop(object_id, None)
        if homes is None:
            return 0
        pids, counts = np.unique(homes[homes >= 0], return_counts=True)
        for pid, count in zip(pids.tolist(), counts.tolist()):
            self._resident[pid] -= count
        dropped = int(counts.sum())
        self._total_blocks -= dropped
        self._inventory_version += dropped
        return dropped

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        """Number of blocks resident across all disks."""
        return self._total_blocks

    @property
    def blocks_moved(self) -> int:
        """Cumulative count of physical block transfers."""
        return self._blocks_moved

    @property
    def inventory_version(self) -> int:
        """Counter bumped by one per block placed or dropped, in bulk
        too (moves keep the same resident set), so places =
        (``inventory_version`` + :attr:`total_blocks`) / 2.  Lets callers
        cache derived views of the inventory without rescanning every
        round."""
        return self._inventory_version

    def load_vector(self) -> list[int]:
        """Blocks per disk, in logical order — the evaluation's raw data."""
        return [self._resident[pid] for pid in self._logical_order]

    def utilization(self) -> float:
        """Fraction of total capacity in use."""
        capacity = sum(d.capacity_blocks for d in self._disks.values())
        return self.total_blocks / capacity if capacity else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _attach(self, disk: Disk) -> int:
        self._disks[disk.physical_id] = disk
        self.total_bandwidth += disk.bandwidth_blocks_per_round
        self._logical_order.append(disk.physical_id)
        self._resident[disk.physical_id] = 0
        return disk.physical_id

    def _place_physical(self, block: Block, physical_id: int) -> None:
        if physical_id not in self._disks:
            raise KeyError(f"physical disk {physical_id} is not in the array")
        oid, index = block.object_id, block.index
        homes = self._homes.get(oid)
        if homes is not None and index < homes.shape[0] and homes[index] >= 0:
            raise PlacementConflictError(
                f"block {block.block_id} is already resident; use move()"
            )
        capacity = self._disks[physical_id].capacity_blocks
        if self._resident[physical_id] >= capacity:
            raise PlacementConflictError(
                f"physical disk {physical_id} is full ({capacity} blocks)"
            )
        if homes is None or index >= homes.shape[0]:
            homes = self._grow(oid, index + 1)
        homes[index] = physical_id
        self._x0s[oid][index] = block.x0
        self._resident[physical_id] += 1
        self._total_blocks += 1
        self._inventory_version += 1

    def _grow(self, object_id: int, size: int) -> np.ndarray:
        """Lengthen an object's columns to hold ``size`` blocks (at least
        doubling, so block-by-block writes cost amortized O(1))."""
        homes = self._homes.get(object_id, np.empty(0, dtype=np.int64))
        length = max(size, 2 * homes.shape[0])
        grown = np.full(length, -1, dtype=np.int64)
        grown[: homes.shape[0]] = homes
        x0s = np.zeros(length, dtype=np.uint64)
        old = self._x0s.get(object_id)
        if old is not None:
            x0s[: old.shape[0]] = old
        self._homes[object_id] = grown
        self._x0s[object_id] = x0s
        return grown

    def __repr__(self) -> str:
        return (
            f"DiskArray(disks={self.num_disks}, blocks={self.total_blocks}, "
            f"moved={self._blocks_moved})"
        )
