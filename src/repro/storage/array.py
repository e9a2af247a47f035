"""The disk array: physical drives behind a compact logical index space.

SCADDAR's REMAP arithmetic addresses disks by *logical* index 0..N-1; the
array owns the logical -> physical name table and the physical block
inventory.  The inventory exists so the simulator can actually move bytes
and meter the traffic — the CM server never consults it to *find* a block
(that is the whole point of SCADDAR; the integration tests assert that
``AF()`` and the physical inventory always agree).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

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
        self._contents: dict[int, set[Block]] = {}
        self._home: dict[BlockId, int] = {}
        #: Every resident block by id, so move/drop find it in O(1)
        #: instead of scanning the source disk's contents.
        self._block: dict[BlockId, Block] = {}
        self._blocks_moved = 0
        self._inventory_version = 0
        self._total_bandwidth = 0
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
    def total_bandwidth(self) -> int:
        """Summed bandwidth of the attached disks (block reads/round)."""
        return self._total_bandwidth

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
            if self._contents[pid]:
                raise PlacementConflictError(
                    f"physical disk {pid} (logical {logical}) still holds "
                    f"{len(self._contents[pid])} blocks; move them first"
                )
        for logical in reversed(removed):
            pid = self._logical_order.pop(logical)
            disk = self._disks.pop(pid)
            self._total_bandwidth -= disk.bandwidth_blocks_per_round
            detached.append(disk)
            del self._contents[pid]
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

    def move(self, block_id: BlockId, target_physical: int) -> bool:
        """Move a resident block to another disk (by physical id).

        Returns ``True`` when a physical transfer happened, ``False`` when
        the block was already on the target.  Every true move increments
        the traffic meter used by the movement benchmarks.
        """
        source = self._home.get(block_id)
        if source is None:
            raise KeyError(f"block {block_id} is not resident in the array")
        if target_physical not in self._disks:
            raise KeyError(f"physical disk {target_physical} is not in the array")
        if source == target_physical:
            return False
        block = self._block[block_id]
        target_disk = self._disks[target_physical]
        if len(self._contents[target_physical]) >= target_disk.capacity_blocks:
            raise PlacementConflictError(
                f"physical disk {target_physical} is full "
                f"({target_disk.capacity_blocks} blocks)"
            )
        self._contents[source].remove(block)
        self._contents[target_physical].add(block)
        self._home[block_id] = target_physical
        self._blocks_moved += 1
        return True

    def home_of(self, block_id: BlockId) -> int:
        """Physical id of the disk currently holding the block."""
        try:
            return self._home[block_id]
        except KeyError:
            raise KeyError(f"block {block_id} is not resident in the array")

    def blocks_on_physical(self, physical_id: int) -> frozenset[Block]:
        """All blocks resident on a disk (by physical id)."""
        if physical_id not in self._contents:
            raise KeyError(f"physical disk {physical_id} is not in the array")
        return frozenset(self._contents[physical_id])

    def blocks_on(self, logical: int) -> frozenset[Block]:
        """All blocks resident on the disk at a logical index."""
        return self.blocks_on_physical(self.physical_at(logical))

    def drop(self, block_id: BlockId) -> None:
        """Remove a block from the array (object deletion)."""
        source = self.home_of(block_id)
        self._contents[source].remove(self._block.pop(block_id))
        del self._home[block_id]
        self._inventory_version += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        """Number of blocks resident across all disks."""
        return len(self._home)

    @property
    def blocks_moved(self) -> int:
        """Cumulative count of physical block transfers."""
        return self._blocks_moved

    @property
    def inventory_version(self) -> int:
        """Counter bumped whenever block *membership* changes (place or
        drop — moves keep the same resident set).  Lets callers cache
        derived views of the inventory without rescanning every round."""
        return self._inventory_version

    def load_vector(self) -> list[int]:
        """Blocks per disk, in logical order — the evaluation's raw data."""
        return [len(self._contents[pid]) for pid in self._logical_order]

    def utilization(self) -> float:
        """Fraction of total capacity in use."""
        capacity = sum(d.capacity_blocks for d in self._disks.values())
        return self.total_blocks / capacity if capacity else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _attach(self, disk: Disk) -> int:
        self._disks[disk.physical_id] = disk
        self._total_bandwidth += disk.bandwidth_blocks_per_round
        self._logical_order.append(disk.physical_id)
        self._contents[disk.physical_id] = set()
        return disk.physical_id

    def _place_physical(self, block: Block, physical_id: int) -> None:
        if physical_id not in self._disks:
            raise KeyError(f"physical disk {physical_id} is not in the array")
        block_id = block.block_id
        if block_id in self._home:
            raise PlacementConflictError(
                f"block {block_id} is already resident; use move()"
            )
        disk = self._disks[physical_id]
        if len(self._contents[physical_id]) >= disk.capacity_blocks:
            raise PlacementConflictError(
                f"physical disk {physical_id} is full ({disk.capacity_blocks} blocks)"
            )
        self._contents[physical_id].add(block)
        self._home[block_id] = physical_id
        self._block[block_id] = block
        self._inventory_version += 1

    def __repr__(self) -> str:
        return (
            f"DiskArray(disks={self.num_disks}, blocks={self.total_blocks}, "
            f"moved={self._blocks_moved})"
        )
