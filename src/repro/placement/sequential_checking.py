"""Sequential Checking — the reallocation-free comparator (arXiv 1707.00904).

Aarseth's "sequential checking" scheme scales out with **zero block
movement**: when disks are added, existing blocks simply stay where they
were written, and only new writes use the enlarged configuration.  A
lookup walks the configuration history — "was this block written when
the array had 4 disks?  6?  9?" — checking each era's placement until
the block is found.  The persistent state is just the configuration
history (one entry per scaling operation, like SCADDAR's log); the price
is fairness: old disks keep their full population forever, so the load
coefficient of variation *grows* with every addition instead of being
repaired by redistribution.

As a server backend this is the baseline the lifecycle soak harness
compares against: lifetime move cost is exactly zero and
:meth:`needs_reshuffle` is always ``False`` (there is no randomness
budget to exhaust), at the cost of unbounded fairness decay.

Simulation note: the physical "check the disks sequentially" probe is
modelled by recording each block's *birth era* at registration time —
the placement is then the pure function ``X0 mod N_birth``.  The birth
map stands in for reading disk contents; the scheme's persistent
*metadata* remains the configuration history alone, which is what
:meth:`state_entries` reports.

Removals are unsupported: with no reallocation machinery there is
nowhere for an evicted disk's blocks to go (the same capability
restriction jump hash has for interior removals, taken to its limit).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import UnsupportedOperationError
from repro.core.operations import ScalingOp
from repro.placement.base import PlacementPolicy, _restore_log
from repro.storage.block import Block, BlockId


class SequentialCheckingPolicy(PlacementPolicy):
    """Reallocation-free scale-out: blocks stay where they were written.

    Parameters
    ----------
    n0:
        Initial disk count (configuration era 0).
    """

    name = "sequential_checking"
    #: Placement depends on each block's birth era, keyed by identity.
    requires_ids = True

    def __init__(self, n0: int):
        super().__init__(n0)
        # Disk count of each configuration era; era j is the state after
        # j scaling operations (era 0 is the initial configuration).
        self._era_disks: list[int] = [n0]
        self._birth_era: dict[BlockId, int] = {}

    def register(self, blocks: Iterable[Block]) -> None:
        """Stamp each new block with the current configuration era."""
        era = len(self._era_disks) - 1
        for block in blocks:
            if block.block_id not in self._birth_era:
                self._birth_era[block.block_id] = era

    def unregister(self, block_ids: Iterable[BlockId]) -> None:
        """Forget removed blocks' birth eras."""
        for block_id in block_ids:
            self._birth_era.pop(block_id, None)

    def disk_of(self, block: Block) -> int:
        return self.locate_one(block.block_id, block.x0)

    def locate_one(self, block_id: BlockId, x0: int) -> int:
        try:
            era = self._birth_era[block_id]
        except KeyError:
            raise KeyError(
                f"block {block_id} was never registered with the "
                "sequential-checking policy"
            )
        return x0 % self._era_disks[era]

    def locate_batch(
        self,
        block_ids: Optional[Sequence[BlockId]],
        x0s: np.ndarray,
    ) -> np.ndarray:
        if block_ids is None:
            raise ValueError(
                f"policy {self.name!r} keys placement by block id; "
                "block_ids must be provided"
            )
        birth = self._birth_era
        eras = np.fromiter(
            (birth[block_id] for block_id in block_ids),
            dtype=np.int64,
            count=len(block_ids),
        )
        divisors = np.asarray(self._era_disks, dtype=np.uint64)[eras]
        return (np.asarray(x0s, dtype=np.uint64) % divisors).astype(np.int64)

    def plan_moves(
        self,
        op: ScalingOp,
        block_ids: Optional[Sequence[BlockId]],
        x0s: np.ndarray,
        eps: Optional[float] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``op``; no block ever relocates (the scheme's point)."""
        self.apply(op, eps=eps)
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()

    def state_entries(self) -> int:
        """The configuration history — one entry per scaling operation.

        The birth map is the simulation's stand-in for physically probing
        disk contents, not persisted metadata of the scheme itself.
        """
        return self.num_operations

    def state_payload(self) -> dict:
        """Log plus the birth map (the probe stand-in must round-trip)."""
        return {
            "operation_log": self._log_payload(),
            "entries": [
                [block_id.object_id, block_id.index, era]
                for block_id, era in self._birth_era.items()
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SequentialCheckingPolicy":
        log = _restore_log(payload)
        policy = cls(log.n0)
        for op in log:
            policy.apply(op)
        policy._birth_era = {
            BlockId(object_id, index): era
            for object_id, index, era in payload["entries"]
        }
        return policy

    def _on_apply(self, op: ScalingOp, n_before: int, n_after: int) -> None:
        if op.kind == "remove":
            raise UnsupportedOperationError(
                "sequential checking is reallocation-free: there is no "
                "machinery to move an evicted disk's blocks, so removals "
                f"are unsupported (got removal of {list(op.removed)})"
            )
        self._era_disks.append(n_after)
