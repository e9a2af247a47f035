"""The common placement-policy interface.

A policy maps blocks to *logical* disk indices ``0 .. N-1`` and reacts to
scaling operations.  The contract is deliberately minimal so that both
function-computed policies (SCADDAR, round-robin, hashes) and stateful
ones (the directory baseline) fit behind it:

* :meth:`register` introduces the block population (no-op for computed
  policies; the directory needs it to assign and later relocate entries);
* :meth:`apply` records one scaling operation;
* :meth:`disk_of` answers the current logical disk of a block;
* :meth:`state_entries` reports the persistent-state footprint, the
  quantity the paper's directory-vs-SCADDAR storage argument is about.

On top of the scalar contract sits the **backend API** the server stack
(:class:`~repro.server.cmserver.CMServer`, migration planning, snapshots,
crash recovery) runs against, so any policy can drive the full
load → scale → migrate → crash → resume loop:

* :meth:`locate_batch` / :meth:`disks_of` — batched lookups returning a
  NumPy array (policies with vectorized kernels override them; the
  default falls back to :meth:`locate_one` per element);
* :meth:`plan_moves` — apply one operation and report which blocks must
  relocate, as parallel index/target arrays (the RF() seam);
* :meth:`state_payload` / :meth:`from_payload` — the policy's persistence
  identity, embedded in server snapshots and restored bit-exactly.

Benches measure movement by snapshotting ``disk_of`` over the population
before and after ``apply`` — :meth:`placement_snapshot` batches that.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import Optional

import numpy as np

from repro.core.errors import UnsupportedOperationError
from repro.core.operations import OperationLog, ScalingOp
from repro.obs import NULL_OBS
from repro.storage.block import Block, BlockId


class PlacementPolicy(ABC):
    """Base class for all placement policies.

    Parameters
    ----------
    n0:
        Initial number of (logical) disks.
    """

    #: Policy name used by benches, the CLI, and the backend registry.
    name: str = "abstract"

    #: Whether batched lookups need block identities (the directory keys
    #: its state by :class:`BlockId`); pure ``X0`` policies leave this
    #: False so hot paths can skip materializing id lists.
    requires_ids: bool = False

    #: Observability handle (instance-level after :meth:`attach_obs`).
    obs = NULL_OBS

    def __init__(self, n0: int):
        self.log = OperationLog(n0=n0)

    @classmethod
    def create(cls, n0: int, bits: int = 64) -> "PlacementPolicy":
        """Uniform factory used by the backend registry.

        ``bits`` is the random-number width; policies that do not consume
        it (hash rings, the directory) ignore it.
        """
        return cls(n0)

    @property
    def current_disks(self) -> int:
        """Current disk count ``Nj``."""
        return self.log.current_disks

    @property
    def num_operations(self) -> int:
        """Scaling operations applied so far."""
        return self.log.num_operations

    def register(self, blocks: Iterable[Block]) -> None:
        """Introduce blocks to the policy (default: nothing to do)."""

    def unregister(self, block_ids: Iterable[BlockId]) -> None:
        """Forget blocks (default: nothing to do; the directory deletes)."""

    def apply(self, op: ScalingOp, eps: Optional[float] = None) -> int:
        """Apply one scaling operation; returns the new disk count.

        ``eps`` (when given) is a fairness tolerance forwarded to
        :meth:`check_budget` — policies with a randomness budget (SCADDAR's
        Lemma 4.3) refuse the operation instead of degrading past it.
        """
        if eps is not None:
            self.check_budget(op, eps)
        n_before = self.current_disks
        n_after = op.next_disk_count(n_before)
        self._on_apply(op, n_before, n_after)
        self.log.append(op)
        return n_after

    def check_budget(self, op: ScalingOp, eps: float) -> None:
        """Refuse ``op`` if it would exceed the policy's fairness budget.

        Default: policies without a budget accept every operation.
        """

    def budget_remaining(self, eps: float, group_size: int = 1) -> Optional[int]:
        """How many further scaling operations the policy's fairness
        budget permits at tolerance ``eps``.

        ``None`` means unlimited — the policy has no consumable budget
        (hash rings, the directory).  Policies with one (SCADDAR's
        Lemma 4.3) return the exact remaining count; 0 means the next
        operation must be preceded by a full reshuffle.
        """
        return None

    def attach_obs(self, obs) -> None:
        """Attach an observability handle (:class:`repro.obs.Obs`).

        The default stores it; policies with internal machinery worth
        instrumenting (the SCADDAR engine's epoch cache) forward it.
        """
        self.obs = obs

    @abstractmethod
    def disk_of(self, block: Block) -> int:
        """Current logical disk of a block."""

    def state_entries(self) -> int:
        """Persistent-state footprint in entries.

        The unit is "one record": a logged scaling operation, a directory
        entry, a virtual ring node...  Policies that recompute placement
        purely from ``(X0, N)`` report 0.
        """
        return self.num_operations

    # ------------------------------------------------------------------
    # Batched lookups (the backend hot path)
    # ------------------------------------------------------------------
    def locate_one(self, block_id: BlockId, x0: int) -> int:
        """Current logical disk of one block given its identity and X0."""
        return self.disk_of(Block(block_id.object_id, block_id.index, x0))

    def locate_batch(
        self,
        block_ids: Optional[Sequence[BlockId]],
        x0s: np.ndarray,
    ) -> np.ndarray:
        """Batched lookup: current logical disk per block (``int64``).

        ``block_ids`` may be ``None`` when :attr:`requires_ids` is False
        (the caller then skips materializing identities).  The default
        implementation loops :meth:`locate_one`; vectorized policies
        override it.
        """
        count = len(x0s)
        if block_ids is None:
            if self.requires_ids:
                raise ValueError(
                    f"policy {self.name!r} keys placement by block id; "
                    "block_ids must be provided"
                )
            block_ids = [BlockId(0, i) for i in range(count)]
        return np.fromiter(
            (
                self.locate_one(block_id, int(x0))
                for block_id, x0 in zip(block_ids, x0s)
            ),
            dtype=np.int64,
            count=count,
        )

    def disks_of(self, blocks: Iterable[Block]) -> np.ndarray:
        """Current logical disk of every block, batched (``int64``)."""
        blocks = list(blocks)
        x0s = np.fromiter(
            (block.x0 for block in blocks), dtype=np.uint64, count=len(blocks)
        )
        ids = [block.block_id for block in blocks] if self.requires_ids else None
        return self.locate_batch(ids, x0s)

    def placement_snapshot(self, blocks: Iterable[Block]) -> dict[BlockId, int]:
        """Current disk of every block — the movement bench's raw data.

        A thin dict wrapper over the batched :meth:`disks_of` path.
        """
        blocks = list(blocks)
        disks = self.disks_of(blocks)
        return dict(zip((block.block_id for block in blocks), disks.tolist()))

    # ------------------------------------------------------------------
    # Move planning (the RF() seam)
    # ------------------------------------------------------------------
    def plan_moves(
        self,
        op: ScalingOp,
        block_ids: Optional[Sequence[BlockId]],
        x0s: np.ndarray,
        eps: Optional[float] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``op`` and report the blocks it relocates.

        Returns ``(indices, targets)``: positions into ``x0s`` of the
        *candidate* movers and their post-operation logical disks.
        ``block_ids`` may be ``None`` when :attr:`requires_ids` is False.
        Candidates may include blocks whose logical index changed only by
        removal re-compaction — the caller translates targets to physical
        disks and drops identity moves, so over-reporting is harmless
        (under-reporting is not).

        The default implementation diffs batched lookups around
        :meth:`apply`; policies with an exact redistribution function
        (SCADDAR) override it.
        """
        ids = block_ids if self.requires_ids else None
        if op.kind == "add":
            # Logical indices are stable across additions: diff exactly.
            before = self.locate_batch(ids, x0s)
            self.apply(op, eps=eps)
            after = self.locate_batch(ids, x0s)
            indices = np.flatnonzero(before != after)
            return indices, after[indices]
        # Removals re-compact logical indices, so every block is a
        # candidate; the physical-identity filter drops the non-movers.
        self.apply(op, eps=eps)
        after = self.locate_batch(ids, x0s)
        return np.arange(len(after), dtype=np.int64), after

    # ------------------------------------------------------------------
    # Persistence identity
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """JSON-compatible state for snapshots.

        The default covers policies fully determined by their operation
        log (replayed by :meth:`from_payload`); stateful policies extend
        the payload and override both methods.
        """
        return {"operation_log": self._log_payload()}

    @classmethod
    def from_payload(cls, payload: dict) -> "PlacementPolicy":
        """Rebuild a policy from :meth:`state_payload` output.

        The default replays the recorded operation log through a fresh
        instance — bit-exact for policies whose state is a deterministic
        function of the log.
        """
        log = _restore_log(payload)
        policy = cls(log.n0)
        for op in log:
            policy.apply(op)
        return policy

    def _log_payload(self) -> dict:
        """The operation log as a JSON-compatible dict."""
        return json.loads(self.log.to_json())

    # ------------------------------------------------------------------
    # Optional lifecycle
    # ------------------------------------------------------------------
    def reshuffle(self) -> None:
        """Reset placement state for a full redistribution.

        Only policies with a consumable randomness budget (SCADDAR)
        support this; the rest have nothing to reset.
        """
        raise UnsupportedOperationError(
            f"policy {self.name!r} does not support a full reshuffle"
        )

    def needs_reshuffle(self, eps: float) -> bool:
        """Whether accumulated operations already exceed tolerance ``eps``
        (False for policies without a fairness budget)."""
        return False

    def _on_apply(self, op: ScalingOp, n_before: int, n_after: int) -> None:
        """Hook for policies with per-operation work (default: none)."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(disks={self.current_disks}, "
            f"operations={self.num_operations})"
        )


def _restore_log(payload: dict) -> OperationLog:
    """Parse the ``operation_log`` entry of a state payload."""
    return OperationLog.from_json(json.dumps(payload["operation_log"]))
