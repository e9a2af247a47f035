"""Bandwidth-throttled block migration.

Redistribution consumes bandwidth "on both the source and the target disk
drives" (Section 2), and the paper's whole motivation is scaling *online*
— without stopping streams.  :class:`MigrationSession` executes an RF()
plan round by round under an explicit per-disk transfer budget, so the
online-scaling experiment can interleave it with stream service and show
zero downtime.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.storage.array import DiskArray, PlacementConflictError
from repro.storage.block import BlockId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs import ObsHandle
    from repro.server.faults import FaultInjector
    from repro.server.journal import ScalingJournal


@dataclass(frozen=True)
class PhysicalMove:
    """One block transfer between physical disks."""

    block_id: BlockId
    source_physical: int
    target_physical: int

    def __post_init__(self):
        if self.source_physical == self.target_physical:
            raise ValueError(f"move of {self.block_id} has identical endpoints")


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered list of physical moves produced from an RF() plan."""

    moves: tuple[PhysicalMove, ...]

    @classmethod
    def from_moves(cls, moves: Sequence[PhysicalMove]) -> "MigrationPlan":
        """Build a plan, rejecting duplicate blocks (a block moves once)."""
        seen: set[BlockId] = set()
        for move in moves:
            if move.block_id in seen:
                raise ValueError(f"block {move.block_id} appears twice in the plan")
            seen.add(move.block_id)
        return cls(moves=tuple(moves))

    def __len__(self) -> int:
        return len(self.moves)

    def traffic_by_disk(self) -> dict[int, int]:
        """Transfers each physical disk participates in (source + target)."""
        traffic: dict[int, int] = defaultdict(int)
        for move in self.moves:
            traffic[move.source_physical] += 1
            traffic[move.target_physical] += 1
        return dict(traffic)


def plan_physical_moves(
    object_ids: np.ndarray,
    block_indices: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
) -> MigrationPlan:
    """Build the physical migration plan from a backend's move candidates.

    The candidates come as columns: each block's object id and index,
    its current physical home and the physical disk its post-operation
    logical index denotes.  Candidates already on their target are
    dropped — backends may over-report (e.g. removal re-compaction
    shifts logical indices without moving bytes), and only genuine
    transfers belong in the plan, in candidate order.  Python records
    are built for those transfers only.
    """
    real = np.flatnonzero(sources != targets)
    return MigrationPlan.from_moves(
        [
            PhysicalMove(BlockId(oid, index), source, target)
            for oid, index, source, target in zip(
                object_ids[real].tolist(),
                block_indices[real].tolist(),
                sources[real].tolist(),
                targets[real].tolist(),
            )
        ]
    )


@dataclass
class MigrationReport:
    """Outcome of running a migration to completion.

    Attributes
    ----------
    rounds_used:
        Scheduling rounds the migration occupied.
    moves_executed:
        Total physical transfers performed.
    moves_per_round:
        Transfer count of each round, in order.
    """

    rounds_used: int = 0
    moves_executed: int = 0
    moves_per_round: list[int] = field(default_factory=list)


class InfeasibleBudgetError(Exception):
    """Raised when a round's budget cannot progress the remaining moves."""


class CapacityDeadlockError(Exception):
    """Raised when no move ordering fits within disk capacities."""


def order_capacity_safe(array: DiskArray, plan: MigrationPlan) -> MigrationPlan:
    """Reorder a plan so every prefix respects disk capacities.

    On nearly-full arrays a naive order can wedge: a move's target is
    full until some *other* move drains it first.  This pass simulates
    free-slot counts and repeatedly emits the moves whose target
    currently has room (each executed move frees a slot at its source).

    Raises
    ------
    CapacityDeadlockError
        When the remaining moves form a cycle with zero free slots
        anywhere — physically unschedulable without a scratch disk.
    """
    free: dict[int, int] = {}
    for pid in array.physical_ids:
        disk = array.disk(pid)
        free[pid] = disk.capacity_blocks - array.resident_on(pid)
    pending = list(plan.moves)
    ordered: list[PhysicalMove] = []
    while pending:
        emitted_this_pass = []
        still_pending = []
        for move in pending:
            if free.get(move.target_physical, 0) > 0:
                free[move.target_physical] -= 1
                free[move.source_physical] = free.get(move.source_physical, 0) + 1
                emitted_this_pass.append(move)
            else:
                still_pending.append(move)
        if not emitted_this_pass:
            raise CapacityDeadlockError(
                f"{len(still_pending)} moves remain but every target disk "
                "is full; migration needs scratch space"
            )
        ordered.extend(emitted_this_pass)
        pending = still_pending
    return MigrationPlan(moves=tuple(ordered))


class MigrationSession:
    """Stepwise executor of a :class:`MigrationPlan` against a live array.

    Each :meth:`step` represents one scheduling round: a move is executed
    only if both its source and target disk still have transfer budget in
    that round (each transfer costs one unit on each endpoint, per the
    paper's both-ends bandwidth observation).

    Parameters
    ----------
    array:
        The live disk array the moves run against.
    plan:
        The RF() plan to execute.
    journal:
        Optional :class:`~repro.server.journal.ScalingJournal`: every
        landed transfer is journaled (``apply`` record) *after* the move,
        so a crash between the move and the record merely re-executes an
        idempotent move on resume.
    op_seq:
        The journal sequence number of the owning scaling operation
        (required when ``journal`` is given).
    injector:
        Optional :class:`~repro.server.faults.FaultInjector`; consulted
        before every transfer.  Transient faults consume the round's
        bandwidth and trigger bounded exponential backoff (the move
        retries after 1, 2, 4, ... rounds); slow transfers consume the
        round and retry next round at no penalty; disk death propagates
        as :class:`~repro.server.faults.DiskDeathError`.
    max_retries:
        Transient failures tolerated per move before
        :class:`~repro.server.faults.TransferRetryExhaustedError`.
    obs:
        Optional observability handle (:class:`repro.obs.Obs`): executed
        transfers count into ``migrate.moves``, transient faults emit
        ``migrate.retry`` events (with the backoff horizon) and slow
        transfers ``migrate.slow``.
    """

    def __init__(
        self,
        array: DiskArray,
        plan: MigrationPlan,
        journal: Optional["ScalingJournal"] = None,
        op_seq: Optional[int] = None,
        injector: Optional["FaultInjector"] = None,
        max_retries: int = 8,
        obs: Optional["ObsHandle"] = None,
    ):
        from repro.obs import NULL_OBS

        if journal is not None and op_seq is None:
            raise ValueError("a journaled session needs the operation's op_seq")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.array = array
        self.journal = journal
        self.op_seq = op_seq
        self.injector = injector
        self.max_retries = max_retries
        self.obs = obs if obs is not None else NULL_OBS
        self._pending: list[PhysicalMove] = list(plan.moves)
        self.executed: list[PhysicalMove] = []
        self._round = 0
        self._retries: dict[BlockId, int] = {}
        self._deferred_until: dict[BlockId, int] = {}

    @property
    def remaining(self) -> int:
        """Moves not yet executed."""
        return len(self._pending)

    @property
    def done(self) -> bool:
        """Whether the plan has fully executed."""
        return not self._pending

    @property
    def pending_moves(self) -> tuple[PhysicalMove, ...]:
        """Moves still awaiting execution, in plan order."""
        return tuple(self._pending)

    def discard_pending(self, predicate) -> list[PhysicalMove]:
        """Drop (and return) pending moves matching ``predicate``.

        Used by the disk-death escalation: moves *targeting* a dead disk
        are superseded by the follow-up failure-removal, whose own RF()
        plan re-routes those blocks from wherever they actually sit.
        """
        dropped = [m for m in self._pending if predicate(m)]
        self._pending = [m for m in self._pending if not predicate(m)]
        return dropped

    def step(
        self,
        budget: Mapping[int, int] | int,
        max_moves: Optional[int] = None,
    ) -> list[PhysicalMove]:
        """Execute one round under the given per-disk transfer budget.

        Parameters
        ----------
        budget:
            Either a single integer budget applied to every disk, or a
            mapping from physical id to that disk's budget this round.
            Disks missing from the mapping have budget 0.
        max_moves:
            Optional hard cap on transfers this round regardless of
            budget (the kill-point tests and fine-grained pacing use it).

        Returns the moves executed this round (possibly empty when the
        budget allows no progress — the caller decides whether that is
        acceptable, e.g. a round fully consumed by stream reads).
        """
        remaining_budget = self._budget_lookup(budget)
        executed: list[PhysicalMove] = []
        still_pending: list[PhysicalMove] = []
        try:
            for move in self._pending:
                if max_moves is not None and len(executed) >= max_moves:
                    still_pending.append(move)
                    continue
                if self._round < self._deferred_until.get(move.block_id, 0):
                    still_pending.append(move)  # backing off after a fault
                    continue
                src_ok = remaining_budget(move.source_physical) > 0
                dst_ok = remaining_budget(move.target_physical) > 0
                if not (src_ok and dst_ok):
                    still_pending.append(move)
                    continue
                if self.injector is not None and not self._attempt(move):
                    still_pending.append(move)
                    continue
                try:
                    self.array.move(move.block_id, move.target_physical)
                except PlacementConflictError:
                    # Target currently full; an earlier-pending move may free
                    # it in a later round (see order_capacity_safe).
                    still_pending.append(move)
                    continue
                self._consume(move.source_physical)
                self._consume(move.target_physical)
                if self.journal is not None:
                    self.journal.record_apply(self.op_seq, move.block_id)
                self.executed.append(move)
                executed.append(move)
            if executed and self.obs.enabled:
                self.obs.inc("migrate.moves", len(executed))
        finally:
            # Keep the session consistent even when a disk death (or
            # retry exhaustion) aborts the round partway: every move not
            # yet visited stays pending.
            visited = len(executed) + len(still_pending)
            self._pending = still_pending + self._pending[visited:]
            self._round += 1
        return executed

    def run(
        self,
        budget: Mapping[int, int] | int,
        max_rounds: int = 1_000_000,
        stall_rounds: int = 1,
    ) -> MigrationReport:
        """Run rounds until the plan completes.

        Parameters
        ----------
        stall_rounds:
            Consecutive zero-move rounds tolerated before giving up
            (mirroring :meth:`OnlineScaler.scale_online`'s tolerance).
            The default of 1 fails on the first idle round — right for a
            fixed budget, where an idle round proves the budget can never
            progress; raise it when budgets vary round to round or a
            fault injector's backoff can idle a round legitimately.

        Raises
        ------
        InfeasibleBudgetError
            If ``stall_rounds`` consecutive rounds make no progress, or
            the migration exceeds ``max_rounds``.
        """
        if stall_rounds < 1:
            raise ValueError(f"stall_rounds must be >= 1, got {stall_rounds}")
        report = MigrationReport()
        idle = 0
        while self._pending:
            if report.rounds_used >= max_rounds:
                raise InfeasibleBudgetError(
                    f"migration incomplete after {max_rounds} rounds; "
                    f"{len(self._pending)} moves remain"
                )
            executed = self.step(budget)
            report.rounds_used += 1
            report.moves_executed += len(executed)
            report.moves_per_round.append(len(executed))
            if executed:
                idle = 0
            else:
                idle += 1
                if idle >= stall_rounds:
                    raise InfeasibleBudgetError(
                        f"no progress for {idle} consecutive rounds; some "
                        "disk on every remaining move has no budget"
                    )
        return report

    def _attempt(self, move: PhysicalMove) -> bool:
        """Consult the fault injector for one transfer; True = proceed.

        Transient and slow outcomes consume both endpoints' budget (the
        bandwidth was genuinely spent) and leave the move pending.
        """
        from repro.server.faults import (
            OUTCOME_SLOW,
            OUTCOME_TRANSIENT,
            TransferRetryExhaustedError,
        )

        self.injector.check_alive(move.source_physical, move.target_physical)
        outcome = self.injector.attempt(
            move.source_physical, move.target_physical
        )
        if outcome == OUTCOME_TRANSIENT:
            self._consume(move.source_physical)
            self._consume(move.target_physical)
            retries = self._retries.get(move.block_id, 0) + 1
            self._retries[move.block_id] = retries
            if retries > self.max_retries:
                raise TransferRetryExhaustedError(
                    f"move of {move.block_id} failed {retries} times "
                    f"(max_retries={self.max_retries})"
                )
            # Exponential backoff: 1, 2, 4, ... rounds before retrying.
            backoff = 1 << (retries - 1)
            self._deferred_until[move.block_id] = self._round + 1 + backoff
            if self.obs.enabled:
                self.obs.event(
                    "migrate.retry",
                    block=[move.block_id.object_id, move.block_id.index],
                    source=move.source_physical,
                    target=move.target_physical,
                    retries=retries,
                    backoff_rounds=backoff,
                )
            return False
        if outcome == OUTCOME_SLOW:
            self._consume(move.source_physical)
            self._consume(move.target_physical)
            if self.obs.enabled:
                self.obs.event(
                    "migrate.slow",
                    block=[move.block_id.object_id, move.block_id.index],
                    source=move.source_physical,
                    target=move.target_physical,
                )
            return False
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _budget_lookup(self, budget: Mapping[int, int] | int):
        self._spent: dict[int, int] = defaultdict(int)
        if isinstance(budget, int):
            return lambda pid: budget - self._spent[pid]
        return lambda pid: budget.get(pid, 0) - self._spent[pid]

    def _consume(self, pid: int) -> None:
        self._spent[pid] += 1
