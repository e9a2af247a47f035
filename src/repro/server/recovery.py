"""Disk-failure recovery with mirrored SCADDAR placement.

The paper distinguishes removal ("known a priori") from failure
("unpredictable", Section 1) and proposes mirroring for the latter
(Section 6).  The two compose: with a mirror at offset ``Nj/2``, an
unexpected failure becomes a SCADDAR *removal* of the dead disk in which
every block whose copy was lost still has a live source — its surviving
replica — so the redistribution can run online exactly like a planned
removal.

:func:`simulate_failure_recovery` plays that out over a block population
and prices it: which replicas must be rewritten, the read/write traffic
per surviving disk, and the rebuild time under a bandwidth cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.operations import ScalingOp
from repro.core.scaddar import ScaddarMapper
from repro.server.faults import (
    DataLossError,
    FaultInjector,
    MirroredPlacement,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.cmserver import CMServer, PendingScale
    from repro.storage.migration import MigrationSession


@dataclass
class RecoveryReport:
    """Outcome of recovering from one disk failure.

    Attributes
    ----------
    failed_disk:
        Logical index of the failed disk (pre-removal numbering).
    blocks_recovered:
        Replica copies that had to be rewritten somewhere.
    blocks_lost:
        Blocks with no surviving copy (0 with distinct-replica mirroring).
    reads_by_disk / writes_by_disk:
        Rebuild traffic per *post-removal* logical disk.
    rebuild_rounds:
        Rounds to complete at the given per-disk bandwidth, with reads
        and writes sharing each disk's budget.
    """

    failed_disk: int
    blocks_recovered: int = 0
    blocks_lost: int = 0
    reads_by_disk: dict[int, int] = field(default_factory=dict)
    writes_by_disk: dict[int, int] = field(default_factory=dict)
    rebuild_rounds: int = 0


def simulate_failure_recovery(
    mapper: ScaddarMapper,
    x0s: list[int],
    failed_disk: int,
    bandwidth_per_disk: int = 8,
) -> tuple[ScaddarMapper, RecoveryReport]:
    """Convert a failure into a removal; source lost copies from mirrors.

    Returns the post-recovery mapper (the input mapper is not mutated —
    callers swap it in once recovery completes) and the traffic report.

    Raises
    ------
    DataLossError
        If some block had both replicas on the failed disk (cannot happen
        with the offset scheme while ``Nj >= 2``, but checked anyway).
    ValueError
        On invalid disk index or bandwidth.
    """
    n_before = mapper.current_disks
    if not 0 <= failed_disk < n_before:
        raise ValueError(
            f"failed disk {failed_disk} out of 0..{n_before - 1}"
        )
    if bandwidth_per_disk <= 0:
        raise ValueError(f"bandwidth must be >= 1, got {bandwidth_per_disk}")

    before = MirroredPlacement(mapper)
    # The survivors' new compact indices (the paper's new()).
    rank = [
        d - (1 if d > failed_disk else 0)
        for d in range(n_before)
    ]

    after_mapper = ScaddarMapper(n0=mapper.log.n0, bits=mapper.bits)
    for op in mapper.log:
        after_mapper.apply(op)
    after_mapper.apply(ScalingOp.remove([failed_disk]))
    after = MirroredPlacement(after_mapper)

    report = RecoveryReport(failed_disk=failed_disk)
    n_after = after_mapper.current_disks
    report.reads_by_disk = {d: 0 for d in range(n_after)}
    report.writes_by_disk = {d: 0 for d in range(n_after)}

    for x0 in x0s:
        old_pair = before.replica_pair(x0)
        old_copies = {old_pair.primary, old_pair.mirror}
        surviving = old_copies - {failed_disk}
        if not surviving:
            report.blocks_lost += 1
            continue
        # Post-removal locations of the surviving copies, compact indexing.
        surviving_after = {rank[d] for d in surviving}
        new_pair = after.replica_pair(x0)
        source = next(iter(surviving_after))
        for target in {new_pair.primary, new_pair.mirror} - surviving_after:
            report.blocks_recovered += 1
            report.reads_by_disk[source] += 1
            report.writes_by_disk[target] += 1

    if report.blocks_lost:
        raise DataLossError(
            f"{report.blocks_lost} blocks had every replica on disk "
            f"{failed_disk}"
        )

    busiest = max(
        (
            report.reads_by_disk[d] + report.writes_by_disk[d]
            for d in range(n_after)
        ),
        default=0,
    )
    report.rebuild_rounds = math.ceil(busiest / bandwidth_per_disk)
    return after_mapper, report


@dataclass
class DeathEscalationReport:
    """Outcome of escalating a mid-migration disk death.

    Attributes
    ----------
    dead_physical:
        Physical id of the disk that died.
    interrupted_op:
        The scaling operation that was running when the disk died.
    superseded_moves:
        Moves of the interrupted plan that *targeted* the dead disk —
        dropped, because the follow-up failure-removal re-routes those
        blocks from wherever they actually sit.
    drain_moves:
        Moves executed while completing the interrupted operation.
    removal_moves:
        Moves of the failure-removal that drained the dead disk.
    mirror_reads:
        Transfers whose source was the dead disk, served by the
        surviving replica (the Section 6 mirroring contract).
    """

    dead_physical: int
    interrupted_op: ScalingOp
    superseded_moves: int = 0
    drain_moves: int = 0
    removal_moves: int = 0
    mirror_reads: int = 0


def escalate_disk_death(
    server: "CMServer",
    pending: "PendingScale",
    session: "MigrationSession",
    dead_physical: int,
    injector: Optional[FaultInjector] = None,
) -> DeathEscalationReport:
    """Turn a disk death during scaling into a failure-as-removal.

    The composition the paper's Sections 1 and 6 add up to: the
    interrupted add/remove is *completed* (reads from the dead disk are
    served by the offset mirror; writes to it are dropped — the blocks
    are re-routed by the removal), then the death becomes one more
    SCADDAR removal on the same operation log.  Both operations are
    journaled if the server has a journal, so a crash during the
    escalation is itself resumable.

    Mirroring is the SCADDAR backend's contract (the offset scheme needs
    the mapper), so this escalation requires ``server.backend`` to be the
    SCADDAR backend; other backends raise ``AttributeError`` via
    ``server.mapper``.

    Raises
    ------
    DataLossError
        If some block that must be read off the dead disk has its mirror
        there too (impossible under the offset scheme while ``Nj >= 2``).
    ValueError
        If the dead disk is one the interrupted removal was already
        draining — finishing that removal IS the recovery then, and no
        second operation may be appended.
    """
    from repro.storage.migration import MigrationSession

    report = DeathEscalationReport(
        dead_physical=dead_physical, interrupted_op=pending.op
    )
    if dead_physical in pending.removed_physicals:
        raise ValueError(
            f"disk {dead_physical} is already being removed by the "
            "interrupted operation; finish that migration instead"
        )

    # Writes to the dead disk are superseded: the failure-removal's RF()
    # plan recomputes each block's route from its actual current home.
    report.superseded_moves = len(
        session.discard_pending(lambda m: m.target_physical == dead_physical)
    )

    # Reads from the dead disk come from the surviving replica; prove one
    # exists before allowing them.
    mirrored = MirroredPlacement(server.mapper)
    dead_logical = server.array.logical_of(dead_physical)
    sourced = [
        m for m in session.pending_moves if m.source_physical == dead_physical
    ]
    for move in sourced:
        x0 = server.block_x0(move.block_id.object_id, move.block_id.index)
        pair = mirrored.replica_pair(x0)
        if pair.primary == pair.mirror == dead_logical:
            raise DataLossError(
                f"block {move.block_id} has both replicas on dead disk "
                f"{dead_physical}"
            )
    if injector is not None:
        injector.enable_mirror_reads()

    # Complete the interrupted operation (unthrottled: recovery outranks
    # politeness; callers that need pacing can drive the session first).
    _drain(session)
    report.drain_moves = len(session.executed)
    server.finish_scale(pending)

    # The failure, as one more removal on the same operation log.
    dead_logical = server.array.logical_of(dead_physical)
    removal = server.begin_scale(ScalingOp.remove([dead_logical]))
    drain = MigrationSession(
        server.array,
        removal.plan,
        journal=server.journal,
        op_seq=removal.op_seq,
        injector=injector,
    )
    _drain(drain)
    report.removal_moves = len(drain.executed)
    server.finish_scale(removal)
    if injector is not None:
        report.mirror_reads = injector.stats.mirror_reads
    return report


def _drain(session: "MigrationSession", stall_rounds: int = 1_000) -> None:
    """Step a session to completion with effectively unlimited budget.

    Zero-move rounds are tolerated up to ``stall_rounds`` in a row —
    fault-injector backoff legitimately idles rounds — but a session
    that stops progressing for good raises ``RuntimeError``.
    """
    idle = 0
    while not session.done:
        if session.step(2 * len(session.pending_moves) + 2):
            idle = 0
        else:
            idle += 1
            if idle >= stall_rounds:
                raise RuntimeError(
                    f"recovery drain stalled: {session.remaining} moves "
                    f"made no progress for {stall_rounds} rounds"
                )
