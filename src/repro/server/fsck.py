"""Layout consistency checking (an ``fsck`` for the CM server).

The server's correctness rests on one identity: the location of every
block *computed by the placement backend* (for SCADDAR, ``AF()`` over
seeds + op log) equals where its bytes physically sit.  Crashes
mid-migration, operator surgery or software bugs can break it;
:func:`check_layout` audits a server and :func:`repair_layout` moves
stray blocks back where the backend says they belong (the backend wins —
it is what retrieval will use).  The audit runs through the backend's
batched ``locate_batch`` (:meth:`CMServer.computed_homes`), so it works
unchanged for every registered backend, and compares whole columns:
O(objects) Python plus O(blocks) array work, with Python objects built
only for the blocks that disagree.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.server.cmserver import CMServer, PendingReshuffle, PendingScale
from repro.storage.block import BlockId
from repro.storage.migration import PhysicalMove


@dataclass(frozen=True)
class LayoutViolation:
    """One block whose physical home disagrees with ``AF()``."""

    block_id: BlockId
    expected_physical: int
    actual_physical: int


@dataclass
class LayoutReport:
    """Outcome of one consistency audit."""

    blocks_checked: int = 0
    missing: list[BlockId] = field(default_factory=list)
    orphans: list[BlockId] = field(default_factory=list)
    misplaced: list[LayoutViolation] = field(default_factory=list)
    #: Violations explained by a not-yet-executed migration move (the
    #: block sits at the move's source, AF() already says the target).
    #: Mid-migration state, not corruption; excluded from :attr:`clean`.
    in_flight: list[LayoutViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the layout is fully consistent."""
        return not (self.missing or self.orphans or self.misplaced)


def check_layout(
    server: CMServer,
    pending: Optional[
        PendingScale | PendingReshuffle | Iterable[PhysicalMove]
    ] = None,
) -> LayoutReport:
    """Audit the server: catalog vs inventory vs computed locations.

    Checks three invariants:

    * every catalog block is resident somewhere (**missing** otherwise);
    * every resident block belongs to a catalog object (**orphans**);
    * every resident block sits on the disk ``AF()`` computes
      (**misplaced**).

    ``pending`` makes the audit migration-aware: a block at a pending
    move's source whose expected home is that move's target is
    **in-flight**, not misplaced — so a mid-migration server audits
    clean unless genuinely corrupt.  Pass the whole
    :class:`~repro.server.cmserver.PendingScale` when one is available
    (required for mid-*removal* audits: the backend already indexes the
    survivors while the doomed disks are still attached, so expected
    homes must be translated through the survivor table); a
    :class:`~repro.server.cmserver.PendingReshuffle` or a bare iterable
    of moves suffices when no disks are leaving (reshuffles never change
    the disk count).
    """
    if isinstance(pending, PendingReshuffle):
        pending = pending.plan.moves
    if isinstance(pending, PendingScale):
        moves: tuple[PhysicalMove, ...] = pending.plan.moves
        attached = list(server.array.physical_ids)
        translate: dict[int, int] = {}
        if pending.removed_physicals and set(pending.removed_physicals) <= set(
            attached
        ):
            # Mid-removal: AF() yields post-removal logical indices, but
            # ``computed_homes`` resolves them against the pre-detach
            # table.  Remap each raw expectation to the survivor the
            # logical index actually denotes.
            survivors = server.array.survivors_after_removal(pending.op.removed)
            translate = {attached[i]: pid for i, pid in enumerate(survivors)}
    else:
        moves = tuple(pending or ())
        translate = {}
    expected_by_move = {
        m.block_id: (m.source_physical, m.target_physical) for m in moves
    }
    report = LayoutReport()
    objects = list(server.catalog)
    # One batched AF() pass over every catalog block, then a column
    # compare: Python runs per object and per disagreement only.
    expected = server.computed_homes(objects)
    if translate:
        lookup = np.arange(max(attached) + 1, dtype=np.int64)
        lookup[list(translate)] = list(translate.values())
        expected = lookup[expected]
    lengths = [m.num_blocks for m in objects]
    actual = server.array.home_columns([m.object_id for m in objects], lengths)
    report.blocks_checked = actual.shape[0]
    ends = np.cumsum(lengths, dtype=np.int64)
    wrong = np.flatnonzero(actual != expected)
    for position, k in zip(
        wrong.tolist(), np.searchsorted(ends, wrong, side="right").tolist()
    ):
        index = position - int(ends[k]) + lengths[k]
        block_id = BlockId(objects[k].object_id, index)
        home = int(actual[position])
        if home < 0:
            report.missing.append(block_id)
            continue
        violation = LayoutViolation(
            block_id=block_id,
            expected_physical=int(expected[position]),
            actual_physical=home,
        )
        if expected_by_move.get(block_id) == (home, violation.expected_physical):
            report.in_flight.append(violation)
        else:
            report.misplaced.append(violation)
    if np.count_nonzero(actual >= 0) < server.array.total_blocks:
        # Some resident block lies outside every catalog object.
        sizes = {m.object_id: m.num_blocks for m in objects}
        report.orphans.extend(
            block_id
            for block_id in server.array.resident_ids()
            if block_id.index >= sizes.get(block_id.object_id, 0)
        )
    return report


def repair_layout(server: CMServer, report: LayoutReport | None = None) -> int:
    """Move misplaced blocks to their computed homes; returns moves made.

    Missing blocks cannot be conjured (that is data loss — surface it);
    orphans are left in place (they may be another catalog epoch's data —
    deleting is the operator's call).  Only *misplaced* blocks are safe
    to fix mechanically.
    """
    report = report if report is not None else check_layout(server)
    moves = 0
    for violation in report.misplaced:
        if server.array.move(violation.block_id, violation.expected_physical):
            moves += 1
    return moves
