"""The durable scaling journal: crash consistency for online scaling.

SCADDAR's snapshot (:mod:`repro.server.persistence`) captures a server at
a quiescent point, but the paper's whole premise is that scaling runs
*while the server serves* — and a crash mid-migration leaves the physical
disks half-moved with nothing that says which moves landed.  The journal
closes that gap with a classic intent/apply/commit record per scaling
operation, append-only JSON lines, O(moved blocks) per operation:

* ``begin`` — written by :meth:`CMServer.begin_scale` once the mapper has
  the new epoch and the RF() plan is known: the operation, the disk
  counts, and the full move list (block ids + *logical* endpoints —
  physical ids are process-local and would not survive a restart);
* ``apply`` — one O(1) record per executed :class:`PhysicalMove`, written
  by :meth:`MigrationSession.step` after the transfer lands;
* ``commit`` — written by :meth:`CMServer.finish_scale`;
* ``abort`` — written by :meth:`CMServer.abort_scale` after rollback.

Full redistributions journal through the same protocol under their own
op kind (:class:`ReshuffleOp`): ``begin`` carries the reset's complete
move plan, each landed move gets an ``apply``, and
:meth:`CMServer.finish_reshuffle` writes the ``commit`` — so a crash at
any move index of a reshuffle resumes exactly like a crashed scale.

``snapshot + journal`` is a complete recovery story:
:func:`repro.server.persistence.resume_server` replays committed
operations wholesale, skips aborted ones, and rebuilds the exact
mid-migration state of an open one (tests/test_journal_resume.py proves
bit-identical layouts for a kill after *every* move index).

The journal can live in memory (``path=None``, for experiments and
simulations) or on disk, where every record is flushed on write and
optionally fsync'd (``fsync=True``) so the record survives power loss.
Storage, the protocol checks, the torn final line and the typed
corruption error are the shared journal core's (:mod:`repro.journal`);
this module is the block-level codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.operations import ScalingOp
from repro.journal import Journal, JournalRecord
from repro.journal import JournalCorruptionError as JournalCorruptionError
from repro.journal import JournalError as JournalError
from repro.storage.block import BlockId


@dataclass(frozen=True)
class ReshuffleOp:
    """The journal's record of one full redistribution (reset).

    A reshuffle is not a :class:`~repro.core.operations.ScalingOp` — it
    changes no disk count and resets the backend's log instead of
    appending to it — but it moves blocks and must survive a crash just
    like a scale, so it journals through the same
    begin/apply/commit protocol under its own op kind.

    Attributes
    ----------
    epoch:
        1-based count of reshuffles once this one commits; doubles as
        the record's ``seq`` (reshuffle seq numbers live in their own
        space — scaling seqs restart from 1 after each reset).
    """

    epoch: int
    kind: str = field(default="reshuffle", init=False)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"kind": "reshuffle", "epoch": self.epoch}

    @classmethod
    def from_dict(cls, data: dict) -> "ReshuffleOp":
        """Inverse of :meth:`to_dict`."""
        if data.get("kind") != "reshuffle":
            raise ValueError(f"not a ReshuffleOp payload: {data!r}")
        return cls(epoch=data["epoch"])


@dataclass(frozen=True)
class LogicalMove:
    """One planned move in logical-index space (stable across restarts).

    ``source_logical``/``target_logical`` index the disk array *as it was
    when the operation began* (doomed disks of a removal are still
    attached then, so survivors keep their pre-removal indices).
    """

    block_id: BlockId
    source_logical: int
    target_logical: int


@dataclass
class OpJournalRecord(JournalRecord):
    """Everything the journal knows about one scaling operation.

    Attributes
    ----------
    seq:
        The operation's 1-based position in the operation log (``j``).
    op:
        The scaling operation itself.
    n_before / n_after:
        Disk counts around the operation.
    plan:
        The full move list recorded at ``begin`` time.
    applied:
        Block ids whose moves were journaled as executed, in order.
    committed / aborted:
        Terminal states; an open record has neither.
    """

    seq: int
    op: "ScalingOp | ReshuffleOp"
    n_before: int
    n_after: int
    plan: tuple[LogicalMove, ...]
    applied: list[BlockId] = field(default_factory=list)
    committed: bool = False
    aborted: bool = False

    @property
    def is_reshuffle(self) -> bool:
        """Whether this record journals a full redistribution."""
        return isinstance(self.op, ReshuffleOp)


class ScalingJournal(Journal[OpJournalRecord]):
    """Append-only intent/apply/commit journal for scaling operations.

    Parameters
    ----------
    path:
        JSON-lines file to append to (created by the first record).
        ``None`` keeps records in memory — same semantics, no
        durability; useful for simulations and the chaos experiment.
    fsync:
        When True, ``os.fsync`` after every record — the full durability
        contract, at one syscall per record.  Off by default; records
        are still flushed to the OS on every write.

    Examples
    --------
    >>> journal = ScalingJournal()          # in-memory
    >>> journal.replay()
    []
    """

    METRICS = "journal"

    def record_begin(
        self,
        seq: int,
        op: "ScalingOp | ReshuffleOp",
        n_before: int,
        n_after: int,
        moves: Iterable[LogicalMove],
    ) -> None:
        """Journal the intent of one scaling operation (plan included).

        Raises
        ------
        JournalError
            If another operation is still open — one scaling operation
            runs at a time, and overlapping intents would make replay
            ambiguous.
        """
        self._append(
            {
                "type": "begin",
                "seq": seq,
                "op": op.to_dict(),
                "n_before": n_before,
                "n_after": n_after,
                "plan": [
                    [
                        m.block_id.object_id,
                        m.block_id.index,
                        m.source_logical,
                        m.target_logical,
                    ]
                    for m in moves
                ],
            }
        )

    # Defined in this class body, not inherited: the benchmark's tracer
    # (perfbench/trace.py) wraps ScalingJournal.__dict__["record_apply"].
    def record_apply(self, seq: int, block_id: BlockId) -> None:
        """Journal one executed move (after the transfer landed).

        Raises
        ------
        JournalError
            If ``seq`` is not the open operation.
        """
        self._append(
            {
                "type": "apply",
                "seq": seq,
                "block": [block_id.object_id, block_id.index],
            }
        )

    def _decode_begin(self, entry: dict) -> OpJournalRecord:
        op_data = entry["op"]
        return OpJournalRecord(
            seq=entry["seq"],
            op=(
                ReshuffleOp.from_dict(op_data)
                if op_data.get("kind") == "reshuffle"
                else ScalingOp.from_dict(op_data)
            ),
            n_before=entry["n_before"],
            n_after=entry["n_after"],
            plan=tuple(
                LogicalMove(BlockId(o, i), src, dst)
                for o, i, src, dst in entry["plan"]
            ),
        )

    def _decode_apply(self, entry: dict) -> BlockId:
        return BlockId(*entry["block"])
