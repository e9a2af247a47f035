"""The durable cluster journal: crash consistency for shard rebalances.

Same intent/apply/commit discipline as the per-shard scaling journal
(:mod:`repro.server.journal`), one level up: the unit of movement is an
*object* migrating between shards instead of a block migrating between
disks.

* ``begin`` — written by
  :meth:`~repro.cluster.coordinator.ClusterCoordinator.begin_reshard`
  once the router reflects the new shard topology and the filtered move
  plan is known: the operation, the shard counts, and the full move
  list (object ids + *stable shard id* endpoints — slot indices
  re-compact on removal and would be ambiguous after a crash);
* ``apply`` — one record per migrated object, written after the object
  fully landed on the target shard and was dropped from the source;
* ``commit`` / ``abort`` — terminal records.

The composition with the per-shard journals is strict layering: an
object migration is *catalog* traffic on both shards (ingest on the
target, removal on the source), never a per-shard scaling op, so a
shard's own :class:`~repro.server.journal.ScalingJournal` records only
its own disk-level operations.  Recovery replays the shard journals
first (each shard returns to its own crash-consistent state), then the
cluster journal on top (object moves re-executed against the restored
shards) — see :func:`repro.cluster.persistence.resume_cluster`.

Storage is the scaling journal's, because it is the same code: the
shared journal core (:mod:`repro.journal`) owns the JSON-lines store,
flush and optional fsync, the protocol checks, the torn final line and
the typed corruption error.  This module is the object-level codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.operations import ScalingOp
from repro.journal import Journal, JournalCorruptionError, JournalRecord
from repro.journal import JournalError as JournalError

#: The typed corruption error, under the name the cluster layer has
#: always exported (both layers raise it; it is still a JournalError).
ClusterJournalCorruptionError = JournalCorruptionError


@dataclass(frozen=True)
class ObjectMove:
    """One planned object migration, in stable-shard-id space."""

    object_id: int
    source_shard: int
    target_shard: int


@dataclass
class ReshardRecord(JournalRecord):
    """Everything the cluster journal knows about one rebalance.

    Attributes
    ----------
    seq:
        1-based position of the operation in the router's log.
    op:
        The shard-topology operation (over *slots*, like any scaling op).
    shards_before / shards_after:
        Shard counts around the operation.
    new_shard_ids:
        Stable ids assigned to shards the operation attaches.
    plan:
        The filtered move list recorded at ``begin`` time.
    applied:
        Object ids whose migrations were journaled as landed, in order.
    rebuild_of:
        Stable id of the dead shard this rebalance evacuates, or
        ``None`` for an ordinary reshard.  Recovery must re-mark that
        shard dead before re-deriving the plan, so the field rides in
        the begin record.
    """

    seq: int
    op: ScalingOp
    shards_before: int
    shards_after: int
    new_shard_ids: tuple[int, ...]
    plan: tuple[ObjectMove, ...]
    applied: list[int] = field(default_factory=list)
    committed: bool = False
    aborted: bool = False
    rebuild_of: Optional[int] = None


class ClusterJournal(Journal[ReshardRecord]):
    """Append-only intent/apply/commit journal for shard rebalances.

    Parameters
    ----------
    path:
        JSON-lines file to append to; ``None`` keeps records in memory
        (same semantics, no durability).
    fsync:
        ``os.fsync`` after every record when True.
    """

    METRICS = "cluster.journal"

    def record_begin(
        self,
        seq: int,
        op: ScalingOp,
        shards_before: int,
        shards_after: int,
        new_shard_ids: Iterable[int],
        moves: Iterable[ObjectMove],
        rebuild_of: Optional[int] = None,
    ) -> None:
        """Journal the intent of one rebalance (filtered plan included).

        ``rebuild_of`` names the dead shard a rebuild evacuates (absent
        for ordinary reshards; older journals never carry it).

        Raises
        ------
        JournalError
            If another rebalance is still open.
        """
        entry = {
            "type": "begin",
            "seq": seq,
            "op": op.to_dict(),
            "shards_before": shards_before,
            "shards_after": shards_after,
            "new_shard_ids": list(new_shard_ids),
            "plan": [
                [m.object_id, m.source_shard, m.target_shard]
                for m in moves
            ],
        }
        if rebuild_of is not None:
            entry["rebuild_of"] = rebuild_of
        self._append(entry)

    def record_apply(self, seq: int, object_id: int) -> None:
        """Journal one landed object migration.

        Raises
        ------
        JournalError
            If ``seq`` is not the open rebalance.
        """
        self._append({"type": "apply", "seq": seq, "object": object_id})

    # The benchmark's tracer (perfbench/trace.py) wraps these through
    # ClusterJournal.__dict__, so they are bound in this class body.
    record_commit = Journal.record_commit
    replay = Journal.replay

    def _decode_begin(self, entry: dict) -> ReshardRecord:
        return ReshardRecord(
            seq=entry["seq"],
            op=ScalingOp.from_dict(entry["op"]),
            shards_before=entry["shards_before"],
            shards_after=entry["shards_after"],
            new_shard_ids=tuple(entry["new_shard_ids"]),
            plan=tuple(
                ObjectMove(gid, src, dst) for gid, src, dst in entry["plan"]
            ),
            rebuild_of=entry.get("rebuild_of"),
        )

    def _decode_apply(self, entry: dict) -> int:
        return entry["object"]
