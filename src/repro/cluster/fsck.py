"""Cluster layout auditing (fsck one level up).

Three invariant families on top of each shard's own
:func:`~repro.server.fsck.check_layout` audit:

* **routing** — every object's recorded home
  (``coordinator._home[gid]``) equals where the router *computes* it
  should live.  Mid-rebalance, an object whose pending migration
  explains the disagreement (the router already says the target, the
  object still sits at the source) is **in-flight**, not misrouted —
  the same migration-awareness the disk-level audit has;
* **replication** — every object's copies sit on pairwise-distinct
  shards and (among live copies) pairwise-distinct failure domains,
  each replica record points at a real catalog entry matching the
  primary's name and size, and the live-copy count meets the *object's
  own* target — its committed popularity-policy target when one is
  attached, the uniform replication factor otherwise (either way
  capped by how many distinct live domains exist).
  A shortfall *explained by a dead or rebuilding copy-holder* is
  **degraded** — expected mid-failure, repaired by the rebuild — while
  any other replication breach is a violation;
* **per-shard layout** — every shard (slot-table and draining alike)
  passes its own audit; a shard mid-scale can be vouched for by passing
  its pending operation through ``shard_pending``.  Dead shards are
  skipped (their catalogs are unreachable tombstones, audited again if
  an abort revives their entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.coordinator import ClusterCoordinator, PendingReshard
from repro.server.cmserver import PendingReshuffle, PendingScale
from repro.server.fsck import LayoutReport, check_layout


@dataclass(frozen=True)
class RoutingViolation:
    """One object whose recorded home disagrees with the router."""

    object_id: int
    expected_shard: int
    actual_shard: int


@dataclass(frozen=True)
class ReplicaViolation:
    """One object whose replica set breaks a replication invariant."""

    object_id: int
    #: Invariant breached: ``duplicate-shard``, ``domain-collision``,
    #: ``missing-copy``, ``mismatched-copy``, or ``under-replicated``.
    kind: str
    detail: str


@dataclass
class ClusterLayoutReport:
    """Outcome of one cluster-wide consistency audit."""

    #: Stable shard id -> that shard's own layout audit.
    shard_reports: dict[int, LayoutReport] = field(default_factory=dict)
    objects_checked: int = 0
    misrouted: list[RoutingViolation] = field(default_factory=list)
    #: Routing disagreements explained by a pending rebalance move.
    in_flight: list[RoutingViolation] = field(default_factory=list)
    #: Replication invariant breaches (never expected).
    replica_violations: list[ReplicaViolation] = field(default_factory=list)
    #: Under-replication fully explained by dead/rebuilding copy-holders
    #: — the state a rebuild exists to repair, not a consistency breach.
    degraded: list[ReplicaViolation] = field(default_factory=list)

    @property
    def blocks_checked(self) -> int:
        """Blocks audited across every shard."""
        return sum(r.blocks_checked for r in self.shard_reports.values())

    @property
    def shard_in_flight(self) -> int:
        """Disk-level in-flight violations summed over the shards."""
        return sum(len(r.in_flight) for r in self.shard_reports.values())

    @property
    def clean(self) -> bool:
        """Fully consistent: every shard clean, no misrouted objects,
        no replication breaches (in-flight entries at either level and
        degraded objects are expected mid-operation / mid-failure)."""
        return (
            not self.misrouted
            and not self.replica_violations
            and all(r.clean for r in self.shard_reports.values())
        )

    @property
    def fully_replicated(self) -> bool:
        """Clean *and* every object holds its full live replica set
        (no degraded entries) — the post-rebuild steady state."""
        return self.clean and not self.degraded


def check_cluster(
    coordinator: ClusterCoordinator,
    pending: Optional[PendingReshard] = None,
    shard_pending: Optional[
        dict[int, PendingScale | PendingReshuffle]
    ] = None,
) -> ClusterLayoutReport:
    """Audit the whole cluster: routing plus every shard's layout.

    ``pending`` (defaults to the coordinator's in-flight rebalance, if
    any) makes the routing audit migration-aware; ``shard_pending`` maps
    stable shard ids to their own pending disk-level operations for the
    per-shard audits.
    """
    if pending is None:
        pending = coordinator._in_flight
    pending_by_gid = (
        {m.object_id: m for m in pending.remaining}
        if pending is not None
        else {}
    )
    report = ClusterLayoutReport()

    for shard_id in sorted(coordinator._shard_by_id):
        if not coordinator.health.is_live(shard_id):
            continue  # a tombstone catalog is unreachable, not auditable
        shard = coordinator._shard_by_id[shard_id]
        report.shard_reports[shard_id] = check_layout(
            shard.server,
            (shard_pending or {}).get(shard_id),
        )

    slot_table = [shard.shard_id for shard in coordinator.shards]
    gids = sorted(coordinator._home)
    slots = coordinator.router.slots_of(gids).tolist() if gids else []
    for gid, slot in zip(gids, slots):
        report.objects_checked += 1
        expected = slot_table[slot]
        actual = coordinator._home[gid]
        if expected == actual:
            continue
        violation = RoutingViolation(
            object_id=gid, expected_shard=expected, actual_shard=actual
        )
        move = pending_by_gid.get(gid)
        if (
            move is not None
            and move.target_shard == expected
            and move.source_shard == actual
        ):
            report.in_flight.append(violation)
        else:
            report.misrouted.append(violation)

    _check_replication(coordinator, report)
    return report


def _check_replication(
    coordinator: ClusterCoordinator, report: ClusterLayoutReport
) -> None:
    """Audit every object's replica set against the cluster invariants.

    The replica-count invariant is **per-object**: each object is held
    to its own target
    (:meth:`~repro.cluster.replication.ClusterReplicationManager.target_of`
    — the committed popularity-policy target when one is attached, the
    uniform factor otherwise), capped by the live-domain count.
    """
    manager = coordinator.replication
    if coordinator.replication_factor <= 1 and manager.policy is None:
        return
    health = coordinator.health

    def domain(shard_id: int) -> str:
        return coordinator._shard_by_id[shard_id].domain

    # Any target is only achievable up to the number of distinct live
    # domains on the slot table — a 2-domain cluster can never hold 3
    # domain-distinct copies, and that is a sizing fact, not a breach.
    live_domains = {
        domain(shard.shard_id)
        for shard in coordinator.shards
        if health.is_live(shard.shard_id)
    }

    for gid in sorted(coordinator._home):
        target = min(manager.target_of(gid), len(live_domains))
        copies = (coordinator._home[gid],) + coordinator._replica_home.get(
            gid, ()
        )
        seen: set[int] = set()
        for sid in copies:
            if sid in seen:
                report.replica_violations.append(
                    ReplicaViolation(
                        gid, "duplicate-shard",
                        f"two copies recorded on shard {sid}",
                    )
                )
            seen.add(sid)
        primary = coordinator._shard_by_id[
            coordinator._home[gid]
        ].server.catalog.get(coordinator._local[gid])
        for sid in coordinator._replica_home.get(gid, ()):
            try:
                media = coordinator._shard_by_id[sid].server.catalog.get(
                    coordinator._replica_local[(gid, sid)]
                )
            except KeyError:
                report.replica_violations.append(
                    ReplicaViolation(
                        gid, "missing-copy",
                        f"replica record points at shard {sid} local id "
                        f"{coordinator._replica_local.get((gid, sid))} "
                        "which its catalog does not hold",
                    )
                )
                continue
            if (
                media.name != primary.name
                or media.num_blocks != primary.num_blocks
            ):
                report.replica_violations.append(
                    ReplicaViolation(
                        gid, "mismatched-copy",
                        f"replica on shard {sid} is "
                        f"{media.name!r}/{media.num_blocks} blocks, "
                        f"primary is {primary.name!r}/"
                        f"{primary.num_blocks}",
                    )
                )
        live = [sid for sid in copies if health.is_live(sid)]
        used_domains: set[str] = set()
        for sid in live:
            if domain(sid) in used_domains:
                report.replica_violations.append(
                    ReplicaViolation(
                        gid, "domain-collision",
                        f"two live copies share failure domain "
                        f"{domain(sid)!r}",
                    )
                )
            used_domains.add(domain(sid))
        if len(live) < target:
            entry = ReplicaViolation(
                gid, "under-replicated",
                f"{len(live)} live copies of {target} required "
                f"(copies on shards {list(copies)})",
            )
            if len(live) < len(copies) or gid in manager._dirty:
                # A copy-holder is dead/rebuilding, or the object sits
                # in the manager's rate-bounded reconciliation queue
                # (its target just rose): the shortfall is a state
                # being repaired, not an fsck breach.
                report.degraded.append(entry)
            else:
                report.replica_violations.append(entry)
