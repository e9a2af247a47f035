"""``scaddar cluster`` — operate a cluster through its manifest.

The cluster has no daemon; its durable identity is the manifest (plus
the cluster journal while a rebalance is in flight), so every verb is a
manifest transformation::

    scaddar cluster create  --manifest FILE [--shards N] [--objects K] ...
    scaddar cluster status  --manifest FILE
    scaddar cluster fsck    --manifest FILE [--journal FILE]
    scaddar cluster reshard --manifest FILE --journal FILE --add N
    scaddar cluster reshard --manifest FILE --journal FILE --remove SLOT ...
    scaddar cluster resume  --manifest FILE --journal FILE
    scaddar cluster metrics --manifest FILE

``create`` builds a demo cluster (optionally pre-loaded with objects)
and writes its manifest; ``reshard`` runs a journaled shard add/remove
and rewrites the manifest on commit; ``resume`` completes a rebalance a
crashed ``reshard`` left open in the journal; ``fsck`` audits routing
and every shard's layout; ``metrics`` prints the merged Prometheus
document.  See docs/OPERATIONS.md for the runbook these verbs belong
to.
"""

from __future__ import annotations

import argparse
import json
from collections.abc import Sequence
from pathlib import Path

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.fsck import check_cluster
from repro.cluster.health import ShardHealth
from repro.cluster.journal import ClusterJournal
from repro.cluster.obs import cluster_prometheus
from repro.cluster.persistence import (
    restore_cluster,
    resume_cluster,
    snapshot_cluster,
)
from repro.cluster.popularity import ReplicationPolicy
from repro.core.operations import ScalingOp
from repro.storage.disk import DiskSpec


def build_cluster_parser() -> argparse.ArgumentParser:
    """The ``scaddar cluster`` sub-parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="scaddar cluster",
        description="Operate a sharded cluster through its manifest.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    create = verbs.add_parser(
        "create", help="build a cluster and write its manifest"
    )
    create.add_argument("--manifest", required=True, type=Path)
    create.add_argument("--shards", type=int, default=4)
    create.add_argument("--disks-per-shard", type=int, default=4)
    create.add_argument("--objects", type=int, default=0)
    create.add_argument("--blocks-per-object", type=int, default=200)
    create.add_argument("--bits", type=int, default=32)
    create.add_argument(
        "--router", default="jump_hash",
        help="router backend (any registered placement backend)",
    )
    create.add_argument(
        "--seed", type=lambda text: int(text, 0), default=0,
        help="cluster master seed (shards derive theirs from it)",
    )
    create.add_argument("--journal", type=Path, default=None)
    create.add_argument(
        "--replicas", type=int, default=1,
        help="copies per object, primary included (default 1: no "
        "replication)",
    )
    create.add_argument(
        "--domains", type=int, default=None,
        help="failure domains to stripe shards across (default: every "
        "shard is its own domain)",
    )
    create.add_argument(
        "--copy-budget", type=int, default=None, dest="copy_budget",
        help="attach a popularity-driven replication policy with this "
        "total-copy budget (primaries included); replica degree then "
        "adapts per object to observed demand",
    )

    status = verbs.add_parser("status", help="summarize a manifest")
    status.add_argument("--manifest", required=True, type=Path)
    status.add_argument(
        "--journal", type=Path, default=None,
        help="cluster journal; an open rebalance makes status exit 2",
    )

    fsck = verbs.add_parser(
        "fsck", help="audit routing, replication, and per-shard layouts"
    )
    fsck.add_argument("--manifest", required=True, type=Path)
    fsck.add_argument(
        "--journal", type=Path, default=None,
        help="cluster journal; mid-rebalance audits classify in-flight "
        "and fsck exits 2 while a rebalance is open",
    )

    reshard = verbs.add_parser(
        "reshard", help="journaled shard add/remove, rewrites the manifest"
    )
    reshard.add_argument("--manifest", required=True, type=Path)
    reshard.add_argument("--journal", required=True, type=Path)
    group = reshard.add_mutually_exclusive_group(required=True)
    group.add_argument("--add", type=int, metavar="N")
    group.add_argument(
        "--remove", type=int, nargs="+", metavar="SLOT",
        help="slot indices to detach (router-backend rules apply)",
    )

    resume = verbs.add_parser(
        "resume", help="complete a rebalance a crash left open"
    )
    resume.add_argument("--manifest", required=True, type=Path)
    resume.add_argument("--journal", required=True, type=Path)

    metrics = verbs.add_parser(
        "metrics", help="merged Prometheus document for the cluster"
    )
    metrics.add_argument("--manifest", required=True, type=Path)
    return parser


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _save(manifest: dict, path: Path) -> None:
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _render_status(coordinator: ClusterCoordinator) -> str:
    from repro.experiments.tables import format_table

    rows = [
        (
            shard.shard_id,
            slot,
            shard.domain,
            coordinator.health.state(shard.shard_id).value,
            shard.server.num_disks,
            shard.num_objects,
            shard.total_blocks,
        )
        for slot, shard in enumerate(coordinator.shards)
    ]
    table = format_table(
        ("shard", "slot", "domain", "health", "disks", "objects", "blocks"),
        rows,
    )
    status = (
        table
        + f"\nrouter={coordinator.router.policy.name} "
        f"shards={coordinator.num_shards} "
        f"objects={coordinator.num_objects} "
        f"blocks={coordinator.total_blocks} "
        f"replicas={coordinator.replication_factor}"
    )
    manager = coordinator.replication
    if manager.policy is not None:
        copies = len(coordinator._home) + sum(
            len(sids) for sids in coordinator._replica_home.values()
        )
        boosted = sum(
            1
            for target in manager.policy.targets.values()
            if target > coordinator.replication_factor
        )
        status += (
            f"\npopularity: budget={manager.policy.copy_budget} "
            f"copies={copies} boosted={boosted}"
        )
    return status


def _render_fsck(report) -> str:
    from repro.experiments.tables import format_table

    rows = [
        (
            shard_id,
            shard_report.blocks_checked,
            len(shard_report.misplaced),
            len(shard_report.in_flight),
            "yes" if shard_report.clean else "NO",
        )
        for shard_id, shard_report in sorted(report.shard_reports.items())
    ]
    table = format_table(
        ("shard", "blocks", "misplaced", "in flight", "clean"), rows
    )
    lines = [
        table,
        f"routing: {report.objects_checked} objects checked, "
        f"{len(report.misrouted)} misrouted, "
        f"{len(report.in_flight)} in flight",
        f"replication: {len(report.replica_violations)} violations, "
        f"{len(report.degraded)} degraded",
    ]
    if report.clean:
        lines.append(
            "cluster is CLEAN"
            + ("" if report.fully_replicated else " (degraded replicas)")
        )
    else:
        lines.append("cluster is NOT clean")
    return "\n".join(lines)


def cluster_main(argv: Sequence[str]) -> int:
    """Run one ``scaddar cluster`` verb; returns a process exit code."""
    args = build_cluster_parser().parse_args(argv)

    if args.verb == "create":
        journal = (
            ClusterJournal(str(args.journal))
            if args.journal is not None
            else None
        )
        try:
            coordinator = ClusterCoordinator.create(
                args.shards,
                args.disks_per_shard,
                DiskSpec(),
                bits=args.bits,
                router_backend=args.router,
                master_seed=args.seed,
                journal=journal,
                replication_factor=args.replicas,
                num_domains=args.domains,
                replication_policy=(
                    ReplicationPolicy(args.copy_budget)
                    if args.copy_budget is not None
                    else None
                ),
            )
            for i in range(args.objects):
                coordinator.add_object(f"object-{i}", args.blocks_per_object)
            _save(snapshot_cluster(coordinator), args.manifest)
        finally:
            if journal is not None:
                journal.close()
        print(_render_status(coordinator))
        print(f"manifest written to {args.manifest}")
        return 0

    if args.verb == "status":
        coordinator = restore_cluster(_load(args.manifest))
        print(_render_status(coordinator))
        if args.journal is not None and args.journal.exists():
            open_record = ClusterJournal(str(args.journal)).open_record()
            if open_record is not None:
                print(
                    f"rebalance seq={open_record.seq} is OPEN "
                    f"({open_record.remaining} migrations outstanding)"
                )
                return 2
        dead = coordinator.health.shards_in(ShardHealth.DEAD)
        if dead:
            print(f"dead shards: {dead}")
            return 1
        return 0

    if args.verb == "fsck":
        pending = None
        if args.journal is not None and args.journal.exists():
            coordinator, pending = resume_cluster(
                _load(args.manifest), str(args.journal)
            )
            report = check_cluster(coordinator, pending)
        else:
            coordinator = restore_cluster(_load(args.manifest))
            report = check_cluster(coordinator)
        print(_render_fsck(report))
        if pending is not None:
            print(
                f"rebalance seq={pending.seq} is OPEN "
                f"({len(pending.remaining)} migrations outstanding)"
            )
            return 2
        return 0 if report.clean else 1

    if args.verb == "reshard":
        with ClusterJournal(str(args.journal)) as journal:
            coordinator = restore_cluster(_load(args.manifest), journal=journal)
            op = (
                ScalingOp.add(args.add)
                if args.add is not None
                else ScalingOp.remove(args.remove)
            )
            pending = coordinator.reshard(op)
            _save(snapshot_cluster(coordinator), args.manifest)
        print(
            f"seq={pending.seq} {op.kind} committed: "
            f"{pending.shards_before} -> {pending.shards_after} shards, "
            f"{len(pending.applied)} objects moved"
        )
        print(f"manifest rewritten at {args.manifest}")
        return 0

    if args.verb == "resume":
        with ClusterJournal(str(args.journal)) as journal:
            coordinator, pending = resume_cluster(_load(args.manifest), journal)
            if pending is None:
                print("journal is quiescent; nothing to resume")
                return 0
            before = len(pending.applied)
            coordinator.execute_reshard(pending)
            coordinator.finish_reshard(pending)
            _save(snapshot_cluster(coordinator), args.manifest)
        print(
            f"seq={pending.seq} resumed: {before} migrations were already "
            f"journaled, {len(pending.applied) - before} re-driven to "
            "commit"
        )
        print(f"manifest rewritten at {args.manifest}")
        return 0

    if args.verb == "metrics":
        print(cluster_prometheus(restore_cluster(_load(args.manifest))))
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")
