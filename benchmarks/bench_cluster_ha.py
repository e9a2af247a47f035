"""Cluster fault tolerance: failover overhead and availability floors.

Two sections, each with a hard floor, persisted to
``BENCH_cluster_ha.json`` at the repo root:

* **lookup overhead** — batched ``route_reads`` throughput over the same
  object population at R=1 (the PR-8 routed-lookup baseline shape) and
  at R=2 with the full failover machinery armed; the replicated rate
  must stay within ``max_failover_overhead`` of the baseline.  The
  all-healthy hot path gates straight to the vectorized router lookup,
  so replication must cost (next to) nothing until something breaks.
* **shard death availability** — a replicated cluster serving live
  streams loses one shard mid-serving; its streams fail over to replica
  copies and aggregate availability (served/requested across every
  round, death round included) must hold ``min_availability``.  The
  degraded batched-lookup rate (slow path: per-object retry/failover
  routing) is reported alongside for scale, without a floor — it is
  the price of a dead shard, not the steady state.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_ha.py [--quick]
        [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cluster.coordinator import ClusterCoordinator
from repro.server.streams import Stream
from repro.storage.disk import DiskSpec

from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 0x5A4E

#: Full sizing: enough lookups to drown timer noise, enough rounds to
#: make the availability ratio meaningful.
FULL = {
    "lookup_shards": 8,
    "lookup_objects": 50_000,
    "lookup_repeats": 20,
    "serving_shards": 8,
    "num_domains": 2,
    "disks_per_shard": 4,
    "bandwidth": 600,
    "objects": 24,
    "blocks_per_object": 200,
    "streams_per_shard": 50,
    "rate": 4,
    "rounds_before_kill": 4,
    "rounds_after_kill": 8,
    "min_availability": 0.99,
    "max_failover_overhead": 0.10,
}

#: CI smoke sizing: same shape, seconds not minutes.
QUICK = {
    "lookup_shards": 4,
    "lookup_objects": 10_000,
    "lookup_repeats": 10,
    "serving_shards": 4,
    "num_domains": 2,
    "disks_per_shard": 3,
    "bandwidth": 400,
    "objects": 12,
    "blocks_per_object": 100,
    "streams_per_shard": 20,
    "rate": 4,
    "rounds_before_kill": 2,
    "rounds_after_kill": 4,
    "min_availability": 0.99,
    "max_failover_overhead": 0.10,
}


def _build_lookup_cluster(
    cfg: dict, replication_factor: int
) -> ClusterCoordinator:
    """A cluster populated with one-block objects, for routing only."""
    spec = DiskSpec(
        capacity_blocks=200_000, bandwidth_blocks_per_round=cfg["bandwidth"]
    )
    coordinator = ClusterCoordinator.create(
        cfg["lookup_shards"],
        2,
        spec,
        bits=32,
        router_backend="consistent_hash",
        master_seed=SEED,
        replication_factor=replication_factor,
        num_domains=cfg["num_domains"] if replication_factor > 1 else None,
    )
    for i in range(cfg["lookup_objects"]):
        coordinator.add_object(f"clip-{i}", 1, 1)
    return coordinator


def measure_lookup_rate(
    coordinator: ClusterCoordinator, repeats: int
) -> dict:
    """Best-of-three batched route_reads rate over the whole namespace."""
    gids = list(coordinator.object_ids)
    coordinator.route_reads(gids[:256])  # warm-up
    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            coordinator.route_reads(gids)
        elapsed = time.perf_counter() - start
        best = max(best, repeats * len(gids) / elapsed)
    return {
        "objects": len(gids),
        "repeats": repeats,
        "lookups_per_sec": int(best),
    }


def run_lookup_overhead(cfg: dict) -> dict:
    """R=1 vs R=2 batched-lookup throughput on all-healthy clusters."""
    baseline_cluster = _build_lookup_cluster(cfg, replication_factor=1)
    replicated_cluster = _build_lookup_cluster(cfg, replication_factor=2)
    baseline = measure_lookup_rate(baseline_cluster, cfg["lookup_repeats"])
    replicated = measure_lookup_rate(replicated_cluster, cfg["lookup_repeats"])
    overhead = 1.0 - (
        replicated["lookups_per_sec"] / baseline["lookups_per_sec"]
    )
    return {
        "baseline": baseline,
        "replicated": replicated,
        "overhead": round(overhead, 4),
    }


def run_shard_death(cfg: dict) -> dict:
    """Serve live streams through a single-shard death at R=2."""
    spec = DiskSpec(
        capacity_blocks=200_000, bandwidth_blocks_per_round=cfg["bandwidth"]
    )
    coordinator = ClusterCoordinator.create(
        cfg["serving_shards"],
        cfg["disks_per_shard"],
        spec,
        bits=32,
        router_backend="consistent_hash",
        master_seed=SEED,
        replication_factor=2,
        num_domains=cfg["num_domains"],
    )
    for i in range(cfg["objects"]):
        coordinator.add_object(
            f"title-{i}", cfg["blocks_per_object"], cfg["rate"]
        )
    # Admit streams against each object's *home* shard, spread so every
    # shard is serving when the victim dies.
    by_shard: dict[int, list[int]] = {
        sid: [] for sid in coordinator.shard_ids
    }
    for gid in coordinator.object_ids:
        by_shard[coordinator.shard_of(gid)].append(gid)
    stream_id = 0
    for sid, gids in sorted(by_shard.items()):
        if not gids:
            continue
        shard = coordinator.shard(sid)
        for i in range(cfg["streams_per_shard"]):
            gid = gids[i % len(gids)]
            media = shard.server.catalog.get(coordinator.local_id_of(gid))
            shard.scheduler.admit(
                Stream(
                    stream_id,
                    media,
                    start_block=(i * 97) % media.num_blocks,
                )
            )
            stream_id += 1

    reports = list(coordinator.run_rounds(cfg["rounds_before_kill"]))
    victim = coordinator.shard_ids[0]
    death = coordinator.kill_shard(victim)
    reports.extend(coordinator.run_rounds(cfg["rounds_after_kill"]))

    requested = sum(r.requested for r in reports)
    served = sum(r.served for r in reports)
    hiccups = sum(r.hiccups for r in reports)
    availability = served / requested if requested else 1.0

    # Degraded batched lookups take the per-object failover path.
    gids = list(coordinator.object_ids)
    start = time.perf_counter()
    coordinator.route_reads(gids)
    degraded_elapsed = time.perf_counter() - start
    return {
        "shards": cfg["serving_shards"],
        "domains": cfg["num_domains"],
        "victim": victim,
        "streams": stream_id,
        "streams_failed_over": death.streams_failed_over,
        "streams_stranded": death.streams_stranded,
        "rounds": len(reports),
        "requested": requested,
        "served": served,
        "hiccups": hiccups,
        "availability": round(availability, 6),
        "failover_reads": coordinator.failover_reads,
        "degraded_lookups_per_sec": int(len(gids) / degraded_elapsed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke run (CI)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_cluster_ha.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    cfg = dict(QUICK if args.quick else FULL)

    lookup = run_lookup_overhead(cfg)
    print(
        f"lookup    : baseline "
        f"{lookup['baseline']['lookups_per_sec']:,}/s, R=2 "
        f"{lookup['replicated']['lookups_per_sec']:,}/s "
        f"(overhead {lookup['overhead']:+.2%}, "
        f"cap {cfg['max_failover_overhead']:.0%})"
    )

    death = run_shard_death(cfg)
    print(
        f"death     : shard {death['victim']} died with "
        f"{death['streams_failed_over']} streams failed over "
        f"({death['streams_stranded']} stranded); availability "
        f"{death['availability']:.4f} over {death['rounds']} rounds "
        f"(floor {cfg['min_availability']:.2f})"
    )
    print(
        f"degraded  : {death['degraded_lookups_per_sec']:,} lookups/s "
        f"through per-object failover routing "
        f"({death['failover_reads']} failover reads total)"
    )

    payload = {
        "benchmark": "bench_cluster_ha",
        "environment": environment(),
        "quick": args.quick,
        "config": cfg,
        "lookup": lookup,
        "shard_death": death,
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    assert lookup["overhead"] <= cfg["max_failover_overhead"], (
        f"R=2 lookup overhead {lookup['overhead']:.2%} above the "
        f"{cfg['max_failover_overhead']:.0%} cap"
    )
    assert death["availability"] >= cfg["min_availability"], (
        f"availability {death['availability']:.4f} during single-shard "
        f"death below the {cfg['min_availability']:.2f} floor"
    )
    assert death["streams_stranded"] == 0, (
        f"{death['streams_stranded']} streams stranded at R=2 across "
        f"{cfg['num_domains']} domains — replica placement is broken"
    )
    print("all HA floors cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
