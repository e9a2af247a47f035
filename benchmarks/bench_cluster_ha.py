"""Cluster fault tolerance: failover overhead and availability floors.

Two sections, each with a hard floor, persisted to
``BENCH_cluster_ha.json`` at the repo root:

* **lookup overhead** — batched ``route_reads`` throughput over the same
  object population at R=1 (the routed-lookup baseline shape) and at
  R=2 with the full failover machinery armed; the replicated rate must
  stay within ``max_failover_overhead`` of the baseline.  The two sides
  take turns, one pass each, the order alternating, and the overhead
  is read from the median of the adjacent pairs' rate ratios, so a
  shift in the machine's speed lands on both sides of a pair.
  The all-healthy hot path gates straight to the vectorized router
  lookup, so replication must cost (next to) nothing until something
  breaks.
* **shard death availability** — a replicated cluster serving live
  streams (admitted through ``admit_stream``) loses one shard
  mid-serving; its streams fail over to replica copies and aggregate
  availability (served/requested across every round, death round
  included) must hold ``min_availability``.  ``kill_shard``'s wall
  time and the viewers it moved are recorded.  The degraded
  batched-lookup rate (slow path: per-object retry/failover routing)
  is reported alongside for scale, without a floor — it is the price
  of a dead shard, not the steady state.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_ha.py [--quick]
        [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.cluster.coordinator import ClusterCoordinator
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


def measure_interleaved(
    sides: list[ClusterCoordinator], passes: int
) -> list[list[float]]:
    """Seconds of each batched route_reads pass over a side's whole
    namespace, ``passes`` per side, the sides taking turns (the order
    alternating) so all see the same machine load."""
    namespaces = [list(coordinator.object_ids) for coordinator in sides]
    for coordinator, gids in zip(sides, namespaces):
        coordinator.route_reads(gids[:256])  # warm-up
    seconds: list[list[float]] = [[] for _ in sides]
    for k in range(passes):
        order = range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))
        for i in order:
            start = time.perf_counter()
            sides[i].route_reads(namespaces[i])
            seconds[i].append(time.perf_counter() - start)
    return seconds


def run_lookup_overhead(cfg: dict) -> dict:
    """R=1 vs R=2 batched-lookup throughput on all-healthy clusters."""
    sides = [
        _build_lookup_cluster(cfg, replication_factor=1),
        _build_lookup_cluster(cfg, replication_factor=2),
    ]
    seconds = measure_interleaved(sides, cfg["lookup_repeats"])
    # Each side's rate at its median pass, for the record; the overhead
    # is the median of the adjacent pairs' rate ratios, so a slow moment
    # lands on one pair, not on one side.
    baseline, replicated = (
        {
            "objects": coordinator.num_objects,
            "repeats": len(passes),
            "lookups_per_sec": int(
                coordinator.num_objects / statistics.median(passes)
            ),
        }
        for coordinator, passes in zip(sides, seconds)
    )
    overhead = 1.0 - statistics.median(b / r for b, r in zip(*seconds))
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
    # Admit streams through the coordinator (a healthy cluster serves
    # each at its object's home shard), spread so every shard is
    # serving when the victim dies.
    by_shard: dict[int, list[int]] = {
        sid: [] for sid in coordinator.shard_ids
    }
    for gid in coordinator.object_ids:
        by_shard[coordinator.shard_of(gid)].append(gid)
    stream_id = 0
    for sid, gids in sorted(by_shard.items()):
        for i in range(cfg["streams_per_shard"] if gids else 0):
            coordinator.admit_stream(
                stream_id,
                gids[i % len(gids)],
                start_block=(i * 97) % cfg["blocks_per_object"],
            )
            stream_id += 1

    reports = list(coordinator.run_rounds(cfg["rounds_before_kill"]))
    victim = coordinator.shard_ids[0]
    start = time.perf_counter()
    death = coordinator.kill_shard(victim)
    kill_s = time.perf_counter() - start
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
        "streams_finished": death.streams_finished,
        "streams_dropped": death.streams_dropped,
        "kill_ms": round(kill_s * 1e3, 3),
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
        f"({death['streams_stranded']} stranded, "
        f"{death['streams_finished']} finished, "
        f"{death['streams_dropped']} dropped) in "
        f"{death['kill_ms']:.2f} ms; availability "
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
