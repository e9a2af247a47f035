"""Popularity-aware replication: flash-crowd payoff and tracking cost.

Two sections, each with hard floors, persisted to
``BENCH_popularity.json`` at the repo root:

* **flash crowd** — the :mod:`repro.experiments.flash_crowd` comparison
  at benchmark sizing: at the *same total storage budget*, the adaptive
  cluster must serve its top-decile (hot) objects at availability
  **1.0** through a shard death while the uniform-R baseline degrades;
  both runs must end fsck-clean, the adaptive cluster must respect its
  copy budget, and same-seed runs must be bit-identical.
* **tracking overhead** — batched ``route_reads`` throughput on an
  all-healthy cluster with a policy attached (demand queued per
  batch) versus without, the two clusters timed in alternating
  passes; the queued demand feed must stay within
  ``max_tracking_overhead`` of the untracked hot path, read from the
  median pair of passes.  The timed
  passes never fold the queue (they stay under ``PENDING_CAP``), so
  the fold has its own, unfloored numbers (``tracking.fold``): the
  milliseconds one fold of a pass's units takes, and the overhead with
  one fold per pass, as serving folds once per round.

Usage::

    PYTHONPATH=src python benchmarks/bench_popularity.py [--quick]
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
from repro.cluster.popularity import ReplicationPolicy
from repro.experiments.flash_crowd import run_flash_crowd
from repro.storage.disk import DiskSpec

from bench_cluster_ha import measure_interleaved
from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 0xF1A5

#: Full sizing: the experiment's default shape plus a lookup population
#: large enough to drown timer noise.
FULL = {
    "num_shards": 6,
    "num_objects": 20,
    "blocks_per_object": 80,
    "base_streams": 48,
    "flash_streams": 16,
    "warm_rounds": 10,
    "flash_rounds": 12,
    "post_rounds": 8,
    "lookup_shards": 8,
    "lookup_objects": 50_000,
    "lookup_repeats": 20,
    "min_hot_availability": 1.0,
    "max_tracking_overhead": 0.35,
}

#: CI smoke sizing: same shape, seconds not minutes.
QUICK = {
    "num_shards": 6,
    "num_objects": 10,
    "blocks_per_object": 40,
    "base_streams": 24,
    "flash_streams": 8,
    "warm_rounds": 6,
    "flash_rounds": 8,
    "post_rounds": 5,
    "lookup_shards": 4,
    "lookup_objects": 10_000,
    "lookup_repeats": 10,
    "min_hot_availability": 1.0,
    "max_tracking_overhead": 0.35,
}


def run_flash_crowd_section(cfg: dict) -> dict:
    """The uniform-vs-adaptive comparison at benchmark sizing."""
    uniform, adaptive = run_flash_crowd(
        num_shards=cfg["num_shards"],
        num_objects=cfg["num_objects"],
        blocks_per_object=cfg["blocks_per_object"],
        base_streams=cfg["base_streams"],
        flash_streams=cfg["flash_streams"],
        warm_rounds=cfg["warm_rounds"],
        flash_rounds=cfg["flash_rounds"],
        post_rounds=cfg["post_rounds"],
        seed=SEED,
    )

    def row(result) -> dict:
        return {
            "variant": result.variant,
            "copy_budget": result.copy_budget,
            "copies_at_death": result.copies_at_death,
            "streams": result.streams,
            "streams_stranded": result.streams_stranded,
            "hot_objects": list(result.hot_objects),
            "hot_availability": round(result.hot_availability, 6),
            "cold_availability": round(result.cold_availability, 6),
            "overall_availability": round(result.overall_availability, 6),
            "fsck_clean": result.fsck_clean,
            "deterministic": result.deterministic,
        }

    return {"uniform": row(uniform), "adaptive": row(adaptive)}


def _build_lookup_cluster(
    cfg: dict, policy: ReplicationPolicy | None
) -> ClusterCoordinator:
    """A cluster populated with one-block objects, for routing only."""
    spec = DiskSpec(capacity_blocks=200_000, bandwidth_blocks_per_round=400)
    coordinator = ClusterCoordinator.create(
        cfg["lookup_shards"],
        2,
        spec,
        bits=32,
        router_backend="consistent_hash",
        master_seed=SEED,
        replication_factor=1,
        replication_policy=policy,
    )
    for i in range(cfg["lookup_objects"]):
        coordinator.add_object(f"clip-{i}", 1, 1)
    return coordinator


def _measure_folded_rate(coordinator: ClusterCoordinator, repeats: int) -> int:
    """Best-of-three batched route_reads rate over the whole namespace,
    each pass followed by one tracker fold."""
    gids = list(coordinator.object_ids)
    tracker = coordinator.replication.tracker
    coordinator.route_reads(gids[:256])  # warm-up
    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            coordinator.route_reads(gids)
            tracker.advance_to(tracker.round_index + 1)
        elapsed = time.perf_counter() - start
        best = max(best, repeats * len(gids) / elapsed)
    return int(best)


def _measure_fold_ms(coordinator: ClusterCoordinator, repeats: int) -> float:
    """Median milliseconds of one fold of a whole-namespace pass."""
    gids = list(coordinator.object_ids)
    tracker = coordinator.replication.tracker
    times = []
    for _ in range(repeats):
        coordinator.route_reads(gids)
        start = time.perf_counter()
        tracker.advance_to(tracker.round_index + 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run_tracking_overhead(cfg: dict) -> dict:
    """Hot-path lookup throughput, untracked vs demand-tracked.

    The two clusters take turns, ``lookup_repeats`` passes each with the
    order alternating (:func:`bench_cluster_ha.measure_interleaved`);
    each side's rate is its median pass, and the gated overhead is the
    median of the adjacent pairs' time ratios, so a slow moment of the
    machine lands on one pair, not on one side."""
    policy = ReplicationPolicy(cfg["lookup_objects"] + 64)
    sides = [_build_lookup_cluster(cfg, None), _build_lookup_cluster(cfg, policy)]
    repeats = cfg["lookup_repeats"]
    seconds = measure_interleaved(sides, repeats)
    baseline, tracked = (
        int(cfg["lookup_objects"] / statistics.median(passes))
        for passes in seconds
    )
    overhead = 1.0 - statistics.median(b / t for b, t in zip(*seconds))
    tracked_cluster = sides[1]
    folded = _measure_folded_rate(tracked_cluster, repeats)
    return {
        "objects": cfg["lookup_objects"],
        "repeats": repeats,
        "baseline_lookups_per_sec": baseline,
        "tracked_lookups_per_sec": tracked,
        "overhead": round(overhead, 4),
        "fold": {
            "ms_per_fold": round(_measure_fold_ms(tracked_cluster, repeats), 3),
            "folded_lookups_per_sec": folded,
            "overhead_with_fold": round(1.0 - folded / baseline, 4),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke run (CI)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_popularity.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    cfg = dict(QUICK if args.quick else FULL)

    crowd = run_flash_crowd_section(cfg)
    uniform, adaptive = crowd["uniform"], crowd["adaptive"]
    print(
        f"flash-crowd: budget {adaptive['copy_budget']} copies — hot "
        f"availability uniform {uniform['hot_availability']:.4f} vs "
        f"adaptive {adaptive['hot_availability']:.4f} "
        f"(floor {cfg['min_hot_availability']:.2f}); stranded "
        f"{uniform['streams_stranded']} vs "
        f"{adaptive['streams_stranded']} streams"
    )

    overhead = run_tracking_overhead(cfg)
    fold = overhead["fold"]
    print(
        f"tracking   : untracked {overhead['baseline_lookups_per_sec']:,}/s, "
        f"tracked {overhead['tracked_lookups_per_sec']:,}/s "
        f"(overhead {overhead['overhead']:+.2%} without the fold, "
        f"cap {cfg['max_tracking_overhead']:.0%}); one fold per pass "
        f"{fold['folded_lookups_per_sec']:,}/s "
        f"(overhead {fold['overhead_with_fold']:+.2%}, no cap), "
        f"{fold['ms_per_fold']:.2f} ms per fold"
    )

    payload = {
        "benchmark": "bench_popularity",
        "environment": environment(),
        "quick": args.quick,
        "config": cfg,
        "flash_crowd": crowd,
        "tracking": overhead,
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    assert adaptive["hot_availability"] >= cfg["min_hot_availability"], (
        f"adaptive hot availability {adaptive['hot_availability']:.4f} "
        f"below the {cfg['min_hot_availability']:.2f} floor"
    )
    assert (
        adaptive["hot_availability"] >= uniform["hot_availability"]
    ), "adaptive hot availability fell below the uniform baseline"
    assert adaptive["copies_at_death"] <= adaptive["copy_budget"], (
        f"{adaptive['copies_at_death']} copies exceed the "
        f"{adaptive['copy_budget']}-copy budget"
    )
    assert uniform["fsck_clean"] and adaptive["fsck_clean"], (
        "cluster fsck found replication breaches after the shard death"
    )
    assert adaptive["deterministic"], (
        "same-seed adaptive runs diverged (layout/targets/tracker digest)"
    )
    assert overhead["overhead"] <= cfg["max_tracking_overhead"], (
        f"demand tracking overhead {overhead['overhead']:.2%} above the "
        f"{cfg['max_tracking_overhead']:.0%} cap"
    )
    print("all popularity floors cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
