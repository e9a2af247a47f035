"""Serving hot-path throughput: scalar vs vectorized round loop.

The round scheduler has two implementations of each serving path — the
scalar reference loop (the semantic oracle) and the batched numpy
planner (:mod:`repro.server.scheduler`, bit-identical by the parity
suite in ``tests/test_scheduler_parity.py``).  This benchmark measures
both on a full-size workload and enforces the speedup floors that make
the vectorized path worth its complexity:

* **simple path** (bandwidth-capped serving, backend batch locator):
  vectorized must clear ``MIN_SIMPLE_SPEEDUP`` over scalar;
* **degraded path** (failover planner attached, all disks healthy, no
  injector — the vectorized fast lane): vectorized must clear
  ``MIN_DEGRADED_SPEEDUP`` over scalar.

The simple path is also timed with the inventory (sequential) batch
locator, reported for scale: it shows how much of the win comes from
the batched serve arithmetic alone versus the backend locate kernel.

Every variant gets a fresh server and fresh identical streams, so no
state leaks between timings.  One warm-up round runs untimed per
variant (it also primes the backend locator's per-object X0 caches).
Only the ``run_round`` calls are timed: a stream that finishes restarts
from block 0 between rounds, so every timed round serves the whole
stream population.

Each scalar variant and its vectorized counterpart take turns, ``PASSES``
passes each with the order alternating, so both see the same machine
load: a pass is whole rounds until ``window_s / PASSES`` of round time
has passed (at least one, so a scalar pass is one round).  The speedup
is the median of the adjacent pairs' rate ratios, as in
``bench_cluster_ha.py``: a slow moment lands on one pair, not on one
variant.  The inventory-locator variant, which has no floor, is timed
alone over ``window_s``.

An AO1 row times the simple vectorized path on servers that have run
``j`` scaling operations, ``j`` in :data:`AO1_OPERATIONS`, the servers
taking turns the same way.  The batch locator locates once per
placement change, so the steady-round rate should not fall with ``j``
although the REMAP chain behind each home grows; the row has no floor.

Results are persisted to ``BENCH_serving.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]
        [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.core.operations import ScalingOp
from repro.server.cmserver import CMServer
from repro.server.reads import build_degraded_stack
from repro.server.scheduler import RoundScheduler
from repro.server.streams import Stream, StreamState
from repro.storage.disk import DiskSpec
from repro.workloads.generator import uniform_catalog

from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 0xBE9C
BITS = 64
#: Timed passes per variant of a scalar/vectorized pair.
PASSES = 5
#: Scaling operations run before the AO1 row's rounds (``j``).
AO1_OPERATIONS = (0, 4, 8)

#: Full-size workload: 10k concurrent streams over 16 disks, 8 blocks
#: per stream per round (80k reads/round, within per-disk bandwidth).
FULL = {
    "streams": 10_000,
    "disks": 16,
    "bandwidth": 6_400,
    "objects": 64,
    "blocks_per_object": 2_000,
    "rate": 8,
    "window_s": 0.25,
    "min_simple_speedup": 10.0,
    "min_degraded_speedup": 5.0,
}

#: CI smoke sizing: same shape, small enough to finish in seconds.  The
#: floors are lower because the fixed numpy overhead per round is a
#: larger share of a small batch.
QUICK = {
    "streams": 2_000,
    "disks": 8,
    "bandwidth": 2_600,
    "objects": 16,
    "blocks_per_object": 500,
    "rate": 8,
    "window_s": 0.25,
    "min_simple_speedup": 3.0,
    "min_degraded_speedup": 2.0,
}


def build_server(cfg: dict) -> CMServer:
    catalog = uniform_catalog(
        cfg["objects"],
        cfg["blocks_per_object"],
        master_seed=SEED,
        bits=BITS,
    )
    specs = [
        DiskSpec(
            capacity_blocks=cfg["objects"] * cfg["blocks_per_object"],
            bandwidth_blocks_per_round=cfg["bandwidth"],
        )
    ] * cfg["disks"]
    return CMServer(catalog, specs, bits=BITS, backend="scaddar")


def admit_streams(scheduler: RoundScheduler, server: CMServer, cfg: dict) -> None:
    """Identical stream population for every variant: round-robin over
    the catalog, staggered start positions, fixed per-stream rate."""
    window = cfg["blocks_per_object"] // 2
    for sid in range(cfg["streams"]):
        media = server.catalog.get(sid % cfg["objects"])
        scheduler.admit(
            Stream(
                sid,
                replace(media, blocks_per_round=cfg["rate"]),
                start_block=(sid * 37) % window,
            )
        )


def timed_rounds(scheduler: RoundScheduler, window_s: float) -> dict:
    """Whole rounds until ``window_s`` of round time has passed, at
    least one.  Finished streams restart from block 0 between rounds,
    outside the timed calls."""
    streams = scheduler.streams
    counts = {"rounds": 0, "requested": 0, "served": 0, "hiccups": 0}
    seconds = 0.0
    while counts["rounds"] == 0 or seconds < window_s:
        for stream in streams:
            if stream.state is StreamState.DONE:
                stream.seek(0)
        start = time.perf_counter()
        report = scheduler.run_round()
        seconds += time.perf_counter() - start
        counts["rounds"] += 1
        counts["requested"] += report.requested
        counts["served"] += report.served
        counts["hiccups"] += report.hiccups
    counts["seconds"] = seconds
    return counts


def summarize(passes: list[dict]) -> dict:
    """One variant's totals over its timed passes."""
    total = {
        key: sum(p[key] for p in passes)
        for key in ("rounds", "requested", "served", "hiccups", "seconds")
    }
    total["reads_per_sec"] = round(total["requested"] / total["seconds"])
    total["seconds"] = round(total["seconds"], 4)
    return total


def measure(scheduler: RoundScheduler, window_s: float) -> dict:
    """Reads/sec over whole rounds until ``window_s`` of round time has
    passed, at least one (after one untimed warm-up round)."""
    scheduler.run_round()
    return summarize([timed_rounds(scheduler, window_s)])


def measure_turns(sides: list[RoundScheduler], cfg: dict) -> list[list[dict]]:
    """The variants take turns, :data:`PASSES` passes each with the
    order reversing every turn (after one untimed warm-up round each);
    returns each one's passes."""
    for scheduler in sides:
        scheduler.run_round()  # warm-up
    passes: list[list[dict]] = [[] for __ in sides]
    for k in range(PASSES):
        order = range(len(sides))
        for i in order if k % 2 == 0 else reversed(order):
            passes[i].append(timed_rounds(sides[i], cfg["window_s"] / PASSES))
    return passes


def rate(timed: dict) -> float:
    return timed["requested"] / timed["seconds"]


def measure_pair(
    scalar: RoundScheduler, vectorized: RoundScheduler, cfg: dict
) -> tuple[dict, dict, float]:
    """The two variants take turns (:func:`measure_turns`); returns
    each one's totals and the median of the adjacent pairs' rate ratios
    (vectorized over scalar)."""
    passes = measure_turns([scalar, vectorized], cfg)
    speedup = statistics.median(rate(v) / rate(s) for s, v in zip(*passes))
    return summarize(passes[0]), summarize(passes[1]), speedup


def run_ao1(cfg: dict) -> dict:
    """The simple vectorized path on servers that have run
    :data:`AO1_OPERATIONS` scaling operations, timed in turns: the
    steady-round rate per operation count, and the median pair ratio of
    the most-scaled server's rate to the unscaled one's.  AO1's REMAP
    chain grows with the log; a round that only gathers located homes
    should not."""
    sides = [
        simple_scheduler(cfg, vectorized=True, locator="backend", operations=j)
        for j in AO1_OPERATIONS
    ]
    passes = measure_turns(sides, cfg)
    return {
        "operations": list(AO1_OPERATIONS),
        "reads_per_sec": [summarize(p)["reads_per_sec"] for p in passes],
        "ratio_most_to_none": round(
            statistics.median(
                rate(last) / rate(first)
                for first, last in zip(passes[0], passes[-1])
            ),
            3,
        ),
    }


def simple_scheduler(
    cfg: dict, vectorized: bool, locator: str, operations: int = 0
) -> RoundScheduler:
    """A scheduler on a fresh server that has first run ``operations``
    scaling operations (a disk added and disk 0 removed, in turn)."""
    server = build_server(cfg)
    for k in range(operations):
        server.scale(ScalingOp.add(1) if k % 2 == 0 else ScalingOp.remove([0]))
    kwargs = {}
    if locator == "backend":
        kwargs = {
            "locator": server.computed_locator(),
            "batch_locator": server.computed_batch_locator(),
        }
    scheduler = RoundScheduler(server.array, vectorized=vectorized, **kwargs)
    admit_streams(scheduler, server, cfg)
    return scheduler


def degraded_stack(cfg: dict, vectorized: bool):
    server = build_server(cfg)
    stack = build_degraded_stack(
        server,
        protection="mirror",
        vectorized=vectorized,
        locator="backend",
    )
    admit_streams(stack.scheduler, server, cfg)
    return stack


def run_degraded(cfg: dict, vectorized: bool) -> dict:
    """One degraded-path variant timed alone over ``cfg["window_s"]``."""
    stack = degraded_stack(cfg, vectorized)
    result = measure(stack.scheduler, cfg["window_s"])
    result["failovers"] = stack.planner.stats.failover_reads
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke run (CI)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_serving.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    cfg = QUICK if args.quick else FULL

    print(
        f"streams={cfg['streams']} disks={cfg['disks']} "
        f"rate={cfg['rate']} window={cfg['window_s']}s "
        f"({cfg['streams'] * cfg['rate']} reads/round)"
    )

    simple_scalar, simple_vectorized, simple_speedup = measure_pair(
        simple_scheduler(cfg, vectorized=False, locator="backend"),
        simple_scheduler(cfg, vectorized=True, locator="backend"),
        cfg,
    )
    stacks = [degraded_stack(cfg, vectorized) for vectorized in (False, True)]
    degraded_scalar, degraded_vectorized, degraded_speedup = measure_pair(
        stacks[0].scheduler, stacks[1].scheduler, cfg
    )
    for result, stack in zip((degraded_scalar, degraded_vectorized), stacks):
        result["failovers"] = stack.planner.stats.failover_reads
    results = {
        "simple_scalar": simple_scalar,
        "simple_vectorized_inventory": measure(
            simple_scheduler(cfg, vectorized=True, locator="inventory"),
            cfg["window_s"],
        ),
        "simple_vectorized": simple_vectorized,
        "degraded_scalar": degraded_scalar,
        "degraded_vectorized": degraded_vectorized,
    }
    for name, result in results.items():
        print(f"{name:28s}: {result['reads_per_sec']:>12,} reads/s")
    ao1 = run_ao1(cfg)
    for operations, reads in zip(ao1["operations"], ao1["reads_per_sec"]):
        print(f"{'simple_vectorized j=' + str(operations):28s}: {reads:>12,} reads/s")
    print(f"j={AO1_OPERATIONS[-1]} over j=0     : {ao1['ratio_most_to_none']:.3f}")

    print(f"simple speedup   : {simple_speedup:.1f}x "
          f"(floor {cfg['min_simple_speedup']:.0f}x)")
    print(f"degraded speedup : {degraded_speedup:.1f}x "
          f"(floor {cfg['min_degraded_speedup']:.0f}x)")

    payload = {
        "benchmark": "bench_serving",
        "environment": environment(),
        "quick": args.quick,
        "config": cfg,
        "passes": PASSES,
        "results": results,
        "ao1": ao1,
        "simple_speedup": round(simple_speedup, 2),
        "degraded_speedup": round(degraded_speedup, 2),
        "min_simple_speedup": cfg["min_simple_speedup"],
        "min_degraded_speedup": cfg["min_degraded_speedup"],
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    assert simple_speedup >= cfg["min_simple_speedup"], (
        f"vectorized simple path is only {simple_speedup:.1f}x scalar "
        f"(floor {cfg['min_simple_speedup']:.0f}x)"
    )
    assert degraded_speedup >= cfg["min_degraded_speedup"], (
        f"vectorized degraded path is only {degraded_speedup:.1f}x scalar "
        f"(floor {cfg['min_degraded_speedup']:.0f}x)"
    )
    print("all speedup floors cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
