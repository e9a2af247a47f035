"""Scalar-vs-engine throughput for the server hot paths (standalone).

Measures blocks/sec for the three batched hot paths the
:class:`~repro.core.engine.PlacementEngine` serves —

* **load**: AF() over a whole population (initial placement / lookup);
* **plan**: RF() planning for the latest scaling operation;
* **reshuffle**: fresh-log placement of the whole population —

against the scalar :class:`~repro.core.scaddar.ScaddarMapper` reference,
across operation-log depths ``j ∈ {0, 4, 16, 64}``.  The scalar side is
timed on a capped subsample (its per-block cost is what is being
measured; the cap keeps the harness fast) and both sides are reported as
blocks/sec.  Results are persisted to ``BENCH_engine.json`` at the repo
root so the perf trajectory is recorded PR over PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick]
        [--blocks N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.engine import PlacementEngine
from repro.core.operations import ScalingOp
from repro.core.scaddar import ScaddarMapper
from repro.workloads.generator import random_x0s

from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent
N0 = 4
BITS = 64


def build_mapper(j: int) -> ScaddarMapper:
    """A mapper with ``j`` operations: mostly additions, periodic removals."""
    mapper = ScaddarMapper(n0=N0, bits=BITS)
    for i in range(j):
        if i % 4 == 3 and mapper.current_disks > 2:
            op = ScalingOp.remove([mapper.current_disks - 1])
        else:
            op = ScalingOp.add(1 + i % 2)
        mapper.apply(op)
    return mapper


def timed(fn, *, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of ``fn()``."""
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_one(j: int, blocks: int, scalar_cap: int) -> list[dict]:
    mapper = build_mapper(j)
    engine = PlacementEngine(mapper.log)
    x0s = random_x0s(blocks, bits=BITS, seed=0xBE2C + j)
    sample = x0s[: min(blocks, scalar_cap)]
    rows = []

    # -- load: AF() over the population ------------------------------------
    scalar_t = timed(lambda: [mapper.disk_of(x0) for x0 in sample], repeat=1)
    engine_t = timed(lambda: engine.locate_batch(x0s))
    rows.append(row("load", j, blocks, len(sample), scalar_t, engine_t))

    # -- plan: RF() for the latest operation -------------------------------
    if j > 0:
        pairs = list(enumerate(sample))
        scalar_t = timed(lambda: mapper.redistribution_moves(pairs), repeat=1)
        engine_t = timed(lambda: engine.redistribution_moves_batch(x0s))
        rows.append(row("plan", j, blocks, len(sample), scalar_t, engine_t))

    # -- reshuffle: fresh-log placement of everything ----------------------
    fresh = mapper.reshuffled()
    fresh_engine = PlacementEngine(fresh.log)
    scalar_t = timed(lambda: [fresh.disk_of(x0) for x0 in sample], repeat=1)
    engine_t = timed(lambda: fresh_engine.locate_batch(x0s))
    rows.append(row("reshuffle", j, blocks, len(sample), scalar_t, engine_t))
    return rows


def row(
    phase: str,
    j: int,
    blocks: int,
    scalar_blocks: int,
    scalar_t: float,
    engine_t: float,
) -> dict:
    scalar_bps = scalar_blocks / scalar_t if scalar_t else float("inf")
    engine_bps = blocks / engine_t if engine_t else float("inf")
    return {
        "phase": phase,
        "j": j,
        "blocks": blocks,
        "scalar_blocks_timed": scalar_blocks,
        "scalar_blocks_per_sec": round(scalar_bps),
        "engine_blocks_per_sec": round(engine_bps),
        "speedup": round(engine_bps / scalar_bps, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke run (CI)"
    )
    parser.add_argument(
        "--blocks", type=int, default=None, help="population size override"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    if args.quick:
        blocks = args.blocks or 20_000
        js = [0, 4, 16]
        scalar_cap = 4_000
    else:
        blocks = args.blocks or 100_000
        js = [0, 4, 16, 64]
        scalar_cap = 20_000

    results: list[dict] = []
    for j in js:
        results.extend(bench_one(j, blocks, scalar_cap))

    print(f"{'phase':<10} {'j':>3} {'blocks':>9} "
          f"{'scalar b/s':>12} {'engine b/s':>12} {'speedup':>8}")
    for entry in results:
        print(
            f"{entry['phase']:<10} {entry['j']:>3} {entry['blocks']:>9} "
            f"{entry['scalar_blocks_per_sec']:>12} "
            f"{entry['engine_blocks_per_sec']:>12} "
            f"{entry['speedup']:>7}x"
        )

    payload = {
        "benchmark": "bench_engine",
        "environment": environment(),
        "quick": args.quick,
        "n0": N0,
        "bits": BITS,
        "results": results,
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {args.output}")

    hot = [
        e["speedup"]
        for e in results
        if e["phase"] in ("load", "plan") and e["j"] >= 16
    ]
    print(f"min hot-path speedup (load/plan, j >= 16): {min(hot)}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
