"""No-op observability overhead on the engine hot path (standalone).

The observability layer (:mod:`repro.obs`) defaults every instrumented
component to the :data:`~repro.obs.NULL_OBS` singleton — a handle whose
every method is a constant-time no-op.  This benchmark enforces the
contract that makes that default acceptable: running the instrumented
:meth:`~repro.core.engine.PlacementEngine.locate_batch` hot path with
``NULL_OBS`` attached must cost **under 3%** over the same path timed
around the instrumentation points (a pre-instrumentation proxy built by
timing the batch body with a live engine whose obs calls are already
guarded out).

Concretely, two timings over the same population and operation log:

* **baseline** — ``locate_batch`` with the counter guard short-circuited
  (``obs.enabled`` is ``False`` and the guard is the only added work);
* **live obs** — the same call with a real :class:`~repro.obs.Obs`
  attached (reported for scale, not asserted).

Results are persisted to ``BENCH_obs.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]
        [--blocks N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engine import PlacementEngine
from repro.core.operations import ScalingOp
from repro.core.scaddar import ScaddarMapper
from repro.obs import NULL_OBS, Obs
from repro.workloads.generator import random_x0s

from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent
N0 = 4
BITS = 64
#: The acceptance bar: NULL_OBS instrumentation must stay under this.
MAX_OVERHEAD = 0.03


def build_engine(j: int) -> PlacementEngine:
    mapper = ScaddarMapper(n0=N0, bits=BITS)
    for i in range(j):
        mapper.apply(ScalingOp.add(1 + i % 2))
    return PlacementEngine(mapper.log)


def best_of_interleaved(fns: list, repeat: int) -> list[float]:
    """Best-of-``repeat`` wall time per function, round-robin.

    Interleaving the variants inside each repetition (instead of timing
    each one back to back) cancels the slow thermal / frequency drift
    that otherwise dominates sub-5% comparisons on shared hardware.
    """
    best = [float("inf")] * len(fns)
    for __ in range(repeat):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


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
        default=REPO_ROOT / "BENCH_obs.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    blocks = args.blocks or (50_000 if args.quick else 200_000)
    repeat = 15 if args.quick else 31
    j = 16
    x0s = random_x0s(blocks, bits=BITS, seed=0x0B5)

    # Baseline: instrumented code path, NULL_OBS attached (the default) —
    # the `obs.enabled` guard is the only work the layer adds.
    null_engine = build_engine(j)
    null_engine.attach_obs(NULL_OBS)
    null_engine.locate_batch(x0s)  # warm the epoch cache

    # Live obs: same path with a real registry receiving the counters.
    live_engine = build_engine(j)
    live_engine.attach_obs(Obs())
    live_engine.locate_batch(x0s)

    # Reference: the same chain with sync() — where the obs guard and
    # counters live — bypassed entirely (cache already warm, so sync()
    # is pure instrumentation on this path).  The overhead assertion
    # compares NULL_OBS against this floor.
    raw_engine = build_engine(j)
    raw_engine.locate_batch(x0s)  # warm the epoch cache

    def raw_locate() -> None:
        x = raw_engine._chain_scratch(x0s, stop=raw_engine.epoch)
        (x % np.uint64(raw_engine.log.current_disks)).astype(np.int64)

    raw_t, null_t, live_t = best_of_interleaved(
        [
            raw_locate,
            lambda: null_engine.locate_batch(x0s),
            lambda: live_engine.locate_batch(x0s),
        ],
        repeat,
    )

    null_overhead = null_t / raw_t - 1.0
    live_overhead = live_t / raw_t - 1.0
    print(f"blocks={blocks} j={j} repeat={repeat}")
    print(f"raw kernel        : {blocks / raw_t:>12.0f} blocks/s")
    print(
        f"engine + NULL_OBS : {blocks / null_t:>12.0f} blocks/s "
        f"({null_overhead:+.2%} vs raw)"
    )
    print(
        f"engine + live Obs : {blocks / live_t:>12.0f} blocks/s "
        f"({live_overhead:+.2%} vs raw)"
    )

    payload = {
        "benchmark": "bench_obs_overhead",
        "environment": environment(),
        "quick": args.quick,
        "blocks": blocks,
        "j": j,
        "raw_blocks_per_sec": round(blocks / raw_t),
        "null_obs_blocks_per_sec": round(blocks / null_t),
        "live_obs_blocks_per_sec": round(blocks / live_t),
        "null_obs_overhead": round(null_overhead, 4),
        "live_obs_overhead": round(live_overhead, 4),
        "max_allowed_overhead": MAX_OVERHEAD,
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    assert null_overhead < MAX_OVERHEAD, (
        f"NULL_OBS instrumentation costs {null_overhead:.2%} on the "
        f"locate hot path (limit {MAX_OVERHEAD:.0%})"
    )
    print(
        f"no-op observability overhead {null_overhead:.2%} "
        f"< {MAX_OVERHEAD:.0%} limit"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
