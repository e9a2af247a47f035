"""Degraded-mode availability under disk death (standalone).

Runs the :mod:`~repro.experiments.availability` sweep — mirror vs XOR
parity, across read-fault rates, with one disk killed mid-playback in
every cell — prints the availability table, and enforces the headline
robustness claim as hard assertions:

* **zero hiccups attributable to the killed disk** (every read it owed
  was served by failover or reconstruction),
* the scrubber returned the replacement disk to ``healthy``,
* the whole sweep is **bit-reproducible** from its seed (run twice,
  compare results exactly).

Results are persisted to ``BENCH_availability.json`` at the repo root so
the availability trajectory is recorded PR over PR.  ``--trace FILE``
attaches a live :class:`~repro.obs.Obs` handle and writes the run's
structured event log as JSON lines — the artifact CI uploads.

The payload also carries a **throughput phase**: degraded-path serving
speed (scalar vs vectorized round loop, all disks healthy) on a small
probe workload, so the availability record tracks not just *whether*
degraded mode survives faults but *how fast* it serves.  The speedup
floors themselves are enforced by ``bench_serving.py``; here the
numbers are recorded, not asserted.

Usage::

    PYTHONPATH=src python benchmarks/bench_availability.py [--quick]
        [--seed N] [--output PATH] [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.experiments.availability import report, run_availability

from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Throughput-phase probe: small enough to add seconds, big enough for
#: the per-round numpy overhead to amortize (see bench_serving.py for
#: the full-size, floor-gated measurement).
THROUGHPUT_PROBE = {
    "streams": 1_000,
    "disks": 8,
    "bandwidth": 1_300,
    "objects": 8,
    "blocks_per_object": 400,
    "rate": 8,
    "window_s": 0.25,
}

#: Reduced sweep for CI smoke runs (matches the CLI's --quick cell).
QUICK = {
    "num_objects": 3,
    "blocks_per_object": 120,
    "rounds": 90,
    "kill_round": 20,
    "replace_round": 45,
    "read_fault_rates": (0.0, 0.05),
    "scrub_rate": 16,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke run (CI)"
    )
    parser.add_argument(
        "--seed",
        type=lambda text: int(text, 0),
        default=0xA7A11,
        help="master seed; the whole sweep is reproducible from it",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_availability.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the run's structured event log as JSON lines",
    )
    args = parser.parse_args(argv)

    kwargs = dict(QUICK) if args.quick else {}
    kwargs["seed"] = args.seed
    obs = None
    if args.trace is not None:
        from repro.obs import Obs

        obs = Obs()
        kwargs["obs"] = obs
    results = run_availability(**kwargs)
    print(report(results))
    if obs is not None and args.trace is not None:
        obs.write_events(args.trace)
        print(f"wrote {obs.log.total_emitted} events to {args.trace}")

    kwargs.pop("obs", None)
    again = run_availability(**kwargs)
    reproducible = results == again
    print(f"\nbit-reproducible from seed {args.seed:#x}: {reproducible}")

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_serving import run_degraded

    throughput = {
        "config": THROUGHPUT_PROBE,
        "degraded_scalar": run_degraded(THROUGHPUT_PROBE, vectorized=False),
        "degraded_vectorized": run_degraded(THROUGHPUT_PROBE, vectorized=True),
    }
    throughput["speedup"] = round(
        throughput["degraded_vectorized"]["reads_per_sec"]
        / throughput["degraded_scalar"]["reads_per_sec"],
        2,
    )
    print(
        f"degraded serving throughput: "
        f"{throughput['degraded_scalar']['reads_per_sec']:,} reads/s scalar, "
        f"{throughput['degraded_vectorized']['reads_per_sec']:,} reads/s "
        f"vectorized ({throughput['speedup']}x)"
    )

    payload = {
        "benchmark": "bench_availability",
        "environment": environment(),
        "quick": args.quick,
        "seed": args.seed,
        "reproducible": reproducible,
        "throughput": throughput,
        "results": [
            {
                **asdict(r),
                "availability": r.availability,
                "hiccup_rate": r.hiccup_rate,
                "survived": r.survived,
            }
            for r in results
        ],
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    assert reproducible, "sweep is not bit-reproducible from its seed"
    for r in results:
        assert r.dead_disk_hiccups == 0, (
            f"{r.scheme}@{r.read_fault_rate}: disk death leaked "
            f"{r.dead_disk_hiccups} hiccups"
        )
        assert r.victim_final_state == "healthy", (
            f"{r.scheme}@{r.read_fault_rate}: replacement disk ended "
            f"{r.victim_final_state}, not healthy"
        )
    print("all cells survived the disk death with zero attributable hiccups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
