"""Long-horizon lifecycle soak: thousands of mixed ops, every backend.

Drives the soak experiment (:mod:`repro.experiments.soak`) at full
length — at least 2,000 mixed operations (serve rounds, faulty online
scales, ingests, object removals, crash/resume cycles, reshuffles)
spread across all five registered placement backends — and enforces the
lifecycle acceptance bar:

* **zero data loss** on every backend (block conservation + clean fsck
  + per-round ``requested == served + hiccups + queued``);
* **at least two automatic budget resets** on the SCADDAR backend: the
  exhaustion watchdog must genuinely run the full-reshuffle remedy
  mid-soak, not sit idle;
* **at least 10% fault injection** on every migrated block transfer.

Results — lifetime moves, final CoV, reset counts per backend — are
persisted to ``BENCH_soak.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_soak.py [--quick]
        [--ops N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.soak import run_soak

from benchenv import environment

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Full soak: 5 backends x 500 ops = 2,500 mixed operations.
FULL = {
    "ops_per_backend": 500,
    "num_objects": 4,
    "blocks_per_object": 150,
    "bits": 16,
    "eps": 0.05,
    "fault_rate": 0.12,
    "min_total_ops": 2_000,
    "min_auto_resets": 2,
}

#: CI smoke sizing: same mix, short horizon.  The reset floor still
#: holds — bits=16 exhausts the budget within a handful of scales.
QUICK = {
    "ops_per_backend": 80,
    "num_objects": 3,
    "blocks_per_object": 60,
    "bits": 16,
    "eps": 0.05,
    "fault_rate": 0.12,
    "min_total_ops": 400,
    "min_auto_resets": 2,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke run (CI)"
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="ops-per-backend override"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_soak.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    cfg = dict(QUICK if args.quick else FULL)
    if args.ops is not None:
        cfg["ops_per_backend"] = args.ops

    start = time.perf_counter()
    results = run_soak(
        ops_per_backend=cfg["ops_per_backend"],
        num_objects=cfg["num_objects"],
        blocks_per_object=cfg["blocks_per_object"],
        bits=cfg["bits"],
        eps=cfg["eps"],
        fault_rate=cfg["fault_rate"],
    )
    seconds = time.perf_counter() - start

    total_ops = sum(r.ops for r in results)
    total_faults = sum(r.transient_faults for r in results)
    by_name = {r.backend: r for r in results}
    for r in results:
        print(
            f"{r.backend:20s} ops={r.ops} scales={r.scale_ops} "
            f"crashes={r.crash_resumes} reshuffles={r.reshuffles} "
            f"auto_resets={r.auto_resets} moves={r.lifetime_moves} "
            f"cov={r.final_cov:.4f} lost={r.blocks_lost} "
            f"survived={'yes' if r.survived else 'NO'}"
        )
    print(
        f"total: {total_ops} ops, {total_faults} injected faults, "
        f"{seconds:.1f}s"
    )

    payload = {
        "benchmark": "bench_soak",
        "environment": environment(),
        "quick": args.quick,
        "config": cfg,
        "seconds": round(seconds, 2),
        "total_ops": total_ops,
        "total_transient_faults": total_faults,
        "backends": {
            r.backend: {
                "ops": r.ops,
                "serve_rounds": r.serve_rounds,
                "scale_ops": r.scale_ops,
                "ingests": r.ingests,
                "object_removals": r.object_removals,
                "crash_resumes": r.crash_resumes,
                "reshuffles": r.reshuffles,
                "auto_resets": r.auto_resets,
                "lifetime_moves": r.lifetime_moves,
                "transient_faults": r.transient_faults,
                "hiccups": r.hiccups,
                "final_cov": round(r.final_cov, 6),
                "blocks_lost": r.blocks_lost,
                "conservation_ok": r.conservation_ok,
                "layout_clean": r.layout_clean,
            }
            for r in results
        },
    }
    args.output.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    assert total_ops >= cfg["min_total_ops"], (
        f"soak ran only {total_ops} ops (floor {cfg['min_total_ops']})"
    )
    for r in results:
        assert r.survived, (
            f"{r.backend}: lost={r.blocks_lost} "
            f"conserved={r.conservation_ok} clean={r.layout_clean}"
        )
    scaddar = by_name["scaddar"]
    assert scaddar.auto_resets >= cfg["min_auto_resets"], (
        f"watchdog auto-reset only {scaddar.auto_resets} times "
        f"(floor {cfg['min_auto_resets']}) — the budget never ran out?"
    )
    # Reallocation-free backends decay; SCADDAR's resets keep it fair.
    assert scaddar.final_cov < by_name["sequential_checking"].final_cov, (
        "SCADDAR (with resets) should end fairer than reallocation-free "
        "sequential checking"
    )
    print("all lifecycle floors cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
