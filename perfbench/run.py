"""The repository's benchmark: one seeded cluster lifecycle per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vod-zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same seed untraced and then traced, prints the
per-layer table and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); ``unknown``
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, run) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": run.rounds,
        "journal_flush": ("in-memory cluster journal" if run.journal_path is None
                          else "file-backed cluster journal, flushed per record, no fsync"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workdir: str):
    """Untraced run: every end-to-end metric."""
    from perfbench.lifecycle import Run

    run = Run(args.workload, args.seed, args.seconds, workdir)
    run.run()
    metrics = run.end_to_end(peak_rss_mb())
    return run, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def traced(args, workdir: str):
    """Untraced then traced run of one seed: every per-layer metric."""
    from perfbench.lifecycle import Run
    from perfbench.trace import SpanRecorder, instrument, layer_metrics, render

    plain = Run(args.workload, args.seed, args.seconds, workdir)
    plain.run()
    untraced_wall = plain.timed_wall_s
    del plain
    gc.collect()

    rec = SpanRecorder()
    run = Run(args.workload, args.seed, args.seconds, workdir, recorder=rec)
    with instrument(rec):
        run.run()
    metrics, table = layer_metrics(run, rec, untraced_wall)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
    rec.write_jsonl(f"{stem}.spans.jsonl")
    text = render(args.workload, table, metrics, run.timed_wall_s, untraced_wall)
    Path(f"{stem}.layers.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(f"spans: {len(rec)} written to {stem.relative_to(ROOT)}.spans.jsonl")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("vod-zipf", "shard-failure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.lifecycle import CheckFailed

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        run, metrics = (traced if args.trace else measure)(args, workdir)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, breakdown = run.accounting()
    env = environment(args, run)
    print("environment " + json.dumps(env, sort_keys=True))
    print("operations " + json.dumps(breakdown))
    print(f"checks passed: {run.checks}")
    print("repeats " + json.dumps({"setup_s": run.setup_s,
                                   "write_s": run.write_s,
                                   "recover_s": run.recover_s}))
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name:14s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
