"""Paired A/B runs of the lifecycle benchmark: a base revision against
the working tree, on the same seeds.

A shared machine's speed can sit at one of several levels for minutes
at a time, so absolute numbers taken at different times do not compare.
Runs taken back to back share the level, so this script alternates base
(A) and head (B) in ABBA order per seed and compares each metric pair by
pair::

    python benchmarks/compare.py --base HEAD~1 --workload vod-zipf \\
        --seeds 911 912 913 914 915

The base is checked out with ``git worktree add --detach`` into a
temporary directory, removed again when the script ends.  Every run is
``perfbench/run.py --trace 0`` in its own checkout, as long as
``BENCHMARK.json``'s ``run_seconds``; its last stdout line is the
result.  For each end-to-end metric listed in ``BENCHMARK.json``
the report gives both sides' quartiles, the median of the paired ratios
(head / base), the pairs head won (direction from the metric's
``better``; ties count for neither side) and whether the two medians
differ by more than the base's interquartile range.  A run that exits
non-zero or reports ``failed > 0`` is printed and fails the comparison
(exit status 1).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: A run that has not finished by then has hung.
RUN_TIMEOUT_S = 900


@dataclass(frozen=True)
class Summary:
    """One metric over the paired runs of one workload."""

    name: str
    better: str
    base: tuple[float, float, float]  # quartiles: q1, median, q3
    head: tuple[float, float, float]
    ratio: float  # median of head / base over the pairs
    wins: int  # pairs where head is better
    pairs: int
    beyond_iqr: bool  # |median difference| > base's q3 - q1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def ratio(head: float, base: float) -> float:
    if base == 0:
        return 1.0 if head == 0 else float("inf")
    return head / base


def summarize(
    name: str, better: str, base: list[float], head: list[float]
) -> Summary:
    """Compare ``head[i]`` against ``base[i]``, pair by pair."""
    if len(base) != len(head) or not base:
        raise ValueError("need one base and one head value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1 if better == "higher" else -1
    base_q, head_q = quartiles(base), quartiles(head)
    return Summary(
        name=name,
        better=better,
        base=base_q,
        head=head_q,
        ratio=float(np.median([ratio(h, b) for b, h in zip(base, head)])),
        wins=sum(sign * (h - b) > 0 for b, h in zip(base, head)),
        pairs=len(base),
        beyond_iqr=abs(head_q[1] - base_q[1]) > base_q[2] - base_q[0],
    )


def render(workload: str, summaries: list[Summary]) -> str:
    lines = [
        f"{workload}: head / base over {summaries[0].pairs} pairs",
        f"{'metric':14s} {'base q1 / median / q3':>32s} "
        f"{'head q1 / median / q3':>32s} {'ratio':>7s} {'wins':>6s} "
        f"{'>IQR':>5s}",
    ]
    for s in summaries:
        lines.append(
            f"{s.name:14s} "
            + " ".join(f"{v:10.4g}" for v in s.base + s.head)
            + f" {s.ratio:7.3f} {s.wins:>3d}/{s.pairs:<2d} "
            + f"{'yes' if s.beyond_iqr else 'no':>5s}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Run:
    metrics: dict[str, float]
    operations: str  # the run's ``operations`` line (counts per kind)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Run | str:
    """One untraced benchmark run, or why it failed (``run.py`` puts
    its own checkout's ``src`` first on the import path)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=checkout, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"no result within {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(lines[-1])
    if result["failed"] > 0:
        return f"failed {result['failed']} of {result['attempted']} operations"
    operations = next(
        (line for line in lines if line.startswith("operations ")), ""
    )
    metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
    return Run(metrics, operations)


def compare(args) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in contract["end_to_end"]]
    seconds = contract["run_seconds"]
    workload = args.workload
    tmp = tempfile.mkdtemp(prefix="compare-")
    base_dir = Path(tmp) / "base"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(base_dir), args.base],
        cwd=ROOT, check=True, capture_output=True,
    )
    ok = True
    try:
        checkouts = {"A": base_dir, "B": ROOT}
        pairs: list[tuple[Run, Run]] = []
        for seed in args.seeds:
            runs: list[Run | str] = []
            for side in "ABBA":
                run = run_once(checkouts[side], workload, seed, seconds)
                label = "base" if side == "A" else "head"
                if isinstance(run, str):
                    print(f"{workload} seed {seed} {label}: FAILED, {run}")
                    ok = False
                else:
                    print(
                        f"{workload} seed {seed} {label}: "
                        + ", ".join(
                            f"{name}={run.metrics[name]:.4g}"
                            for name, __ in metrics
                        ),
                        flush=True,
                    )
                runs.append(run)
            # Adjacent runs pair up: (A, B) then (B, A).
            for base, head in ((runs[0], runs[1]), (runs[3], runs[2])):
                if isinstance(base, Run) and isinstance(head, Run):
                    pairs.append((base, head))
        if not pairs:
            print(f"{workload}: no complete pair")
            return 1
        print(render(workload, [
            summarize(
                name, better,
                [base.metrics[name] for base, __ in pairs],
                [head.metrics[name] for __, head in pairs],
            )
            for name, better in metrics
        ]))
        same = all(a.operations == b.operations for a, b in pairs)
        print(f"{workload}: operation counts equal in every pair: "
              f"{'yes' if same else 'NO'}")
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_dir)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision (A)")
    parser.add_argument(
        "--workload", required=True, choices=("vod-zipf", "shard-failure")
    )
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    return compare(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
