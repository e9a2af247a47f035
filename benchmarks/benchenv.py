"""The environment a ``BENCH_*.json`` file was measured in.

Every bench script that writes a ``BENCH_*.json`` stores
:func:`environment` under the payload's ``"environment"`` key, so a
number can be compared only against numbers taken on the same
interpreter, numpy build, CPU count and source revision.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """Python and numpy versions, usable CPUs, and the git revision the
    numbers were measured on (``git_dirty``: the working tree had
    uncommitted changes to tracked files)."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        nproc = os.cpu_count() or 0
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }
