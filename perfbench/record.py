"""Environment stamp and the append-only run record.

Every run appends one JSON line to ``perfbench/out/runs.jsonl``: the
command's arguments, an environment stamp (git sha, Python, numpy, BLAS
build, pinned thread variables, cores, CPU affinity, load average), the
reported metrics, sample counts, and the raw and reference times of every
paired sample.  The record is what makes a number readable long after the
run that produced it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: str) -> str | None:
    """The checkout's commit, or None outside a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        result = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):   # numpy < 1.26 has no dict mode
        return {"name": None, "version": None}


def environment(root: str) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg")
        else None,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
        "unix_time": time.time(),
    }


def append(record: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "runs.jsonl")
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path
