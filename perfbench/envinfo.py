"""Facts about the machine a run measured on, recorded beside the metrics.

The calibration kernel is a fixed amount of pure-Python and BLAS work,
timed at the start and the end of a run. A run whose two readings differ
much, or differ from other runs, shared the machine with something else.
It is a diagnostic only: no metric is divided by it.
"""

from __future__ import annotations

import os
import platform
from importlib import metadata
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def calibrate() -> dict:
    """Milliseconds for a 2M-step Python loop and three 1000x1000 matmuls."""
    t = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    loop = time.perf_counter() - t
    a = np.random.default_rng(0).standard_normal((1000, 1000))
    a @ a  # wakes the BLAS threads, which the first call pays for
    t = time.perf_counter()
    for _ in range(3):
        a @ a
    matmul = time.perf_counter() - t
    return {"python_loop_ms": round(loop * 1e3, 3), "matmul_ms": round(matmul * 1e3, 3)}


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode; the name is a diagnostic only
        return "unknown"


def _scipy_version() -> str:
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:  # recorded; the verbs then fail on their own
        return "missing"


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))  # never look above the checkout
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def record(root: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "blas": _blas_name(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": _git_commit(root),
        "platform": platform.platform(),
        "executable": sys.executable,
    }
