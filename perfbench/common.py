"""Paths, child-process environment, statistics and the environment block
shared by ``run.py`` and its worker processes. Imports only the standard
library, so ``run.py`` can load it without importing hvdcfr."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH_DIR / "reference"

WORKLOADS = ("cli-pipeline", "seed-study", "model-fit-clean", "model-fit-noisy")

# every workload is one client with no added threads: BLAS and OpenMP are
# pinned to one thread, which is never more than the cores available
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# relative tolerance for output checks against the checked-in references
REL_TOL = 1e-6
ABS_TOL = 1e-12


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    if not values:
        return {"n": 0, "p25": None, "p50": None, "p75": None}
    if len(values) == 1:
        return {"n": 1, "p25": values[0], "p50": values[0], "p75": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p25": q1, "p50": q2, "p75": q3}


def percentile_90(values: list[float]) -> float | None:
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10)[-1]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def write_json(path: Path, payload) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_state() -> dict:
    """Commit and dirty flag, or nulls when the checkout is not a git tree."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"commit": None, "dirty": None}
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def environment() -> dict:
    """Interpreter, library and machine facts that a timing depends on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "git": git_state(),
    }
