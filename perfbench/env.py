"""Process environment for the benchmark: BLAS threads, import path, machine.

`pin_threads` must run before numpy is first imported, because the BLAS
library reads its thread count once, when it loads.  Pivot counts and
branch-and-bound node counts depend on that count (summation order in
the BLAS kernels changes the ties the simplex sees), so every run of the
benchmark uses the same value.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_threads() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def add_source_path() -> bool:
    """Put the checkout's `src` first on sys.path; False if it is missing."""
    if not (SRC / "adjrobust" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _mem_total_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def machine() -> dict:
    """What the numbers depend on besides the code: recorded with every run."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "blas": blas,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": _mem_total_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }
