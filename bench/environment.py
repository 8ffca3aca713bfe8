"""Description of the machine and software a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

# OpenBLAS builds bundled with numpy and scipy export these under a prefix
# and, for the 64-bit integer build, a suffix
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(package) -> dict:
    """Thread count reported by each OpenBLAS library bundled with a package."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    out = {}
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                out[lib.name] = query()
                break
    return out


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():     # e.g. an exported checkout
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def describe(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {"numpy": _blas_threads(np), "scipy": _blas_threads(scipy),
                         "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
