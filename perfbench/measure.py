"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import platform
import resource
import statistics
from typing import Sequence

import numpy as np

__all__ = ["MIN_BEYOND", "environment", "median", "peak_rss_mb",
           "percentile"]

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 needs 1,000 samples, p95 200, the median 20).
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: int) -> float | None:
    """The ``q``-th percentile of ``values``, or ``None`` when fewer
    than :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if len(values) * (100 - q) // 100 < MIN_BEYOND:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict[str, object]:
    """Interpreter, numpy/BLAS build and CPU facts a reading depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
