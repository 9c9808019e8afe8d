"""Trace-driven simulator for CNFET-based last-level caches under process
variation: variation-aware set aligned and way aligned architectures, data
shuffling, set grouping, page mapping, and a mesh NUCA latency model."""

import os
import sys

# The simulator never calls BLAS, so numpy is loaded with one OpenBLAS
# thread: starting OpenBLAS's worker pool costs about 70 ms of every run.
# A caller's OPENBLAS_NUM_THREADS wins, and os.environ is left as found.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cache_core import AccessResult, CacheState, PolicyKind
from .metrics import EnergyParams, RunStats
from .timing import CacheGeometry, LatencyMap, LayoutKind
from .variation import CntParams

__all__ = [
    "AccessResult", "CacheGeometry", "CacheState", "CntParams", "EnergyParams",
    "LatencyMap", "LayoutKind", "PolicyKind", "RunStats",
]

__version__ = "0.1.0"
