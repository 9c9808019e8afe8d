"""Trace-driven simulator for CNFET-based last-level caches under process
variation: variation-aware set aligned and way aligned architectures, data
shuffling, set grouping, page mapping, and a mesh NUCA latency model."""

from .cache_core import AccessResult, CacheState, PolicyKind
from .metrics import EnergyParams, RunStats
from .timing import CacheGeometry, LatencyMap, LayoutKind
from .variation import CntParams

__all__ = [
    "AccessResult", "CacheGeometry", "CacheState", "CntParams", "EnergyParams",
    "LatencyMap", "LayoutKind", "PolicyKind", "RunStats",
]

__version__ = "0.1.0"
