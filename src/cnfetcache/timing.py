"""Mapping of group drive strengths to integer cycle latencies.

Delay is modeled as inversely proportional to drive current, which is
proportional to the conducting-CNT count: a group at the nominal strength
runs at min_cycles and weaker groups slow down as nominal/effective, rounded
up to whole cycles and clamped into [min_cycles, max_cycles].  The nominal
strength is calibrated to the median group strength of the process corner so
that the typical group runs at the best-case latency; the slow tail created
by weak stages then lands at the top of the cycle range.
"""

import io
import math
from dataclasses import dataclass, field
from enum import Enum

from . import variation


class LayoutKind(Enum):
    """Orientation of the CNT growth direction relative to the array.

    SET_ALIGNED: growth parallel to the bitlines; latency varies per way.
    WAY_ALIGNED: growth parallel to the wordlines; latency varies per set.
    """

    SET_ALIGNED = "set_aligned"
    WAY_ALIGNED = "way_aligned"

    def group_count(self, geometry):
        """Latency groups of a cache of this geometry: one per way when set
        aligned, one per set when way aligned."""
        return (geometry.num_ways if self is LayoutKind.SET_ALIGNED
                else geometry.num_sets)


def _is_pow2(n):
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    capacity_bytes: int
    num_ways: int
    line_bytes: int

    def __post_init__(self):
        for name in ("capacity_bytes", "num_ways", "line_bytes"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.capacity_bytes % (self.line_bytes * self.num_ways) != 0:
            raise ValueError("capacity not divisible by line_bytes*num_ways")
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")

    @property
    def num_sets(self):
        return self.capacity_bytes // (self.line_bytes * self.num_ways)

    @property
    def offset_bits(self):
        return self.line_bytes.bit_length() - 1

    @property
    def set_bits(self):
        return self.num_sets.bit_length() - 1


@dataclass
class LatencyMap:
    """Integer cycle latency per aligned group (per way or per set); a sampled
    map keeps each group's effective CNT count (0: failed) in `strengths`."""

    layout: LayoutKind
    latencies: list
    min_cycles: int
    max_cycles: int
    geometry: CacheGeometry = None
    strengths: list = field(default=None, repr=False)

    def __post_init__(self):
        if any(not self.min_cycles <= c <= self.max_cycles for c in self.latencies):
            raise ValueError("latency outside [min_cycles, max_cycles]")
        if self.geometry is not None:
            expect = self.layout.group_count(self.geometry)
            if len(self.latencies) != expect:
                raise ValueError(f"expected {expect} latencies, got {len(self.latencies)}")

    def worst(self):
        return max(self.latencies)

    def best(self):
        return min(self.latencies)


def strengths_to_latency(strengths, nominal_count, min_cycles, max_cycles):
    """Quantize effective counts into cycles: ceil(min*nominal/count), clamped.

    Failed groups (zero effective count) are pinned at max_cycles.
    """
    if nominal_count <= 0:
        raise ValueError("nominal_count must be > 0")
    if min_cycles > max_cycles:
        raise ValueError("min_cycles must be <= max_cycles")
    out = []
    for count in strengths:
        if count == 0:
            out.append(max_cycles)
        else:
            cycles = math.ceil(min_cycles * nominal_count / count)
            out.append(min(max(cycles, min_cycles), max_cycles))
    return out


def delay_ratios(counts, nominal_count):
    """Pre-quantization delay factors nominal/count of the working groups."""
    return [nominal_count / c for c in counts if c]


def _raw_count_pmf(params, tail_sigmas=10.0):
    """Exact pmf of round(Normal(mu, sigma)) clamped at 0."""
    if params.sigma == 0:
        return {round(params.mu): 1.0}

    def cdf(x):
        return 0.5 * (1.0 + math.erf((x - params.mu) / (params.sigma * math.sqrt(2.0))))

    rmax = int(math.ceil(params.mu + tail_sigmas * params.sigma))
    pmf = {}
    for r in range(0, rmax + 1):
        lo = 0.0 if r == 0 else cdf(r - 0.5)
        p = cdf(r + 0.5) - lo
        if p > 0.0:
            pmf[r] = p
    return pmf


def effective_count_cdf(params, stages):
    """Exact CDF of the min-over-stages effective count, as {k: P(eff <= k)}.

    Per stage the survivor count given a raw count r is Binomial(r, q) where
    q is the per-CNT survival probability; the two-way metallic /
    semiconducting split collapses to a single Bernoulli per tube.
    """
    q = params.survival_probability()
    praw = _raw_count_pmf(params)
    rmax = max(praw)
    # P(stage >= k | r) via upper-tail binomial sums.
    ge = {}
    for k in range(0, rmax + 2):
        total = 0.0
        for r, pr in praw.items():
            if k > r:
                continue
            tail = sum(math.comb(r, i) * q ** i * (1 - q) ** (r - i)
                       for i in range(k, r + 1))
            total += pr * tail ** stages
        ge[k] = total
    return {k: 1.0 - ge.get(k + 1, 0.0) for k in range(0, rmax + 1)}


def calibrate_nominal_count(params, stages):
    """Median of the group effective-count distribution (at least 1).

    Anchoring the nominal strength here makes the typical group run at
    min_cycles, so the latency histogram peaks at the fast end while weak
    minority groups populate the slow tail.
    """
    cdf = effective_count_cdf(params, stages)
    for k in sorted(cdf):
        if cdf[k] >= 0.5:
            return max(k, 1)
    return max(max(cdf), 1)


DEFAULT_STAGES = 8
DEFAULT_CYCLE_RANGE = {
    LayoutKind.SET_ALIGNED: (6, 12),
    LayoutKind.WAY_ALIGNED: (6, 10),
}


def build_latency_map(geometry, layout, params, stages=DEFAULT_STAGES,
                      min_cycles=None, max_cycles=None, nominal_count=None,
                      rng=None):
    """Sample a LatencyMap for the given layout.

    Set aligned: one group per way.  Way aligned: one group per set.
    """
    if min_cycles is None:
        min_cycles = DEFAULT_CYCLE_RANGE[layout][0]
    if max_cycles is None:
        max_cycles = DEFAULT_CYCLE_RANGE[layout][1]
    if nominal_count is None:
        nominal_count = calibrate_nominal_count(params, stages)
    strengths = variation.sample_group_strengths(
        params, layout.group_count(geometry), stages, rng)
    latencies = strengths_to_latency(strengths, nominal_count, min_cycles, max_cycles)
    return LatencyMap(layout, latencies, min_cycles, max_cycles,
                      geometry=geometry, strengths=strengths)


def serialize_latency_map(latmap):
    """Header (layout, geometry, cycle range) plus one `index,cycles` line per group."""
    out = io.StringIO()
    out.write(f"layout={latmap.layout.value}\n")
    if latmap.geometry is not None:
        g = latmap.geometry
        out.write(f"capacity_bytes={g.capacity_bytes}\n")
        out.write(f"num_ways={g.num_ways}\n")
        out.write(f"line_bytes={g.line_bytes}\n")
    out.write(f"min_cycles={latmap.min_cycles}\n")
    out.write(f"max_cycles={latmap.max_cycles}\n")
    for i, c in enumerate(latmap.latencies):
        out.write(f"{i},{c}\n")
    return out.getvalue()


_HEADER_TYPES = {"layout": LayoutKind, "capacity_bytes": int, "num_ways": int,
                 "line_bytes": int, "min_cycles": int, "max_cycles": int}


def load_latency_map(stream):
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header = {}
    latencies = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, value = line.split("=", 1)
            if key in header:
                raise ValueError(f"line {lineno}: header key {key} "
                                 f"is repeated")
            kind = _HEADER_TYPES.get(key)
            if kind is None:
                raise ValueError(f"line {lineno}: unknown header key {key}")
            try:
                header[key] = kind(value)
            except ValueError:
                expected = ("one of " + ", ".join(k.value for k in LayoutKind)
                            if kind is LayoutKind else "an integer")
                raise ValueError(f"line {lineno}: {line} is not "
                                 f"{expected}") from None
        else:
            try:
                index, cycles = (int(part) for part in line.split(","))
            except ValueError:
                raise ValueError(f"line {lineno}: expected `index,cycles` "
                                 f"integers, got {line!r}") from None
            if index in latencies:
                raise ValueError(f"line {lineno}: group index {index} "
                                 f"is repeated")
            latencies[index] = cycles
    for key in ("layout", "min_cycles", "max_cycles"):
        if key not in header:
            raise ValueError(f"missing header key {key}")
    geometry = None
    geometry_keys = ("capacity_bytes", "num_ways", "line_bytes")
    if any(key in header for key in geometry_keys):
        missing = [key for key in geometry_keys if key not in header]
        if missing:
            raise ValueError(f"geometry header lacks {', '.join(missing)}")
        geometry = CacheGeometry(*(header[key] for key in geometry_keys))
    ordered = [latencies[i] for i in sorted(latencies)]
    if sorted(latencies) != list(range(len(ordered))):
        raise ValueError("group indices must be 0..n-1 without gaps")
    return LatencyMap(header["layout"], ordered, header["min_cycles"],
                      header["max_cycles"], geometry=geometry)
