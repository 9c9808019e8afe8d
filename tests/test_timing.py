import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache.cli import ExperimentConfig
from cnfetcache.timing import (DEFAULT_CYCLE_RANGE, CacheGeometry, LatencyMap,
                               LayoutKind, build_latency_map,
                               calibrate_nominal_count, effective_count_cdf,
                               load_latency_map, serialize_latency_map,
                               strengths_to_latency)
from cnfetcache.variation import CntParams, sample_group_strengths

TABLE_PARAMS = CntParams()
TABLE_SEED = 21
GEO_2MB = CacheGeometry(2 * 1024 * 1024, 8, 64)


def _build(geometry, layout, params=TABLE_PARAMS, cycles=None, rng=None):
    """A sampled map at the layout's default cycle range, 8 stages and the
    calibrated nominal strength, drawn from `rng` (default: a generator
    seeded with TABLE_SEED)."""
    lo, hi = cycles or DEFAULT_CYCLE_RANGE[layout]
    if rng is None:
        rng = np.random.default_rng(TABLE_SEED)
    return build_latency_map(geometry, layout, params, 8, lo, hi,
                             calibrate_nominal_count(params, 8), rng)


def test_nominal_strength_maps_to_min_cycles():
    lat = strengths_to_latency([9], 9, 6, 12)
    assert lat == [6]


def test_half_strength_doubles_latency():
    # ceil(6 * 2) = 12; the clamp is a no-op.
    lat = strengths_to_latency([5], 10, 6, 12)
    assert lat == [12]


def test_failed_group_pinned_at_worst():
    lat = strengths_to_latency([0], 9, 6, 12)
    assert lat == [12]


def test_clamping_bounds():
    lat = strengths_to_latency([1, 2, 20, 9], 9, 6, 12)
    assert lat == [12, 12, 6, 6]
    assert all(6 <= c <= 12 for c in lat)


def _reference_latency(strengths, nominal_count, min_cycles, max_cycles):
    """The per-group loop: ceil(min * nominal / count), clamped; a failed
    group at max_cycles."""
    out = []
    for count in strengths:
        if count == 0:
            out.append(max_cycles)
        else:
            cycles = math.ceil(min_cycles * nominal_count / count)
            out.append(min(max(cycles, min_cycles), max_cycles))
    return out


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(strengths=st.lists(st.integers(0, 40), max_size=60),
       nominal=st.one_of(st.integers(1, 40),
                         st.floats(0.5, 40)),
       min_cycles=st.integers(1, 20), width=st.integers(0, 10))
def test_latency_matches_the_per_group_loop(strengths, nominal, min_cycles,
                                            width):
    got = strengths_to_latency(strengths, nominal, min_cycles,
                               min_cycles + width)
    assert got == _reference_latency(strengths, nominal, min_cycles,
                                     min_cycles + width)
    assert all(type(c) is int for c in got)


@pytest.mark.parametrize("nominal, cycles", [(0, (6, 12)), (9, (7, 6))])
def test_latency_rejects_bad_inputs(nominal, cycles):
    with pytest.raises(ValueError):
        strengths_to_latency([9], nominal, *cycles)


def _exact_latency_pmf(params, stages, nominal, min_c, max_c):
    """Independent closed-form oracle for the quantized latency distribution."""
    cdf = effective_count_cdf(params, stages)
    pmf_eff = {}
    prev = 0.0
    for k in sorted(cdf):
        pmf_eff[k] = cdf[k] - prev
        prev = cdf[k]
    out = Counter()
    for k, p in pmf_eff.items():
        if p <= 0:
            continue
        if k == 0:
            c = max_c
        else:
            c = min(max(math.ceil(min_c * nominal / k), min_c), max_c)
        out[c] += p
    return out


def test_latency_mode_at_min_cycles():
    # The calibrated nominal puts the histogram mode at the fast end; checked
    # both in closed form and on a sampled 4096-group way aligned map.
    nominal = calibrate_nominal_count(TABLE_PARAMS, 8)
    oracle = _exact_latency_pmf(TABLE_PARAMS, 8, nominal, 6, 10)
    assert max(oracle, key=oracle.get) == 6
    strengths = sample_group_strengths(TABLE_PARAMS, 4096, 8,
                                       np.random.default_rng(TABLE_SEED))
    hist = Counter(strengths_to_latency(strengths, nominal, 6, 10))
    assert max(hist, key=hist.get) == 6


def test_calibration_unvaried_is_mu():
    params = CntParams(mu=9.0, sigma=0.0, p_metallic=0.0,
                       p_remove_metallic=0.0, p_remove_semiconducting=0.0)
    assert calibrate_nominal_count(params, 8) == 9


def test_build_map_lengths_per_layout():
    m_set = _build(GEO_2MB, LayoutKind.SET_ALIGNED)
    assert len(m_set.latencies) == 8
    assert (m_set.min_cycles, m_set.max_cycles) == (6, 12)
    m_way = _build(GEO_2MB, LayoutKind.WAY_ALIGNED)
    assert len(m_way.latencies) == 4096
    assert (m_way.min_cycles, m_way.max_cycles) == (6, 10)


def test_config_resolves_default_cycle_range_per_layout():
    assert ExperimentConfig(layout="set_aligned").cycle_range == (6, 12)
    assert ExperimentConfig(layout="way_aligned").cycle_range == (6, 10)


def test_build_map_unvaried_all_min():
    params = CntParams(mu=9.0, sigma=0.0, p_metallic=0.0,
                       p_remove_metallic=0.0, p_remove_semiconducting=0.0)
    m = _build(GEO_2MB, LayoutKind.SET_ALIGNED, params,
               rng=np.random.default_rng(0))
    assert m.latencies == [6] * 8


def test_build_map_deterministic():
    a = _build(GEO_2MB, LayoutKind.WAY_ALIGNED)
    b = _build(GEO_2MB, LayoutKind.WAY_ALIGNED)
    assert a.latencies == b.latencies


def test_layouts_share_strength_distribution():
    # Same sampler underneath: large maps from both layouts agree on the
    # latency distribution up to sampling noise.
    geo = CacheGeometry(2 * 1024 * 1024, 512, 64)   # 512 way-groups
    m_set = _build(geo, LayoutKind.SET_ALIGNED, cycles=(6, 10))
    m_way = _build(GEO_2MB, LayoutKind.WAY_ALIGNED, cycles=(6, 10),
                   rng=np.random.default_rng(99))
    mean_set = sum(m_set.latencies) / len(m_set.latencies)
    mean_way = sum(m_way.latencies) / len(m_way.latencies)
    assert abs(mean_set - mean_way) < 0.3


def test_quantized_spread_bounded():
    m = _build(GEO_2MB, LayoutKind.WAY_ALIGNED)
    assert m.worst() / m.best() <= m.max_cycles / m.min_cycles


def test_geometry_validation():
    assert GEO_2MB.num_sets == 4096
    with pytest.raises(ValueError):
        CacheGeometry(2 * 1024 * 1024, 3, 64)
    with pytest.raises(ValueError):
        CacheGeometry(1000, 8, 64)


def test_latency_map_validation():
    with pytest.raises(ValueError):
        LatencyMap(LayoutKind.SET_ALIGNED, [5], 6, 12)
    with pytest.raises(ValueError):
        LatencyMap(LayoutKind.SET_ALIGNED, [6] * 7, 6, 12, geometry=GEO_2MB)


def test_serialization_bit_exact_round_trip():
    m = _build(GEO_2MB, LayoutKind.WAY_ALIGNED)
    text = serialize_latency_map(m)
    loaded = load_latency_map(text)
    assert loaded.latencies == m.latencies
    assert loaded.layout == m.layout
    assert loaded.geometry == m.geometry
    assert serialize_latency_map(loaded) == text
