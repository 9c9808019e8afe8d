"""The index columns of the L1 filter and the LLC pass are as narrow as one
rule allows, `cache_core.index_type`: int32 when the largest value a column
must hold is below 2^31, int64 otherwise.  On streams over many core ids,
extreme int64 ones among them, and sparse 64-bit addresses, the narrow
columns give what int64 columns gave: the L1 filter equals its frozen
per-record oracle, and `nuca.count_hits` the frozen int64 pass below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache import cache_core, nuca, vasa, workload
from cnfetcache.cache_core import BankPolicy
from cnfetcache.timing import CacheGeometry, LayoutKind
from cnfetcache.workload import L1Config, Trace, l1_filter
from test_reference_workload import reference_l1_filter

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

INT64 = np.iinfo(np.int64)
EXTREME_CORES = [INT64.min, INT64.min + 1, -1, 0, INT64.max]


def test_index_type_is_int32_below_2_to_the_31():
    assert cache_core.index_type(-1) is np.int32      # an empty column
    assert cache_core.index_type(0) is np.int32
    assert cache_core.index_type((1 << 31) - 1) is np.int32
    assert cache_core.index_type(1 << 31) is np.int64
    assert cache_core.index_type(1 << 62) is np.int64


@st.composite
def wide_streams(draw, max_cores=1000):
    # Up to max_cores distinct core ids, the extreme int64 ones among them,
    # and lines of a few random 64-bit tags over four L1 sets, so that the
    # L1s hit, evict and write back.
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    length = draw(st.integers(1, 3000))
    ids = rng.integers(INT64.min, INT64.max, size=draw(st.integers(1, max_cores)),
                       dtype=np.int64, endpoint=True)
    ids[:len(EXTREME_CORES)] = EXTREME_CORES[:len(ids)]
    core = rng.choice(ids, size=length)
    tags = rng.integers(0, 1 << 64, size=draw(st.integers(1, 48)),
                        dtype=np.uint64) & ~np.uint64(0x3FFF)
    line = tags[rng.integers(0, len(tags), size=length)] | (
        rng.integers(0, 4, size=length, dtype=np.uint64) << np.uint64(6))
    addr = line | rng.integers(0, 64, size=length, dtype=np.uint64)
    return Trace(core, rng.random(length) < 0.5, rng.random(length) < 0.3,
                 addr)


# The default L1s, and 4-way ones that take the general LRU replay.  Each
# has a set and slot space that 128 cores take past 2^15.
WIDE_L1S = [L1Config(), L1Config(icache=CacheGeometry(16 * 1024, 4, 64),
                                 dcache=CacheGeometry(64 * 1024, 4, 64))]


@PROPERTY
@given(trace=wide_streams(), config=st.sampled_from(WIDE_L1S))
def test_l1_filter_on_wide_streams_matches_the_per_record_filter(trace,
                                                                  config):
    out, accesses, misses = reference_l1_filter(list(trace), config)
    result = l1_filter(trace, config)
    assert list(result.records) == out
    assert list(result.accesses.items()) == list(accesses.items())
    assert list(result.misses.items()) == list(misses.items())


def int64_count_hits(trace, geometry, layout, policies, noc=None):
    """`nuca.count_hits` as it was with int64 sets, cells and set order."""
    banks = len(policies)
    ways, num_sets = geometry.num_ways, geometry.num_sets
    bank_sets = num_sets // banks
    per_set = layout is LayoutKind.WAY_ALIGNED
    groups = bank_sets if per_set else ways
    depths = 1 if per_set else ways
    rows = 1 if noc is None else len(noc)
    row = 0 if noc is None else trace.core
    sets = ((trace.addr >> geometry.offset_bits)
            & (num_sets - 1)).astype(np.int64)
    order = np.argsort(sets, kind="stable")
    tags = (trace.addr >> (geometry.offset_bits + geometry.set_bits))[order]
    cells = (row * num_sets + sets)[order]
    sets = sets[order]
    hits, landings, moves = [], [], 0
    bounds = np.searchsorted(sets, np.arange(banks + 1) * bank_sets).tolist()
    for policy, run in zip(policies, map(slice, bounds, bounds[1:])):
        if policy.shuffle is not None:
            landed, step = vasa.replay_shuffle(sets[run], tags[run],
                                               policy.shuffle)
            moves += step
        elif per_set:
            hits.append(cache_core.lru_hits(sets[run], tags[run], ways))
            continue
        else:
            landed = cache_core.replay_lru(sets[run], tags[run], ways)
        hits.append(landed >= 0)
        landings.append(landed)
    hit = np.concatenate(hits)
    index = cells[hit]
    if not per_set:
        landing = np.concatenate(landings)[hit]
        index = index // bank_sets * groups * depths + landing
    counts = np.bincount(index, minlength=rows * banks * groups * depths)
    return nuca.HitTable(counts, (rows, banks, groups, depths), per_set,
                         len(trace), int(trace.write.sum()), moves)


BIG = CacheGeometry(32 * 1024 * 1024, 8, 64)        # 65536 sets
SMALL = CacheGeometry(256 * 1024, 8, 64)            # 512 sets
SHUFFLE = vasa.WayGroups([[0, 1], [2, 3, 4], [5, 6, 7]])
# (geometry, layout, banks, shuffling banks, mesh): each layout on 2^16
# sets, which no int16 set or cell holds, and on a small LLC, with and
# without a mesh and a shuffling bank.
PASSES = [(BIG, LayoutKind.WAY_ALIGNED, 1, (), None),
          (BIG, LayoutKind.SET_ALIGNED, 2, (1,), None),
          (SMALL, LayoutKind.WAY_ALIGNED, 2, (), (1, 2)),
          (SMALL, LayoutKind.SET_ALIGNED, 8, (0, 5), (2, 4))]


@PROPERTY
@given(trace=wide_streams(), case=st.sampled_from(PASSES))
def test_count_hits_on_wide_streams_matches_the_int64_pass(trace, case):
    geometry, layout, banks, shuffling, mesh = case
    groups = (geometry.num_sets // banks if layout is LayoutKind.WAY_ALIGNED
              else geometry.num_ways)
    policies = [BankPolicy([9] * groups,
                           shuffle=SHUFFLE if bank in shuffling else None)
                for bank in range(banks)]
    noc = None
    if mesh is not None:
        noc = nuca.noc_table(*mesh, 1, 2)
        trace = Trace(np.unique(trace.core, return_inverse=True)[1] % len(noc),
                      trace.write, trace.instr, trace.addr)
    assert (nuca.count_hits(trace, geometry, layout, policies, noc)
            == int64_count_hits(trace, geometry, layout, policies, noc))


@pytest.mark.parametrize("records", [[], [workload.TraceRecord(7, "W", 64)]],
                         ids=["empty", "one"])
def test_count_hits_takes_an_empty_or_one_reference_stream(records):
    policies = [BankPolicy([9] * 8)]
    trace = workload.as_trace(records)
    assert (nuca.count_hits(trace, SMALL, LayoutKind.SET_ALIGNED, policies)
            == int64_count_hits(trace, SMALL, LayoutKind.SET_ALIGNED, policies))
