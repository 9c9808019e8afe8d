import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cnfetcache.nuca import MeshTopology, noc_latency
from cnfetcache.pagemap import (Frame, FrameInventory, PageProfile,
                                assign_pages, build_frame_inventory,
                                frame_span_sets, profile_trace,
                                serialize_profile, translate)
from cnfetcache.timing import CacheGeometry
from cnfetcache.workload import TraceRecord


def test_frame_span_is_granularity_aligned():
    # One line per set under standard indexing: a 4 KB frame touches 64
    # consecutive sets, a multiple of the 8-set capacity granularity.
    geometry = CacheGeometry(2 * 1024 * 1024, 8, 64)
    span = frame_span_sets(4096, 64, geometry.num_sets)
    assert span == 64
    g = 4096 // (64 * 8)          # sets holding one page's worth of data
    assert span % g == 0
    inventory = build_frame_inventory(geometry, 4096, 128,
                                      [[6] * geometry.num_sets])
    for frame in inventory.frames:
        assert frame.start_set % g == 0
        assert frame.start_set % span == 0


def test_profile_empty_trace():
    profile = profile_trace([], 4096)
    assert profile.counts == {}


def test_profile_counts_raw_accesses():
    records = [TraceRecord(0, "R", 0x2000 + 64 * (i % 64)) for i in range(100)]
    profile = profile_trace(records, 4096)
    assert profile.counts == {2: 100}
    assert profile.dominant_core(2) == 0


def test_profile_dominant_core_majority():
    records = ([TraceRecord(0, "R", 0x5000)] * 70
               + [TraceRecord(1, "R", 0x5000)] * 30)
    profile = profile_trace(records, 4096)
    assert profile.dominant_core(5) == 0
    tied = PageProfile()
    tied.record(9, 3, 10)
    tied.record(9, 1, 10)
    assert tied.dominant_core(9) == 1


def _inventory(latencies):
    frames = [Frame(i, 0, 1, 0, lat) for i, lat in enumerate(latencies)]
    return FrameInventory(frames, 4096)


def test_hot_page_takes_fast_frame():
    profile = PageProfile()
    profile.record(3, 0, 100)
    inventory = _inventory([10, 6])
    mapping = assign_pages(profile, inventory)
    assert mapping == {3: 1}


def test_tie_break_deterministic():
    profile = PageProfile()
    profile.record(8, 0, 5)
    profile.record(2, 0, 5)
    inventory = _inventory([6, 6, 10])
    mapping = assign_pages(profile, inventory)
    # Equal counts: lower page number first; equal frames: lower index first.
    assert mapping == {2: 0, 8: 1}


def test_top_hot_pages_fill_fast_frames():
    profile = PageProfile()
    for p in range(10):
        profile.record(p, 0, 100 - p)
    inventory = _inventory([6, 6, 6, 6, 10, 10, 10, 10, 10, 10])
    mapping = assign_pages(profile, inventory)
    fast = {0, 1, 2, 3}
    assert {mapping[p] for p in range(4)} == fast
    assert all(mapping[p] not in fast for p in range(4, 10))


def test_capacity_error():
    profile = PageProfile()
    for p in range(3):
        profile.record(p, 0)
    with pytest.raises(ValueError):
        assign_pages(profile, _inventory([6, 6]))


def _reference_assign(profile, inventory, latency_of_frame=None):
    """The quadratic greedy: a min over every free frame for each page."""
    if latency_of_frame is None:
        latency_of_frame = lambda frame, core: frame.latency_class
    pages = profile.pages_by_hotness()
    free = inventory.free_frames()
    if len(pages) > len(free):
        raise ValueError(f"{len(pages)} pages exceed {len(free)} free frames")
    mapping = {}
    for vpage in pages:
        core = profile.dominant_core(vpage)
        best = min(free, key=lambda f: (latency_of_frame(f, core), f.index))
        free.remove(best)
        best.free = False
        mapping[vpage] = best.index
    return mapping


# Frames as (latency class, bank, free) with few values, so costs tie often.
frame_specs = st.lists(st.tuples(st.integers(6, 7), st.integers(0, 3),
                                 st.booleans()), min_size=1, max_size=40)
# Pages as (vpage, core, count) triples; repeats add per-core counts.
page_specs = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3),
                                st.integers(1, 4)), max_size=60)
noc_tables = st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                      min_size=4, max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), frames=frame_specs, pages=page_specs,
       noc=st.none() | noc_tables)
def test_assignment_matches_quadratic_reference(data, frames, pages, noc):
    # Frame indexes are shuffled against list order, so the index
    # tie-break, not the list position, must decide between equal costs.
    indexes = data.draw(st.permutations(range(len(frames))))
    profile = PageProfile()
    for vpage, core, n in pages:
        profile.record(vpage, core, n)
    cost = (None if noc is None else
            lambda frame, core: frame.latency_class + noc[core][frame.bank])

    def inventory():
        rows = zip(indexes, frames)
        return FrameInventory([Frame(i, 0, 1, bank, lat, free)
                               for i, (lat, bank, free) in rows], 4096)

    ref_inv, new_inv = inventory(), inventory()
    try:
        want = _reference_assign(profile, ref_inv, cost)
    except ValueError:
        with pytest.raises(ValueError, match="exceed"):
            assign_pages(profile, new_inv, cost)
        return
    assert assign_pages(profile, new_inv, cost) == want
    assert new_inv == ref_inv   # the same frames are marked taken


def test_greedy_is_globally_optimal_for_separable_costs():
    # Brute-force oracle over all injective assignments of <= 7 pages to 7
    # frames: greedy minimizes sum(count * latency).
    rng = random.Random(13)
    for _ in range(30):
        num_pages = rng.randrange(2, 8)
        counts = [rng.randrange(1, 50) for _ in range(num_pages)]
        latencies = [rng.choice([6, 7, 8, 10]) for _ in range(7)]
        profile = PageProfile()
        for p, n in enumerate(counts):
            profile.record(p, 0, n)
        mapping = assign_pages(profile, _inventory(latencies))
        greedy_cost = sum(counts[p] * latencies[mapping[p]]
                          for p in range(num_pages))
        best = min(
            sum(counts[p] * latencies[perm[p]] for p in range(num_pages))
            for perm in itertools.permutations(range(7), num_pages))
        assert greedy_cost == best


def test_assignment_determinism():
    profile = PageProfile()
    rng = random.Random(3)
    for p in range(20):
        profile.record(p, rng.randrange(2), rng.randrange(1, 100))
    latencies = [rng.choice([6, 7, 10]) for _ in range(25)]
    a = assign_pages(profile, _inventory(latencies))
    b = assign_pages(profile, _inventory(latencies))
    assert a == b
    assert len(set(a.values())) == len(a)   # injective


def test_translate_rewrites_page_bits():
    mapping = {2: 7}
    assert translate(2 * 4096 + 123, mapping, 4096) == 7 * 4096 + 123
    assert translate(5 * 4096 + 9, mapping, 4096) == 5 * 4096 + 9


def test_inventory_bank_and_set_math():
    # Frame address math: bank bits sit above per-bank set bits, so frame i
    # covers block (i mod blocks_per_bank) of bank (i // blocks_per_bank).
    geometry = CacheGeometry(64 * 1024, 8, 64)   # 128 sets per bank
    span = frame_span_sets(4096, 64, geometry.num_sets)
    assert span == 64
    inventory = build_frame_inventory(
        geometry, 4096, 16, [[6 + b] * geometry.num_sets for b in range(8)])
    blocks_per_bank = geometry.num_sets // span
    assert blocks_per_bank == 2
    for frame in inventory.frames:
        assert frame.bank == (frame.index // blocks_per_bank) % 8
        assert frame.start_set == (frame.index % blocks_per_bank) * span
        assert frame.latency_class == 6 + frame.bank


def test_profile_serialization():
    profile = PageProfile()
    profile.record(1, 0, 3)
    profile.record(4, 1, 9)
    dump = serialize_profile(profile)
    assert "4,9,1:9" in dump and "1,3,0:3" in dump


# Gap bound of the greedy against the exact count-weighted optimum under
# unified mapping, at core affinity 0.75 over these 40 instances (measured
# maximum 1.88%).
UPM_GAP_EPSILON = 0.02


def _upm_instance(seed, affinity):
    """64 frames on an 8-bank mesh, 16-60 pages from 4 cores.  A page's
    accesses come from its home core with probability `affinity`, else from
    a uniformly random core."""
    rng = np.random.default_rng(seed)
    topology = MeshTopology()
    frames = [Frame(i, 0, 1, i // 8, int(rng.choice([6, 7, 8, 9, 10, 12])))
              for i in range(64)]
    num_pages = int(rng.integers(16, 61))
    profile = PageProfile()
    for page in range(num_pages):
        n = int(rng.integers(1, 200))
        probs = np.full(4, (1 - affinity) / 4)
        probs[page % 4] += affinity
        for core, k in enumerate(rng.multinomial(n, probs)):
            if k:
                profile.record(page, core, int(k))
    noc = [[noc_latency(topology, c, b) for b in range(8)] for c in range(4)]
    cost = np.array([[sum(k * (f.latency_class + noc[c][f.bank])
                          for c, k in profile.core_counts[p].items())
                      for f in frames] for p in range(num_pages)])
    greedy = assign_pages(profile, FrameInventory(frames, 4096),
                          lambda f, core: f.latency_class + noc[core][f.bank])
    greedy_cost = sum(cost[p, greedy[p]] for p in range(num_pages))
    rows, cols = linear_sum_assignment(cost)
    return int(greedy_cost), int(cost[rows, cols].sum())


def test_unified_greedy_is_near_the_exact_optimum():
    gaps = []
    for seed in range(40):
        greedy_cost, optimum = _upm_instance(seed, 0.75)
        assert greedy_cost >= optimum
        gaps.append(greedy_cost / optimum - 1)
    assert max(gaps) <= UPM_GAP_EPSILON
