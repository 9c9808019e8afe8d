import itertools
import random

import pytest

from cnfetcache.pagemap import (Frame, FrameInventory, PageProfile,
                                assign_pages, build_frame_inventory,
                                frame_span_sets, profile_trace,
                                serialize_profile, translate)
from cnfetcache.timing import CacheGeometry
from cnfetcache.workload import L1Config, TraceRecord


def test_frame_span_is_granularity_aligned():
    # One line per set under standard indexing: a 4 KB frame touches 64
    # consecutive sets, a multiple of the 8-set capacity granularity.
    geometry = CacheGeometry(2 * 1024 * 1024, 8, 64)
    span = frame_span_sets(4096, 64, geometry.num_sets)
    assert span == 64
    g = 4096 // (64 * 8)          # sets holding one page's worth of data
    assert span % g == 0
    inventory = build_frame_inventory(geometry, 4096, 128, lambda b, s: 6)
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


def test_profile_behind_l1_filter():
    # The same line over and over: exactly one LLC-bound access.
    records = [TraceRecord(0, "R", 0x7000)] * 100
    profile = profile_trace(records, 4096, L1Config(enabled=True))
    assert profile.counts == {7: 1}


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
    inventory = build_frame_inventory(geometry, 4096, 16,
                                      lambda b, s: 6 + b, num_banks=8)
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
