import itertools
import random

import pytest

from test_pagemap import dominant_cores
from cnfetcache.cache_core import BankPolicy, partial_disable
from cnfetcache.metrics import RunStats, record_access
from cnfetcache.nuca import NucaCache, bank_average_latency, noc_table
from cnfetcache.pagemap import PageProfile, assign_pages, build_frame_inventory
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vawa import build_nonuniform_groups

NOC = noc_table(2, 4, 1, 2)
GEO_TOTAL = CacheGeometry(64 * 1024, 8, 64)          # 8 banks x 16 sets


def test_default_topology_shape():
    # Four cores, each at a corner router of the 2 x 4 mesh, whose eight
    # banks are numbered row-major.
    assert sorted(NOC) == [0, 1, 2, 3]
    assert all(len(row) == 8 for row in NOC.values())
    assert [row.index(0) for row in NOC.values()] == [0, 3, 4, 7]


def test_noc_latency_examples():
    assert NOC[0][0] == 0                  # same router
    assert NOC[0][7] == 8                  # (1+3) hops, round trip
    assert NOC[0][1] == 2
    with pytest.raises(KeyError):
        NOC[9]


def test_noc_latency_depends_only_on_deltas():
    # On every mesh of 1-4 rows x 1-4 cols: one entry per bank, each corner
    # core costs 0 to its own router, the farthest bank is a full
    # corner-to-corner trip, and opposite corners see mirrored costs.
    for rows, cols, hop, trip in itertools.product(
            range(1, 5), range(1, 5), (0, 1, 3), (1, 2)):
        noc = noc_table(rows, cols, hop, trip)
        banks = rows * cols
        assert all(len(row) == banks for row in noc.values())
        corners = [0, cols - 1, (rows - 1) * cols, banks - 1]
        assert [noc[core][bank] for core, bank in enumerate(corners)] \
            == [0] * 4
        assert max(max(row) for row in noc.values()) \
            == trip * hop * (rows + cols - 2)
        for core, mirror in ((0, 3), (1, 2)):
            assert noc[core] == noc[mirror][::-1]


BANK_GEO = CacheGeometry(GEO_TOTAL.capacity_bytes // 8, 8, 64)   # 16 sets
BANK_SHIFT = BANK_GEO.offset_bits + BANK_GEO.set_bits


def _make_nuca(latencies_per_bank, layout=LayoutKind.WAY_ALIGNED):
    return NucaCache(GEO_TOTAL, NOC, layout,
                     [BankPolicy(lat) for lat in latencies_per_bank])


def test_unified_latency_additivity():
    # Every (core, bank) hit costs the bank's set latency plus the NoC trip.
    lat = [[6 + b % 4] * BANK_GEO.num_sets for b in range(8)]
    cache = _make_nuca(lat)
    for bank in range(8):
        addr = (bank << BANK_SHIFT) | (3 << 6)
        cache.access(0, addr)
        for core in NOC:
            result = cache.access(core, addr)
            assert result.hit
            assert result.latency_cycles == 6 + bank % 4 + NOC[core][bank]


def test_access_totals_obey_unified_model():
    cache = _make_nuca([[6] * BANK_GEO.num_sets for _ in range(8)])
    addr = 7 << BANK_SHIFT                  # bank 7, 4 hops from core 0
    cache.access(0, addr)
    result = cache.access(0, addr)
    assert result.hit and result.latency_cycles == 6 + 8
    # Same line from another core differs exactly by the NoC delta.
    result3 = cache.access(1, addr)
    assert result3.latency_cycles - result.latency_cycles == \
        NOC[1][7] - NOC[0][7]


def test_uca_is_one_bank_without_noc_cost():
    cache = NucaCache(BANK_GEO, None, LayoutKind.SET_ALIGNED,
                      [BankPolicy([6, 7, 8, 9, 6, 7, 8, 9])])
    cache.access(0, 0x40)
    for core in (0, 3, 17):
        result = cache.access(core, 0x40)
        assert result.hit and result.latency_cycles == 6 + result.way % 4


def test_miss_costs_memory_latency_only():
    # A miss in the bank farthest from the core pays memory_latency alone:
    # no NoC round trip and no hit latency.
    stats = RunStats(memory_latency_cycles=30)
    cache = _make_nuca([[10] * BANK_GEO.num_sets for _ in range(8)])
    far = max(range(8), key=lambda b: NOC[0][b])
    assert NOC[0][far] == 8
    result = cache.access(0, far << BANK_SHIFT)
    assert not result.hit
    record_access(stats, result)
    assert stats.total_llc_cycles == 30
    # So does a request partial disabling sends straight to memory.
    latencies = [6] * BANK_GEO.num_sets
    latencies[3] = 10
    policy = partial_disable(LatencyMap(LayoutKind.WAY_ALIGNED, latencies,
                                        6, 10))
    uca = NucaCache(BANK_GEO, None, LayoutKind.WAY_ALIGNED, [policy])
    for _ in range(2):
        result = uca.access(0, 3 << 6)
        assert not result.hit
        record_access(stats, result)
    assert stats.total_llc_cycles == 3 * 30


def test_equal_banks_reduce_mapping_to_distance_only():
    # With identical per-bank latency maps, page mapping with unified costs
    # equals a pure NoC-distance assignment.
    geometry = CacheGeometry(GEO_TOTAL.capacity_bytes // 8, 8, 64)
    avg = bank_average_latency([6, 6, 7, 7, 8, 8, 10, 10])
    rng = random.Random(4)
    draws = [(p, rng.randrange(4), rng.randrange(1, 100)) for p in range(16)]
    profile = PageProfile(*zip(*draws))   # (page, core, count) runs

    span_pages = 1024
    set_latencies = [[avg] * geometry.num_sets] * 8
    inventory = build_frame_inventory(geometry, span_pages, 16, set_latencies)
    assert {f.latency_class for f in inventory.frames} == {avg}
    unified = assign_pages(profile, inventory, NOC)

    inventory2 = build_frame_inventory(geometry, span_pages, 16,
                                       [[0] * geometry.num_sets] * 8)
    distance_only = assign_pages(profile, inventory2, NOC)
    assert unified == distance_only


def test_unified_mapping_beats_noc_oblivious():
    # Random per-bank way aligned maps; unified page mapping (hit latency +
    # NoC) never costs more than latency-only mapping when both are scored
    # with the full unified model.
    rng = random.Random(42)
    bank_geo = CacheGeometry(GEO_TOTAL.capacity_bytes // 8, 8, 64)
    wins = ties = 0
    for trial in range(10):
        lat = [[rng.choice([6, 6, 7, 10]) for _ in range(bank_geo.num_sets)]
               for _ in range(8)]
        set_latencies = [build_nonuniform_groups(
            LatencyMap(LayoutKind.WAY_ALIGNED, l, 6, 10), [6, 7], 4)[0]
            for l in lat]

        draws = [(p, rng.randrange(4), rng.randrange(1, 1000))
                 for p in range(24)]
        profile = PageProfile(*zip(*draws))   # (page, core, count) runs

        page = 512                      # 8-set footprint
        def build():
            return build_frame_inventory(bank_geo, page, 32, set_latencies)

        unified = assign_pages(profile, build(), NOC)
        oblivious = assign_pages(profile, build())
        dominant = dominant_cores(profile)

        def cost(mapping, inventory):
            frames = {f.index: f for f in inventory.frames}
            return sum(profile.counts[p]
                       * (frames[mapping[p]].latency_class
                          + NOC[dominant[p]][frames[mapping[p]].bank])
                       for p in mapping)

        inv = build()
        cu, co = cost(unified, inv), cost(oblivious, inv)
        assert cu <= co
        wins += cu < co
        ties += cu == co
    assert wins >= 5
