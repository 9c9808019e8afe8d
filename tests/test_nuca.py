import random

import pytest

from cnfetcache.cache_core import BankPolicy, partial_disable
from cnfetcache.metrics import RunStats, record_access
from cnfetcache.nuca import (MeshTopology, NucaCache, bank_average_latency,
                             bank_of, noc_latency)
from cnfetcache.pagemap import PageProfile, assign_pages, build_frame_inventory
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vawa import build_nonuniform_groups

TOPO = MeshTopology()
GEO_TOTAL = CacheGeometry(64 * 1024, 8, 64)          # 8 banks x 16 sets


def test_default_topology_shape():
    assert TOPO.num_banks == 8
    assert TOPO.bank_coords[0] == (0, 0)
    assert TOPO.bank_coords[7] == (1, 3)
    assert set(TOPO.core_coords.values()) == {(0, 0), (0, 3), (1, 0), (1, 3)}


def test_noc_latency_examples():
    assert noc_latency(TOPO, 0, 0) == 0                  # same router
    assert noc_latency(TOPO, 0, 7) == 8                  # (1+3) hops, round trip
    assert noc_latency(TOPO, 0, 1) == 2
    with pytest.raises(KeyError):
        noc_latency(TOPO, 9, 0)


def test_noc_latency_depends_only_on_deltas():
    # Pairs with equal coordinate deltas cost the same.
    t = MeshTopology(rows=2, cols=4,
                     core_coords={0: (0, 0), 1: (0, 1), 2: (1, 2)})
    assert noc_latency(t, 0, 1) == noc_latency(t, 1, 2)       # +1 column
    assert noc_latency(t, 0, 5) == noc_latency(t, 1, 6)       # +1 row +1 col


def test_bank_of_single_bank():
    assert bank_of(0xDEADBEEF, 1, GEO_TOTAL) == 0


def test_bank_bits_above_set_bits():
    bank_geo = CacheGeometry(GEO_TOTAL.capacity_bytes // 8, 8, 64)  # 16 sets
    shift = bank_geo.offset_bits + bank_geo.set_bits
    for bank in range(8):
        addr = bank << shift
        assert bank_of(addr, 8, bank_geo) == bank
    # A page-sized region stays within one bank when its lines span fewer
    # sets than a bank holds.
    page = 1024                    # 16 lines = 16 sets = one bank exactly
    for frame in range(16):
        banks = {bank_of(frame * page + line * 64, 8, bank_geo)
                 for line in range(page // 64)}
        assert len(banks) == 1


BANK_GEO = CacheGeometry(GEO_TOTAL.capacity_bytes // 8, 8, 64)   # 16 sets
BANK_SHIFT = BANK_GEO.offset_bits + BANK_GEO.set_bits


def _make_nuca(latencies_per_bank, layout=LayoutKind.WAY_ALIGNED):
    return NucaCache(GEO_TOTAL, TOPO, layout,
                     [BankPolicy(lat) for lat in latencies_per_bank])


def test_unified_latency_additivity():
    # Every (core, bank) hit costs the bank's set latency plus the NoC trip.
    lat = [[6 + b % 4] * BANK_GEO.num_sets for b in range(8)]
    cache = _make_nuca(lat)
    for bank in range(8):
        addr = (bank << BANK_SHIFT) | (3 << 6)
        cache.access(0, addr)
        for core in TOPO.core_coords:
            result = cache.access(core, addr)
            assert result.hit
            assert result.latency_cycles == 6 + bank % 4 + \
                noc_latency(TOPO, core, bank)


def test_access_totals_obey_unified_model():
    cache = _make_nuca([[6] * BANK_GEO.num_sets for _ in range(8)])
    addr = 7 << BANK_SHIFT                  # bank 7, 4 hops from core 0
    assert bank_of(addr, 8, BANK_GEO) == 7
    cache.access(0, addr)
    result = cache.access(0, addr)
    assert result.hit and result.latency_cycles == 6 + 8
    # Same line from another core differs exactly by the NoC delta.
    result3 = cache.access(1, addr)
    assert result3.latency_cycles - result.latency_cycles == \
        noc_latency(TOPO, 1, 7) - noc_latency(TOPO, 0, 7)


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
    far = max(range(8), key=lambda b: noc_latency(TOPO, 0, b))
    assert noc_latency(TOPO, 0, far) == 8
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
    latmap = LatencyMap(LayoutKind.SET_ALIGNED, [6, 6, 7, 7, 8, 8, 10, 10],
                        6, 10)
    avg = bank_average_latency(latmap)
    profile = PageProfile()
    rng = random.Random(4)
    for p in range(16):
        profile.record(p, rng.randrange(4), rng.randrange(1, 100))

    span_pages = 1024
    set_latencies = [[avg] * geometry.num_sets] * 8
    inventory = build_frame_inventory(geometry, span_pages, 16, set_latencies)
    unified = assign_pages(
        profile, inventory,
        lambda f, core: avg + noc_latency(TOPO, core, f.bank))

    inventory2 = build_frame_inventory(geometry, span_pages, 16, set_latencies)
    distance_only = assign_pages(
        profile, inventory2,
        lambda f, core: noc_latency(TOPO, core, f.bank))
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

        profile = PageProfile()
        for p in range(24):
            profile.record(p, rng.randrange(4), rng.randrange(1, 1000))

        page = 512                      # 8-set footprint
        def build():
            return build_frame_inventory(bank_geo, page, 32, set_latencies)

        unified = assign_pages(profile, build(),
                               lambda f, c: f.latency_class
                               + noc_latency(TOPO, c, f.bank))
        oblivious = assign_pages(profile, build(),
                                 lambda f, c: f.latency_class)

        def cost(mapping, inventory):
            frames = {f.index: f for f in inventory.frames}
            return sum(profile.counts[p]
                       * (frames[mapping[p]].latency_class
                          + noc_latency(TOPO, profile.dominant_core(p),
                                        frames[mapping[p]].bank))
                       for p in mapping)

        inv = build()
        cu, co = cost(unified, inv), cost(oblivious, inv)
        assert cu <= co
        wins += cu < co
        ties += cu == co
    assert wins >= 5
