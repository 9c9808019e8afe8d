import random

import pytest

from cnfetcache.cache_core import BankPolicy, partial_disable, worst_groups
from cnfetcache.nuca import NucaCache
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vasa import WayGroups

GEO_2MB = CacheGeometry(2 * 1024 * 1024, 8, 64)
GEO_SMALL = CacheGeometry(4 * 1024, 4, 64)   # 16 sets x 4 ways


def _setmap(geometry, latencies, lo=6, hi=12):
    return LatencyMap(LayoutKind.SET_ALIGNED, latencies, lo, hi)


def _waymap(geometry, latencies, lo=6, hi=10):
    return LatencyMap(LayoutKind.WAY_ALIGNED, latencies, lo, hi,
                      geometry=geometry)


def _uca(geometry, policy, layout=LayoutKind.SET_ALIGNED):
    """A one-bank cache: the access path every UCA run takes."""
    cache = NucaCache(geometry, None, layout, [policy])
    return cache, cache.access


def _baseline(geometry, worst=12):
    return _uca(geometry, BankPolicy([worst] * geometry.num_ways))


def _filed(address):
    """(tag, set index, line address) of the line an access to address
    fills in an empty one-bank GEO_2MB cache, read off the cache state."""
    cache, access = _baseline(GEO_2MB)
    access(0, address)
    state = cache.banks[0]
    (set_index,) = [s for s, order in enumerate(state.order) if order]
    tag = state.tags[set_index][state.order[set_index][0]]
    return tag, set_index, state.line_address(tag, set_index)


def test_decompose_zero():
    assert _filed(0) == (0, 0, 0)


def test_decompose_bit_arithmetic():
    # 64-byte lines, 4096 sets: offset = bits 0..5, set = bits 6..17.
    assert _filed(0x10040) == (0, 0x401, 0x10040)
    assert _filed((1 << 18) | (1 << 6) | 5) == (1, 1, (1 << 18) | (1 << 6))
    assert _filed(0xFFFF_FFFF) == (0xFFFFFFC0 >> 18, 4095, 0xFFFF_FFC0)


def test_decompose_recompose_random():
    cache, access = _baseline(GEO_2MB)
    state = cache.banks[0]
    rng = random.Random(0)
    for _ in range(1000):
        addr = rng.getrandbits(40)
        access(0, addr)
        set_index = (addr >> 6) & 4095
        tag = state.tags[set_index][state.order[set_index][0]]
        line_addr = state.line_address(tag, set_index)
        assert (tag << 18) | (set_index << 6) == line_addr
        assert line_addr | (addr & 63) == addr


def test_empty_cache_misses():
    _, access = _baseline(GEO_SMALL)
    result = access(0, 0x1234)
    assert not result.hit
    assert result.evicted_tag is None
    assert result.latency_cycles is None


def test_hit_costs_worst_timing():
    latmap = _setmap(GEO_SMALL, [6, 6, 6, 12])
    _, access = _baseline(GEO_SMALL, latmap.worst())
    access(0, 0x40)
    result = access(0, 0x40)
    assert result.hit and result.latency_cycles == 12


def test_lru_keeps_recent_line():
    _, access = _baseline(GEO_SMALL)
    stride = GEO_SMALL.num_sets * GEO_SMALL.line_bytes
    addrs = [i * stride for i in range(4)]       # same set, distinct tags
    for a in addrs:
        access(0, a)
    assert access(0, addrs[0]).hit


class TextbookLru:
    """Order-list LRU reference, independently coded."""

    def __init__(self, num_sets, num_ways, line_bytes):
        self.sets = [[] for _ in range(num_sets)]
        self.num_ways = num_ways
        self.num_sets = num_sets
        self.line_bytes = line_bytes

    def access(self, addr):
        line = addr // self.line_bytes
        s = line % self.num_sets
        tag = line // self.num_sets
        order = self.sets[s]
        if tag in order:
            order.remove(tag)
            order.insert(0, tag)
            return True
        order.insert(0, tag)
        if len(order) > self.num_ways:
            order.pop()
        return False


def test_lru_reference_property():
    geometry = CacheGeometry(4 * 1024, 4, 64)
    _, access = _baseline(geometry)
    oracle = TextbookLru(geometry.num_sets, geometry.num_ways,
                         geometry.line_bytes)
    rng = random.Random(42)
    for _ in range(10_000):
        addr = rng.randrange(64 * 1024)
        got = access(0, addr, rng.random() < 0.3, 1)
        assert got.hit == oracle.access(addr)


def test_memory_consistency_baseline():
    _, access = _baseline(GEO_SMALL)
    rng = random.Random(7)
    ref = {}
    seq = 0
    for _ in range(20_000):
        addr = rng.randrange(16 * 1024) & ~63
        if rng.random() < 0.4:
            seq += 1
            ref[addr] = seq
            access(0, addr, True, seq)
        else:
            result = access(0, addr)
            assert result.value == ref.get(addr, 0)


def _valid_tags(state, set_index):
    return sorted(t for t in state.tags[set_index] if t is not None)


def test_tag_multiset_changes_by_at_most_one():
    cache, access = _baseline(GEO_SMALL)
    state = cache.banks[0]
    rng = random.Random(9)
    for _ in range(5000):
        addr = rng.randrange(32 * 1024) & ~63
        set_index = (addr >> GEO_SMALL.offset_bits) & (GEO_SMALL.num_sets - 1)
        before = _valid_tags(state, set_index)
        result = access(0, addr)
        after = _valid_tags(state, set_index)
        added = [t for t in after if t not in before or after.count(t) > before.count(t)]
        removed = [t for t in before if t not in after or before.count(t) > after.count(t)]
        assert len(added) <= 1 and len(removed) <= 1
        if result.evicted_tag is not None:
            assert result.evicted_tag in removed


def test_partial_disable_hand_trace():
    # One slow way disabled: 7 ways remain, the cache clocks at 6.
    geometry = CacheGeometry(32 * 1024, 8, 64)
    latmap = _setmap(geometry, [6, 6, 6, 6, 6, 6, 6, 12])
    assert worst_groups(latmap) == {7}
    policy = partial_disable(latmap)
    assert policy.disabled == {7}
    assert policy.latency == [6] * 8
    cache, access = _uca(geometry, policy)
    access(0, 0x100)
    result = access(0, 0x100)
    assert result.hit and result.latency_cycles == 6
    assert all(tags[7] is None for tags in cache.banks[0].tags)


def test_partial_disable_all_equal_is_baseline():
    latmap = _setmap(GEO_SMALL, [9, 9, 9, 9])
    assert worst_groups(latmap) == set()
    _, pd = _uca(GEO_SMALL, partial_disable(latmap))
    _, base = _baseline(GEO_SMALL, 9)
    rng = random.Random(11)
    for _ in range(3000):
        addr = rng.randrange(16 * 1024) & ~63
        a = pd(0, addr)
        b = base(0, addr)
        assert (a.hit, a.way, a.latency_cycles) == (b.hit, b.way, b.latency_cycles)


def test_partial_disable_everything_rejected():
    # Disabling every group fails when the bank is built, not per access.
    with pytest.raises(ValueError, match="all cache ways disabled"):
        partial_disable(_setmap(CacheGeometry(1024, 1, 64), [12]), {0})
    with pytest.raises(ValueError, match="all cache sets disabled"):
        partial_disable(_waymap(GEO_SMALL, [10] * 16), set(range(16)))


def test_partial_disable_way_aligned_bypass():
    geometry = CacheGeometry(4 * 1024, 4, 64)   # 16 sets
    latencies = [6] * 16
    latencies[3] = 10
    latmap = _waymap(geometry, latencies)
    assert worst_groups(latmap) == {3}
    policy = partial_disable(latmap)
    assert policy.disabled == {3} and policy.latency == [6] * 16
    cache, access = _uca(geometry, policy, LayoutKind.WAY_ALIGNED)
    addr_disabled = 3 * 64
    # Writes go straight to memory, reads come back from memory, never a hit.
    access(0, addr_disabled, True, 5)
    result = access(0, addr_disabled)
    assert not result.hit and result.value == 5
    assert cache.banks[0].tags[3] == [None] * 4
    # Enabled sets behave like a 6-cycle cache.
    access(0, 0x40)
    result = access(0, 0x40)
    assert result.hit and result.latency_cycles == 6


def test_bank_policy_rejects_bad_disabled_groups():
    # `nuca.price` counts a set aligned bank's hits to depth
    # ways - len(disabled), which holds only for groups the bank has and
    # for a bank that does not also shuffle.
    with pytest.raises(ValueError, match=r"disabled groups \[4\] are not "
                                         r"all in 0\.\.3"):
        BankPolicy([6] * 4, {4})
    with pytest.raises(ValueError, match="not all in"):
        BankPolicy([6] * 4, {-1, 2})
    groups = WayGroups.from_latency_map(_setmap(GEO_SMALL, [6, 7, 8, 9]), 2)
    with pytest.raises(ValueError, match="both disable groups and shuffle"):
        BankPolicy([6] * 4, {3}, groups)
    assert BankPolicy([6] * 4, {0, 3}).disabled == {0, 3}
    assert BankPolicy([6] * 4, shuffle=groups).disabled == frozenset()
