import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache.cache_core import BankPolicy
from cnfetcache.nuca import NucaCache
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vasa import (WayGroups, overhead_report, replay_shuffle, shift,
                             shuffle)

GEO_8WAY = CacheGeometry(8 * 64 * 4, 8, 64)          # 4 sets x 8 ways
LATENCIES = [6, 6, 7, 7, 8, 8, 12, 12]
LATMAP = LatencyMap(LayoutKind.SET_ALIGNED, LATENCIES, 6, 12)
GROUPS = WayGroups.from_latency_map(LATMAP, 4)


def _addr(tag, set_index=0):
    return (tag << (6 + 2)) | (set_index << 6)


def _uca(policy):
    """One-bank set aligned cache over GEO_8WAY: the path every UCA run takes."""
    return NucaCache(GEO_8WAY, None, LayoutKind.SET_ALIGNED, [policy])


def _ds_cache():
    return _uca(BankPolicy(list(LATENCIES), shuffle=GROUPS))


def _fill_set(state, groups, tags):
    """Install 8 distinct tags, one per way, way w holding tags[w]."""
    state.tags[0][:] = tags
    state.order[0][:] = [list(group) for group in groups.groups]


def _set_tbits(state, groups, t_one_ways):
    """Make the listed way of each group its least recent line (T=1)."""
    state.order[0][:] = [sorted(group, key=lambda w: w in t_one_ways)
                         for group in groups.groups]


def _tags(state):
    return list(state.tags[0])


def _tbits(state, set_index=0):
    """T per way: 0 exactly on the most recent line of each way group."""
    fronts = {order[0] for order in state.order[set_index] if order}
    return [0 if w in fronts else 1 for w in range(8)]


def _way_state(state):
    """(valid, tag or None, T) per way of set 0."""
    return [(tag is not None, tag, t)
            for tag, t in zip(state.tags[0], _tbits(state))]


def test_way_groups_partition_by_latency():
    assert GROUPS.groups == [[0, 1], [2, 3], [4, 5], [6, 7]]


@pytest.mark.parametrize("groups", [[], [[0, 1], []], [[]]])
def test_way_groups_reject_an_empty_group_list_or_group(groups):
    with pytest.raises(ValueError, match="non-empty"):
        WayGroups(groups)


@pytest.mark.parametrize("num_groups", [0, -2, 3])
def test_way_groups_from_a_latency_map_need_a_positive_divisor(num_groups):
    with pytest.raises(ValueError, match="positive divisor"):
        WayGroups.from_latency_map(LATMAP, num_groups)


def test_shuffle_hit_in_fastest_group():
    # Hit on Way 1 (G0): only the T bits flip, nothing moves.
    cache = _ds_cache()
    state = cache.banks[0]
    _fill_set(state, GROUPS, list(range(10, 18)))
    _set_tbits(state, GROUPS, t_one_ways={1, 3, 5, 7})
    result = cache.access(0, _addr(11))
    assert result.hit and result.way == 1
    assert result.shuffle_moves == 0
    assert result.latency_cycles == 6
    assert _tags(state) == list(range(10, 18))
    assert _tbits(state) == [1, 0, 0, 1, 0, 1, 0, 1]


def test_shuffle_hit_in_second_group_swaps():
    # Hit on Way 3 (G1) with G0's T=1 on Way 0: blocks of Way 0 and Way 3
    # swap, both arriving blocks get T=0, their siblings T=1.
    cache = _ds_cache()
    state = cache.banks[0]
    _fill_set(state, GROUPS, list(range(10, 18)))
    _set_tbits(state, GROUPS, t_one_ways={0, 3, 5, 7})
    result = cache.access(0, _addr(13))
    assert result.hit and result.way == 3
    assert result.shuffle_moves == 2
    assert result.latency_cycles == 7
    assert _tags(state) == [13, 11, 12, 10, 14, 15, 16, 17]
    assert _tbits(state) == [0, 1, 1, 0, 0, 1, 0, 1]


def test_shuffle_hit_in_slowest_group_cascades():
    # Hit on Way 7 (G3): promoted to Way 1 (G0's T=1), each displaced T=1
    # block drops one group, the last lands in the vacated Way 7.
    cache = _ds_cache()
    state = cache.banks[0]
    _fill_set(state, GROUPS, list(range(10, 18)))
    _set_tbits(state, GROUPS, t_one_ways={1, 3, 5, 7})
    result = cache.access(0, _addr(17))
    assert result.hit and result.way == 7
    assert result.shuffle_moves == 4
    assert result.latency_cycles == 12
    assert _tags(state) == [10, 17, 12, 11, 14, 13, 16, 15]
    assert _tbits(state) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_shuffle_miss_inserts_at_fast_group_and_evicts_slow():
    # Miss with G0's T=1 on Way 1: the new block takes Way 1, the chain of
    # displaced T=1 blocks runs through every group, and the slowest group's
    # T=1 block (Way 7) is the victim.
    cache = _ds_cache()
    state = cache.banks[0]
    _fill_set(state, GROUPS, list(range(10, 18)))
    _set_tbits(state, GROUPS, t_one_ways={1, 3, 5, 7})
    result = cache.access(0, _addr(99))
    assert not result.hit
    assert result.shuffle_moves == 4
    assert result.evicted_tag == 17
    assert _tags(state) == [10, 99, 12, 11, 14, 13, 16, 15]
    assert _tbits(state) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_shuffle_returns_the_chain_the_contents_follow():
    # G0's T=1 ways are 1, 3, 5 and 7 when each order lists its lower way first.
    def full():
        return [list(group) for group in GROUPS.groups]

    tags = list(range(10, 18))
    assert shuffle(full(), GROUPS, 1) == ([1], 0)
    orders = full()
    assert shuffle(orders, GROUPS, 7) == ([1, 3, 5, 7], 4)
    assert orders == [[1, 0], [3, 2], [5, 4], [7, 6]]
    assert shift(tags, [1, 3, 5, 7], 17) == 17
    assert tags == [10, 17, 12, 11, 14, 13, 16, 15]
    assert shuffle(full(), GROUPS, None) == ([1, 3, 5, 7], 4)
    # A free way is filled in place: nothing cascades, nothing is pushed out.
    orders = []
    assert shuffle(orders, GROUPS, None) == ([0], 0)
    assert shuffle(orders, GROUPS, None) == ([1], 0)
    assert shuffle(orders, GROUPS, None) == ([2], 0)
    assert orders == [[1, 0], [2], [], []]
    assert shift([None] * 8, [2], 42) is None


def test_vasa_hit_latency_is_way_latency():
    latencies = [6, 9, 7, 7, 8, 8, 12, 12]
    access = _uca(BankPolicy(latencies)).access
    access(0, _addr(5))
    result = access(0, _addr(5))
    assert result.hit and result.latency_cycles == latencies[result.way]
    miss = access(0, _addr(6))
    assert not miss.hit and miss.shuffle_moves == 0


def test_vasa_hit_sequence_matches_baseline():
    vasa = _uca(BankPolicy(list(LATENCIES))).access
    base = _uca(BankPolicy([12] * 8)).access
    rng = random.Random(3)
    for _ in range(20_000):
        addr = rng.randrange(1 << 14) & ~63
        a = vasa(0, addr)
        b = base(0, addr)
        assert a.hit == b.hit and a.way == b.way


def test_repeated_hits_converge_to_fast_group():
    cache = _ds_cache()
    state = cache.banks[0]
    _fill_set(state, GROUPS, list(range(10, 18)))
    _set_tbits(state, GROUPS, t_one_ways={1, 3, 5, 7})
    first = cache.access(0, _addr(16))   # way 6, G3
    assert first.shuffle_moves > 0
    for _ in range(5):
        again = cache.access(0, _addr(16))
        assert again.hit
        assert again.way in GROUPS.groups[0]
        assert again.latency_cycles <= 6
        assert again.shuffle_moves == 0


def test_tbit_wellformed_and_tags_preserved_under_shuffles():
    cache = _ds_cache()
    state = cache.banks[0]
    rng = random.Random(5)
    for _ in range(20_000):
        addr = (rng.randrange(24) << 8) | (rng.randrange(4) << 6)
        _, set_index = addr >> 8, (addr >> 6) & 3
        before = sorted(t for t in state.tags[set_index] if t is not None)
        result = cache.access(0, addr, rng.random() < 0.3, 1)
        after = sorted(t for t in state.tags[set_index] if t is not None)
        if result.hit:
            assert before == after
        # Each group's order lists exactly its valid ways, so a non-empty
        # group has one T=0 line and an empty one has none.
        tbits = _tbits(state, set_index)
        for group, order in zip(GROUPS.groups, state.order[set_index]):
            valid = [w for w in group if state.tags[set_index][w] is not None]
            assert sorted(order) == valid
            assert sum(tbits[w] == 0 for w in group) == (1 if valid else 0)


# ---------------------------------------------------------------------------
# Independent straight-line transcription of the four shuffle scenarios for
# an 8-way set in four 2-way groups.  No engine helpers are used.
# ---------------------------------------------------------------------------

class StraightLineShuffleOracle:
    def __init__(self):
        self.valid = [False] * 8
        self.tags = [0] * 8
        self.T = [1] * 8

    def _sibling(self, way):
        return way ^ 1

    def _set_arrived(self, way):
        self.T[way] = 0
        sib = self._sibling(way)
        self.T[sib] = 1

    def access(self, tag):
        """Returns (hit, way_or_None, moves, evicted_tag_or_None)."""
        way = None
        for w in range(8):
            if self.valid[w] and self.tags[w] == tag:
                way = w
                break

        if way is not None:
            k = way // 2
            if k == 0:
                self._set_arrived(way)
                return True, way, 0, None
            carried = self.tags[way]
            moves = 0
            for g in range(k):
                w0, w1 = 2 * g, 2 * g + 1
                free = None
                if not self.valid[w0]:
                    free = w0
                elif not self.valid[w1]:
                    free = w1
                if free is not None:
                    self.tags[free] = carried
                    self.valid[free] = True
                    self._set_arrived(free)
                    self.valid[way] = False
                    sib = self._sibling(way)
                    self.T[way] = 1
                    if self.valid[sib]:
                        self.T[sib] = 0
                    return True, way, moves + 1, None
                dst = w0 if self.T[w0] == 1 else w1
                displaced = self.tags[dst]
                self.tags[dst] = carried
                self._set_arrived(dst)
                carried = displaced
                moves += 1
            self.tags[way] = carried
            self._set_arrived(way)
            return True, way, moves + 1, None

        # Miss: fill the first invalid slot of the fastest group, else insert
        # at G0's T=1 slot and cascade, evicting G3's T=1 block.
        for w in range(8):
            if not self.valid[w]:
                self.tags[w] = tag
                self.valid[w] = True
                self._set_arrived(w)
                return False, None, 0, None
        victim = 6 if self.T[6] == 1 else 7
        evicted = self.tags[victim]
        carried = tag
        moves = 0
        for g in range(4):
            if g < 3:
                w0, w1 = 2 * g, 2 * g + 1
                dst = w0 if self.T[w0] == 1 else w1
            else:
                dst = victim
            displaced = self.tags[dst]
            self.tags[dst] = carried
            self._set_arrived(dst)
            carried = displaced
            moves += 1
        return False, None, moves, evicted


def test_engine_agrees_with_straight_line_oracle():
    cache = _ds_cache()
    state = cache.banks[0]
    oracle = StraightLineShuffleOracle()
    rng = random.Random(77)
    for i in range(10_000):
        tag = rng.randrange(20)
        result = cache.access(0, _addr(tag))
        hit, way, moves, evicted = oracle.access(tag)
        assert result.hit == hit, f"step {i}"
        if hit:
            assert result.way == way, f"step {i}"
        assert result.shuffle_moves == moves, f"step {i}"
        assert result.evicted_tag == evicted, f"step {i}"
        got = _way_state(state)
        want = [(oracle.valid[w], oracle.tags[w] if oracle.valid[w] else None,
                 oracle.T[w]) for w in range(8)]
        assert got == want, f"step {i}"


def test_delay_registers_and_overhead():
    geo = CacheGeometry(2 * 1024 * 1024, 8, 64)
    report = overhead_report(geo)
    assert report["delay_register_bytes"] == 4
    assert report["row_metadata_bytes_total"] == 4096
    assert report["shuffle_register_bytes"] == 260
    # A register file of 4-bit registers takes whole bytes: 1 way needs 1.
    for ways, register_bytes in ((1, 1), (2, 1), (4, 2), (16, 8)):
        geo = CacheGeometry(ways * 64 * 4, ways, 64)
        assert overhead_report(geo)["delay_register_bytes"] == register_bytes


# ---------------------------------------------------------------------------
# The pass's DS kernel (`replay_shuffle`, one LRU stack per set) against a
# straight replay of every set through the engine's `shuffle` and `shift`.
# ---------------------------------------------------------------------------

def _straight_replay(sets, tags, groups):
    """Landings and summed moves of `shuffle` + `shift`, each set from empty."""
    ways = len(groups.group_of)
    slots, orders, out, moves = {}, {}, [], 0
    for s, tag in zip(sets, tags):
        held = slots.setdefault(s, [None] * ways)
        way = held.index(tag) if tag in held else None
        chain, step = shuffle(orders.setdefault(s, []), groups, way)
        out.append(-1 - chain[0] if way is None else way * ways)
        shift(held, chain, tag)
        moves += step
    return out, moves


@st.composite
def partitions(draw):
    """1 to 9 ways in shuffled order, cut into groups of any sizes: one
    group, 1-way groups, uneven and unsorted ones."""
    ways = draw(st.integers(1, 9))
    order = draw(st.permutations(range(ways)))
    cuts = sorted(draw(st.sets(st.integers(1, ways - 1))) if ways > 1 else [])
    return WayGroups([list(order[a:b])
                      for a, b in zip([0, *cuts], [*cuts, ways])])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(groups=partitions(), data=st.data())
def test_replay_shuffle_matches_the_straight_shuffle_replay(groups, data):
    ways = len(groups.group_of)
    refs = data.draw(st.lists(st.tuples(st.integers(0, 3),
                                        st.integers(0, ways + 3)),
                              max_size=300))
    refs.sort(key=lambda ref: ref[0])         # by set, stable
    sets = np.array([s for s, _ in refs], dtype=np.int64)
    tags = np.array([t for _, t in refs], dtype=np.uint64)
    landing, moves = replay_shuffle(sets, tags, groups)
    assert (landing.tolist(), moves) == _straight_replay(
        sets.tolist(), tags.tolist(), groups)


def test_replay_shuffle_fill_rule():
    # With two 1-way groups, A fills G0's way 0 and B G1's way 1.  C enters
    # way 0, A drops to way 1 and B, the slowest group's block, is evicted
    # (LRU would evict A): two moves.  A then hits in way 1 (landing 1 * 2
    # ways), and swapping back with C costs two more.
    groups, tags = WayGroups([[0], [1]]), [10, 11, 12, 10]
    want = ([-1, -2, -1, 2], 4)
    landing, moves = replay_shuffle(np.zeros(len(tags), dtype=np.int64),
                                    np.array(tags, dtype=np.uint64), groups)
    assert (landing.tolist(), moves) == want
    assert _straight_replay([0] * len(tags), tags, groups) == want
