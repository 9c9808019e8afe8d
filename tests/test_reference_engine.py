"""Differential oracle for the access path: a frozen copy of the object
engine that the list-state engines replaced (a `CacheLine` per way with an
LRU rank and a T bit, routed as `NucaCache.access` routed it then), run
side by side with `NucaCache` on random traces: every access must give the
same result, and both must end in the same state.  The reference keeps
the free slot branch of the shuffle promotion, although no trace can reach
it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache.cache_core import AccessResult, BankPolicy, partial_disable
from cnfetcache.nuca import NucaCache, noc_table
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vasa import WayGroups


class CacheLine:
    """One cache line: tag/valid/dirty plus replacement metadata.

    lru_rank is the recency rank (0 = most recent) within the set, or within
    the line's way group when the data-shuffling policy manages the set.
    priority_bit is the 1-bit T field used by way-group shuffling: 0 marks
    the most recently used line of its group.
    """

    __slots__ = ("valid", "tag", "addr", "data", "dirty", "lru_rank",
                 "priority_bit")

    def __init__(self):
        self.valid = False
        self.tag = 0
        self.addr = 0
        self.data = 0
        self.dirty = False
        self.lru_rank = 0
        # Invalid lines carry the low-priority value; only the group MRU is 0.
        self.priority_bit = 1

    def __repr__(self):
        return (f"CacheLine(valid={self.valid}, tag={self.tag:#x}, "
                f"rank={self.lru_rank}, T={self.priority_bit})")


class ReferenceState:
    def __init__(self, geometry, memory):
        self.sets = [[CacheLine() for _ in range(geometry.num_ways)]
                     for _ in range(geometry.num_sets)]
        self.memory = memory


def find_way(lines, tag, allowed=None):
    """Index of the valid line holding tag, searched over allowed ways."""
    if allowed is None:
        for w, line in enumerate(lines):
            if line.valid and line.tag == tag:
                return w
    else:
        for w in allowed:
            line = lines[w]
            if line.valid and line.tag == tag:
                return w
    return None


def promote_lru(lines, way, allowed=None):
    """Make `way` most recent; ranks of younger valid lines age by one."""
    ways = range(len(lines)) if allowed is None else allowed
    prev = lines[way].lru_rank
    for w in ways:
        line = lines[w]
        if line.valid and line.lru_rank < prev:
            line.lru_rank += 1
    lines[way].lru_rank = 0


def pick_victim(lines, allowed=None):
    """Way to fill: an invalid way if any, else the LRU valid way."""
    ways = range(len(lines)) if allowed is None else allowed
    victim = None
    worst_rank = -1
    for w in ways:
        line = lines[w]
        if not line.valid:
            return w, False
        if line.lru_rank > worst_rank:
            worst_rank = line.lru_rank
            victim = w
    return victim, True


def install(state, lines, way, tag, line_addr, write, value, allowed=None):
    """Evict (if needed) and fill `way` with the line for line_addr.

    Returns (evicted_tag, evicted_addr, evicted_dirty).
    """
    line = lines[way]
    evicted_tag = evicted_addr = None
    evicted_dirty = False
    if line.valid:
        evicted_tag = line.tag
        evicted_addr = line.addr
        evicted_dirty = line.dirty
        if line.dirty:
            state.memory[line.addr] = line.data
    else:
        # Newly valid line enters as the oldest, then gets promoted.
        ways = range(len(lines)) if allowed is None else allowed
        line.lru_rank = sum(1 for w in ways if lines[w].valid)
        line.valid = True
    line.tag = tag
    line.addr = line_addr
    line.data = state.memory.get(line_addr, 0)
    line.dirty = False
    if write:
        line.data = value
        line.dirty = True
    promote_lru(lines, way, allowed)
    return evicted_tag, evicted_addr, evicted_dirty


def reference_lru(state, set_index, tag, line_addr, write, value, ways=None):
    """Plain LRU lookup and fill of one set.

    `ways` restricts lookup, replacement and recency to those ways (the
    ways partial disabling leaves enabled); None means every way.  The
    result names the hit way and leaves the latency to the caller.
    """
    lines = state.sets[set_index]
    way = find_way(lines, tag, ways)
    if way is not None:
        line = lines[way]
        if write:
            line.data = value
            line.dirty = True
        promote_lru(lines, way, ways)
        return AccessResult(True, way, write=write, value=line.data)
    way, _ = pick_victim(lines, ways)
    ev_tag, ev_addr, ev_dirty = install(state, lines, way, tag, line_addr,
                                        write, value, ways)
    return AccessResult(False, evicted_tag=ev_tag, write=write,
                        value=lines[way].data, evicted_addr=ev_addr,
                        evicted_dirty=ev_dirty)



def _group_mru_update(lines, group_ways, way):
    """Make `way` the group's most recent line and refresh T bits."""
    prev = lines[way].lru_rank
    for w in group_ways:
        line = lines[w]
        if line.valid and line.lru_rank < prev:
            line.lru_rank += 1
    lines[way].lru_rank = 0
    for w in group_ways:
        line = lines[w]
        line.priority_bit = 0 if (line.valid and line.lru_rank == 0) else 1


def _group_lru_way(lines, group_ways):
    """The group's least recently used valid way (its T=1 slot)."""
    victim = None
    worst = -1
    for w in group_ways:
        line = lines[w]
        if line.valid and line.lru_rank > worst:
            worst = line.lru_rank
            victim = w
    return victim


def _group_free_way(lines, group_ways):
    for w in group_ways:
        if not lines[w].valid:
            return w
    return None


def _copy_block(dst, src):
    dst.valid = True
    dst.tag = src[0]
    dst.addr = src[1]
    dst.data = src[2]
    dst.dirty = src[3]


def _snapshot(line):
    return (line.tag, line.addr, line.data, line.dirty)


def reference_vasa_ds(state, set_index, tag, line_addr, write, value, groups):
    """Set aligned access with latency-aware data shuffling.

    Hit in G0: the line just becomes its group's most recent (no movement).
    Hit in Gk (k >= 1): the block is promoted into G0's T=1 slot and every
    displaced group-LRU block cascades one group down, the last one landing
    in the slot the hit vacated.  Miss: the incoming block enters G0's T=1
    slot, the cascade runs through all groups, and the slowest group's T=1
    block is the victim.  The result's way is where the block resided
    before any shuffling, so a hit is charged that way's latency; moves are
    counted for the energy model only.
    """
    lines = state.sets[set_index]
    way = find_way(lines, tag)
    num_groups = len(groups.groups)

    if way is not None:
        line = lines[way]
        if write:
            line.data = value
            line.dirty = True
        hit_value = line.data      # the slot is reoccupied by any shuffle
        k = groups.group_of[way]
        if k == 0:
            _group_mru_update(lines, groups.groups[0], way)
            return AccessResult(True, way, write=write, value=hit_value)
        moves = _promote_chain(lines, groups, way, k)
        return AccessResult(True, way, write=write, value=hit_value,
                            shuffle_moves=moves)

    # Miss: fill an invalid slot in the fastest group that has one, else
    # insert at G0's T=1 slot and cascade with eviction from the last group.
    free = None
    for gi in range(num_groups):
        free = _group_free_way(lines, groups.groups[gi])
        if free is not None:
            break
    if free is not None:
        install(state, lines, free, tag, line_addr, write, value,
                allowed=groups.groups[gi])
        _group_mru_update(lines, groups.groups[gi], free)
        return AccessResult(False, write=write, value=lines[free].data)

    victim_way = _group_lru_way(lines, groups.groups[-1])
    victim = lines[victim_way]
    ev_tag, ev_addr, ev_dirty = victim.tag, victim.addr, victim.dirty
    if victim.dirty:
        state.memory[victim.addr] = victim.data

    incoming_data = state.memory.get(line_addr, 0)
    incoming_dirty = False
    if write:
        incoming_data = value
        incoming_dirty = True
    carried = (tag, line_addr, incoming_data, incoming_dirty)
    moves = 0
    for gi in range(num_groups):
        gw = groups.groups[gi]
        dst = _group_lru_way(lines, gw) if gi < num_groups - 1 else victim_way
        displaced = _snapshot(lines[dst])
        _copy_block(lines[dst], carried)
        _group_mru_update(lines, gw, dst)
        carried = displaced
        moves += 1
    return AccessResult(False, evicted_tag=ev_tag, write=write,
                        value=incoming_data, shuffle_moves=moves,
                        evicted_addr=ev_addr, evicted_dirty=ev_dirty)


def _promote_chain(lines, groups, way, k):
    """Promote the hit block at `way` (group k >= 1) into G0 and cascade.

    Each group along the chain receives the displaced block in its free slot
    if it has one (ending the chain early); otherwise in its T=1 slot, whose
    occupant continues downward.  The final displaced block lands in the
    slot the hit block vacated.
    """
    carried = _snapshot(lines[way])
    vacated = way
    moves = 0
    for gi in range(0, k):
        gw = groups.groups[gi]
        free = _group_free_way(lines, gw)
        if free is not None:
            _copy_block(lines[free], carried)
            _group_mru_update(lines, gw, free)
            lines[vacated].valid = False
            lines[vacated].dirty = False
            _refresh_group_bits(lines, groups.groups[groups.group_of[vacated]])
            return moves + 1
        dst = _group_lru_way(lines, gw)
        displaced = _snapshot(lines[dst])
        _copy_block(lines[dst], carried)
        _group_mru_update(lines, gw, dst)
        carried = displaced
        moves += 1
    _copy_block(lines[vacated], carried)
    _group_mru_update(lines, groups.groups[k], vacated)
    return moves + 1


def _refresh_group_bits(lines, group_ways):
    ranks = sorted((lines[w].lru_rank, w) for w in group_ways if lines[w].valid)
    for new_rank, (_, w) in enumerate(ranks):
        lines[w].lru_rank = new_rank
        lines[w].priority_bit = 0 if new_rank == 0 else 1


def reference_bypass(state, line_addr, write, value):
    if write:
        state.memory[line_addr] = value
        return AccessResult(False, write=True, value=value)
    return AccessResult(False, value=state.memory.get(line_addr, 0))


class ReferenceCache:
    """The object-engine access path over the same bank policies."""

    def __init__(self, total_geometry, noc, layout, policies):
        banks = len(policies)
        geometry = CacheGeometry(total_geometry.capacity_bytes // banks,
                                 total_geometry.num_ways,
                                 total_geometry.line_bytes)
        self.memory = {}
        self.states = [ReferenceState(geometry, self.memory)
                       for _ in policies]
        self.policies = policies
        self.per_set = layout is LayoutKind.WAY_ALIGNED
        # Each bank's engine and its last argument: the way groups for
        # data shuffling, the enabled ways for a set aligned bank that
        # partial disabling restricts, else every way.
        self.engines = [
            (reference_vasa_ds, p.shuffle) if p.shuffle is not None
            else (reference_lru, None if self.per_set or not p.disabled
                  else [w for w in range(geometry.num_ways)
                        if w not in p.disabled])
            for p in policies]
        self.noc = noc
        self.geometry = geometry
        self.num_banks = banks

    def access(self, core_id, address, write=False, value=0):
        g = self.geometry
        line = address >> g.offset_bits
        set_index = line % g.num_sets
        tag = address >> (g.offset_bits + g.set_bits)
        bank = tag % self.num_banks
        line_addr = line << g.offset_bits
        policy = self.policies[bank]
        state = self.states[bank]
        if self.per_set and set_index in policy.disabled:
            return reference_bypass(state, line_addr, write, value)
        engine, restriction = self.engines[bank]
        result = engine(state, set_index, tag, line_addr, write, value,
                        restriction)
        if result.hit:
            noc = 0 if self.noc is None else self.noc[core_id][bank]
            result.latency_cycles = (
                policy.latency[set_index if self.per_set else result.way]
                + noc)
        return result


BANK_GEOMETRY = CacheGeometry(4 * 8 * 64, 8, 64)       # 4 sets x 8 ways
TOPOLOGIES = {1: None, 2: noc_table(1, 2, 1, 2), 8: noc_table(2, 4, 1, 2)}
KINDS = ["lru", "pd_set", "pd_way", "ds1", "ds2", "ds4", "ds8"]
FIELDS = ("hit", "way", "latency_cycles", "evicted_tag", "evicted_addr",
          "evicted_dirty", "shuffle_moves", "value", "write")


def _policy(kind, latencies):
    if kind == "pd_way":
        return partial_disable(LatencyMap(LayoutKind.WAY_ALIGNED, latencies,
                                          6, 12))
    latmap = LatencyMap(LayoutKind.SET_ALIGNED, latencies, 6, 12)
    if kind == "pd_set":
        return partial_disable(latmap)
    if kind == "lru":
        return BankPolicy(latencies)
    groups = WayGroups.from_latency_map(latmap, int(kind[2:]))
    return BankPolicy(latencies, shuffle=groups)


def _assert_same_state(cache, reference, policies):
    """Every way holds the same line, value and dirty flag in both engines,
    and each list order ranks its ways as the reference's LRU ranks and T
    bits do."""
    for state, ref, policy in zip(cache.banks, reference.states, policies):
        ds = policy.shuffle is not None
        for s, lines in enumerate(ref.sets):
            valid = [w for w, line in enumerate(lines) if line.valid]
            assert state.tags[s] == [line.tag if line.valid else None
                                     for line in lines]
            assert [(state.data[s][w], state.dirty[s][w]) for w in valid] \
                == [(lines[w].data, lines[w].dirty) for w in valid]
            orders = state.order[s] if ds else [state.order[s]]
            assert sorted(w for order in orders for w in order) == valid
            for order in orders:
                for rank, w in enumerate(order):
                    assert lines[w].lru_rank == rank
                    if ds:
                        assert lines[w].priority_bit == (rank > 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kind=st.sampled_from(KINDS),
       banks=st.sampled_from(sorted(TOPOLOGIES)))
def test_list_engines_match_object_reference(data, kind, banks):
    layout = (LayoutKind.WAY_ALIGNED if kind == "pd_way"
              else LayoutKind.SET_ALIGNED)
    groups = (BANK_GEOMETRY.num_sets if layout is LayoutKind.WAY_ALIGNED
              else BANK_GEOMETRY.num_ways)
    policies = [_policy(kind, data.draw(st.lists(
        st.integers(6, 12), min_size=groups, max_size=groups)))
        for _ in range(banks)]
    total = CacheGeometry(BANK_GEOMETRY.capacity_bytes * banks,
                          BANK_GEOMETRY.num_ways, BANK_GEOMETRY.line_bytes)
    noc = TOPOLOGIES[banks]
    cache = NucaCache(total, noc, layout, policies)
    reference = ReferenceCache(total, noc, layout, policies)
    # Each access is three drawn bytes, so long traces stay cheap to draw:
    # bit 0 writes, bits 1-6 are the byte offset, bits 7-8 the core, and
    # the rest pick one of twelve tags in one of the first `hot` (bank,
    # set) slots, so sets fill, evict and shuffle.
    hot = data.draw(st.integers(1, banks * BANK_GEOMETRY.num_sets))
    raw = data.draw(st.binary(min_size=300, max_size=1200))
    sets = BANK_GEOMETRY.num_sets
    for seq, i in enumerate(range(0, len(raw) - 2, 3), start=1):
        x = int.from_bytes(raw[i:i + 3], "little")
        write, offset, core = bool(x & 1), (x >> 1) & 63, (x >> 7) & 3
        tag, slot = (x >> 9) % 12, (x >> 9) // 12 % hot
        bank, set_index = slot % banks, slot // banks
        address = (((tag * banks + bank) * sets + set_index) << 6) | offset
        got = cache.access(core, address, write, seq)
        want = reference.access(core, address, write, seq)
        for name in FIELDS:
            assert getattr(got, name) == getattr(want, name), (seq, name)
    assert cache.memory == reference.memory
    _assert_same_state(cache, reference, policies)
