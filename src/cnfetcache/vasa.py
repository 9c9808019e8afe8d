"""Variation-aware set aligned cache: per-way delay registers and
latency-aware data shuffling.

In a set aligned layout every way has its own latency, stored in a small
delay register file that times the output mux, so a hit costs exactly the
latency of the way holding the data.  The shuffling policy additionally
keeps recently used blocks in the fast ways: ways are partitioned into
groups ordered by latency, each group tracks its own 1-bit recency (the T
field, 0 = most recently used of the group), and promotions cascade the
displaced group-LRU blocks one group down instead of evicting them.
"""

from dataclasses import dataclass

from .cache_core import AccessResult, find_way, install

DELAY_REGISTER_BITS = 4
# Register file for shuffle buffering and way latency bookkeeping, plus the
# access-analysis metadata (one priority bit per way, 8 bits per set row in
# the reference 8-way organization), as modeled for the overhead report.
SHUFFLE_REGISTER_BYTES = 260
ROW_METADATA_BITS = 8


@dataclass
class WayGroups:
    """Ways partitioned into latency groups, fastest group first."""

    groups: list          # list of way-index lists
    group_latency: list   # cycles per group (max over member ways)
    ways_per_group: int

    def __post_init__(self):
        flat = sorted(w for g in self.groups for w in g)
        total = sum(len(g) for g in self.groups)
        if flat != list(range(total)):
            raise ValueError("groups must partition the ways")
        if any(b < a for a, b in zip(self.group_latency, self.group_latency[1:])):
            raise ValueError("group latencies must be non-decreasing")
        self.group_of = {}
        for gi, ways in enumerate(self.groups):
            for w in ways:
                self.group_of[w] = gi

    @classmethod
    def from_latency_map(cls, latmap, num_groups=4):
        ways = len(latmap.latencies)
        if ways % num_groups != 0:
            raise ValueError("num_groups must divide the way count")
        per = ways // num_groups
        order = sorted(range(ways), key=lambda w: (latmap.latencies[w], w))
        groups = [sorted(order[i * per:(i + 1) * per]) for i in range(num_groups)]
        lat = [max(latmap.latencies[w] for w in g) for g in groups]
        return cls(groups, lat, per)


def overhead_report(geometry):
    """Bookkeeping storage added by the set aligned architecture."""
    return {
        "delay_register_bytes": geometry.num_ways * DELAY_REGISTER_BITS // 8,
        "row_metadata_bits": ROW_METADATA_BITS,
        "row_metadata_bytes_total": geometry.num_sets * ROW_METADATA_BITS // 8,
        "shuffle_register_bytes": SHUFFLE_REGISTER_BYTES,
    }


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


def access_vasa_ds(state, set_index, tag, line_addr, write, value, groups):
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
