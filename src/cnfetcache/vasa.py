"""Variation-aware set aligned cache: per-way delay registers and
latency-aware data shuffling.

In a set aligned layout every way has its own latency, stored in a small
delay register file that times the output mux, so a hit costs exactly the
latency of the way holding the data.  The shuffling policy additionally
keeps recently used blocks in the fast ways: ways are partitioned into
groups ordered by latency, each group tracks its own recency (the 1-bit T
field: 0 marks the group's most recently used line, which here is just the
front of the group's order list), and promotions cascade the displaced
group-LRU blocks one group down instead of evicting them.
"""

from dataclasses import dataclass

from .cache_core import AccessResult

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

    def __post_init__(self):
        flat = sorted(w for g in self.groups for w in g)
        total = sum(len(g) for g in self.groups)
        if flat != list(range(total)):
            raise ValueError("groups must partition the ways")
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
        return cls([sorted(order[i * per:(i + 1) * per])
                    for i in range(num_groups)])


def overhead_report(geometry):
    """Bookkeeping storage added by the set aligned architecture."""
    return {
        "delay_register_bytes": geometry.num_ways * DELAY_REGISTER_BITS // 8,
        "row_metadata_bits": ROW_METADATA_BITS,
        "row_metadata_bytes_total": geometry.num_sets * ROW_METADATA_BITS // 8,
        "shuffle_register_bytes": SHUFFLE_REGISTER_BYTES,
    }


def _cascade(tags, data, dirty, orders, block):
    """Shift `block` (tag, value, dirty) down through the groups of `orders`.

    Each group takes the carried block in its least recent way, which
    becomes its most recent, and hands that way's old block one group down.
    Returns the block displaced from the last group.
    """
    for order in orders:
        way = order.pop()
        order.insert(0, way)
        displaced = (tags[way], data[way], dirty[way])
        tags[way], data[way], dirty[way] = block
        block = displaced
    return block


def access_vasa_ds(state, set_index, tag, line_addr, write, value, groups):
    """Set aligned access with latency-aware data shuffling.

    The set's `order` holds one most-recent-first list per way group.
    Hit in G0: the line just becomes its group's most recent (no movement).
    Hit in Gk (k >= 1): the block is promoted into G0's T=1 slot (its
    least recent way) and every displaced group-LRU block cascades one
    group down, the last one landing in the slot the hit vacated.  Miss:
    the block fills the fastest group that has a free way; with none, it
    enters G0's T=1 slot, the cascade runs through all groups, and the
    slowest group's T=1 block is the victim.  Ways are never emptied, so
    every group faster than a hit's is full.  The result's way is where the block resided before any
    shuffling, so a hit is charged that way's latency; moves are counted
    for the energy model only.
    """
    tags = state.tags[set_index]
    data = state.data[set_index]
    dirty = state.dirty[set_index]
    orders = state.order[set_index]
    if not orders:
        orders.extend([] for _ in groups.groups)

    if tag in tags:
        way = tags.index(tag)
        if write:
            data[way] = value
            dirty[way] = True
        hit_value = data[way]
        k = groups.group_of[way]
        if k:
            tags[way], data[way], dirty[way] = _cascade(
                tags, data, dirty, orders[:k], (tag, hit_value, dirty[way]))
        order = orders[k]
        order.remove(way)
        order.insert(0, way)
        return AccessResult(True, way, write=write, value=hit_value,
                            shuffle_moves=k + 1 if k else 0)

    incoming = value if write else state.memory.get(line_addr, 0)
    for group, order in zip(groups.groups, orders):
        if len(order) < len(group):
            way = group[len(order)]
            order.insert(0, way)
            tags[way], data[way], dirty[way] = tag, incoming, write
            return AccessResult(False, write=write, value=incoming)

    victim = orders[-1][-1]
    ev_tag, ev_dirty = tags[victim], dirty[victim]
    ev_addr = state.line_address(ev_tag, set_index)
    if ev_dirty:
        state.memory[ev_addr] = data[victim]
    _cascade(tags, data, dirty, orders, (tag, incoming, write))
    return AccessResult(False, evicted_tag=ev_tag, write=write,
                        value=incoming, shuffle_moves=len(orders),
                        evicted_addr=ev_addr, evicted_dirty=ev_dirty)
