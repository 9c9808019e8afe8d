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

import numpy as np

from .cache_core import AccessResult, run_starts

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
        if not self.groups or not all(self.groups):
            raise ValueError("way groups must be one or more non-empty lists")
        flat = sorted(w for g in self.groups for w in g)
        total = sum(len(g) for g in self.groups)
        if flat != list(range(total)):
            raise ValueError("groups must partition the ways")
        self.group_of = {}
        for gi, ways in enumerate(self.groups):
            for w in ways:
                self.group_of[w] = gi

    @classmethod
    def from_latency_map(cls, latmap, num_groups):
        ways = len(latmap.latencies)
        if num_groups < 1 or ways % num_groups != 0:
            raise ValueError("num_groups must be a positive divisor of the "
                             "way count")
        per = ways // num_groups
        order = sorted(range(ways), key=lambda w: (latmap.latencies[w], w))
        return cls([sorted(order[i * per:(i + 1) * per])
                    for i in range(num_groups)])


def overhead_report(geometry):
    """Bookkeeping storage added by the set aligned architecture."""
    return {
        "delay_register_bytes":
            (geometry.num_ways * DELAY_REGISTER_BITS + 7) // 8,
        "row_metadata_bits": ROW_METADATA_BITS,
        "row_metadata_bytes_total": geometry.num_sets * ROW_METADATA_BITS // 8,
        "shuffle_register_bytes": SHUFFLE_REGISTER_BYTES,
    }


def shuffle(orders, groups, way):
    """Place one access to a shuffling set for the per-access engine
    (`access_vasa_ds`); moving its contents is left to the caller (`shift`).

    `orders` holds one most-recent-first list of valid ways per group of
    `groups`, made on the set's first access; `way` is the hit way, None
    on a miss.  Hit in G0: the way just becomes its group's most recent.
    Hit in Gk (k >= 1): the block is promoted into G0's T=1 slot (its least
    recent way) and every displaced group-LRU block cascades one group
    down, the last one landing in the way the hit vacated.  Miss: the block
    fills the fastest group that has a free way; with none, it enters G0's
    T=1 slot, the cascade runs through all groups, and the slowest group's
    T=1 block is the victim.  Ways are never emptied, so every group faster
    than a hit's is full.  Returns (chain, moves): the accessed block
    enters chain[0], each later way takes the block of the way before it,
    and the last way's block is pushed out; moves counts the blocks
    shuffled, for the energy model only.
    """
    if not orders:
        orders.extend([] for _ in groups.groups)
    if way is None:
        for group, order in zip(groups.groups, orders):
            if len(order) < len(group):
                way = group[len(order)]
                order.insert(0, way)
                return [way], 0
        k = len(orders)
    else:
        k = groups.group_of[way]
    chain = []
    for order in orders[:k]:
        chain.append(order.pop())
        order.insert(0, chain[-1])
    if way is not None:
        order = orders[k]
        order.remove(way)
        order.insert(0, way)
        chain.append(way)
    return chain, len(chain) if k else 0


def shift(slots, chain, block):
    """Move `block` into slots[chain[0]] and each displaced content into
    the next way of the chain; returns the content pushed out of the last."""
    for way in chain:
        slots[way], block = block, slots[way]
    return block


def replay_shuffle(sets, tags, groups):
    """Data shuffling over references sorted by set (`cache_core.set_order`),
    each set replayed on its own from empty.

    Laid end to end, fastest group first, the groups' most-recent-first
    orders form one LRU stack of the set's tags: a hit, or a miss in a full
    set, moves its tag to the front, and each group it passes hands its
    least recent block (its tail) to the front of the next group.  Only
    fills differ: with n blocks held, the new block enters the front of the
    group that owns stack position n, in that group's way n - start, and
    nothing moves.  So a set keeps one stack of tags and `way_of`, each
    tag's way.  A hit in group k >= 1 passes ways down the tails, slowest
    first: the tail of group k - 1 takes the hit's way, each faster tail
    the old way of the next, and the hit block the old way of G0's tail,
    for k + 1 moves.  A miss in a full set evicts the last tag and passes
    its way down every other tail alike, one move per group.  That is the
    placement `shuffle` and `shift` give the per-access engine, reached
    without them.  A hit lands at depth 0 of the way that held the block
    before the shuffle, a miss at -1 - the way it enters.  Returns the
    landings and the moves of every set summed."""
    sizes = [len(group) for group in groups.groups]
    ways = sum(sizes)
    ends = np.cumsum(sizes).tolist()
    fills, down = [], []
    for g, group in enumerate(groups.groups):
        fills += [(ends[g] - len(group), way) for way in group]
        # The tails a hit in group g passes its way down, slowest first.
        chain = [end - 1 for end in ends[g - 1::-1]] if g else []
        down += [(chain, len(chain) + 1 if chain else 0)] * len(group)
    evict = ([end - 1 for end in ends[-2::-1]], len(sizes))
    landing, moves = np.empty(len(tags), dtype=np.int32), 0
    bounds = [*run_starts(sets).tolist(), len(sets)]
    for start, end in zip(bounds, bounds[1:]):
        out, stack, way_of = [], [], {}
        for tag in tags[start:end].tolist():
            way = hit = way_of.get(tag)
            if hit is not None:
                out.append(way * ways)
                at = stack.index(tag)
                del stack[at]
                chain, step = down[at]
            elif len(stack) < ways:
                at, way = fills[len(stack)]
                stack.insert(at, tag)
                way_of[tag] = way
                out.append(-1 - way)
                continue
            else:
                way = way_of.pop(stack.pop())
                chain, step = evict
            for at in chain:
                held = stack[at]
                way_of[held], way = way, way_of[held]
            if hit is None:
                out.append(-1 - way)
            way_of[tag] = way
            stack.insert(0, tag)
            moves += step
        landing[start:end] = out
    return landing, moves


def access_vasa_ds(state, set_index, tag, line_addr, write, value, groups):
    """Set aligned access with data shuffling: `shuffle` places it, and the
    tag, value and dirty bit of each way move along its chain.  The result's
    way is where the block resided before any shuffling, so a hit is charged
    that way's latency."""
    tags = state.tags[set_index]
    way = tags.index(tag) if tag in tags else None
    if way is None:
        block = (tag, value if write else state.memory.get(line_addr, 0), write)
    else:
        block = (tag, value if write else state.data[set_index][way],
                 write or state.dirty[set_index][way])
    chain, moves = shuffle(state.order[set_index], groups, way)
    ev_tag, ev_value, ev_dirty = [
        shift(slots[set_index], chain, content)
        for slots, content in zip((state.tags, state.data, state.dirty), block)]
    if way is not None:
        return AccessResult(True, way, write=write, value=block[1],
                            shuffle_moves=moves)
    ev_addr = None if ev_tag is None else state.line_address(ev_tag, set_index)
    if ev_dirty:
        state.memory[ev_addr] = ev_value
    return AccessResult(False, evicted_tag=ev_tag, write=write, value=block[1],
                        shuffle_moves=moves, evicted_addr=ev_addr,
                        evicted_dirty=ev_dirty)
