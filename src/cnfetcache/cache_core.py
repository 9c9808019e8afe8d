"""Set-associative cache engine: tag match, LRU replacement, and the per-bank
policy record that prices hits from a flat latency list.

Line payloads are modeled as last-writer sequence numbers rather than bytes;
a flat memory dict backs misses and write-backs, which is enough to check
that any replacement or promotion policy returns the most recently written
value for every read.  Every policy is one replacement engine (plain LRU
here, or data shuffling in `vasa` when its `BankPolicy` has way groups)
plus a hit-latency list; the engines only decide placement, and the caller
charges a hit from the list.  The payloads belong to this per-access path:
`replay_lru`, the LRU of `nuca.count_hits` and `workload.l1_filter`, keeps
tags and orders alone, `replay_two_way` is its closed form for the 2-way
L1s, and `lru_hits` tells only whether each reference hits, with no
replay.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

# The size of `lru_hits`'s work at once: a block of whole sets holds at most
# LRU_BLOCK_CELLS // ways references (or is one larger set), and its gap
# scan reads at most LRU_BLOCK_CELLS positions in one array.
LRU_BLOCK_CELLS = 1 << 15


class PolicyKind(Enum):
    BASELINE_WORST = "baseline"
    BASELINE_PD = "baseline_pd"
    VASA = "vasa"
    VASA_DS = "vasa_ds"
    VAWA_UG = "vawa_ug"
    VAWA_NG = "vawa_ng"


class AccessResult:
    """Outcome of one access.

    latency_cycles is set only on a hit, by whoever prices it; a miss
    carries none, because a miss costs the memory latency alone (see
    `metrics.record_access`).
    """

    __slots__ = ("hit", "way", "latency_cycles", "evicted_tag",
                 "shuffle_moves", "write", "value", "evicted_addr",
                 "evicted_dirty")

    def __init__(self, hit, way=None, latency_cycles=None, evicted_tag=None,
                 shuffle_moves=0, write=False, value=0, evicted_addr=None,
                 evicted_dirty=False):
        if hit and way is None:
            raise ValueError("hit result must carry the way")
        self.hit = hit
        self.way = way
        self.latency_cycles = latency_cycles
        self.evicted_tag = evicted_tag
        self.shuffle_moves = shuffle_moves
        self.write = write
        self.value = value
        self.evicted_addr = evicted_addr
        self.evicted_dirty = evicted_dirty

    def __repr__(self):
        return (f"AccessResult(hit={self.hit}, way={self.way}, "
                f"latency_cycles={self.latency_cycles}, "
                f"shuffle_moves={self.shuffle_moves})")


class CacheState:
    """Mutable state of one cache instance on the per-access path
    (single-threaded).

    Per set: `tags` holds the tag in each physical way (None = invalid),
    `data` and `dirty` the value and dirty flag of each way, and `order`
    the set's valid ways, most recent first.  Data shuffling makes it one
    such list per way group instead, on the set's first access.  A line's
    address follows from its tag and set (`line_address`).
    """

    def __init__(self, geometry, memory=None):
        sets, ways = geometry.num_sets, geometry.num_ways
        self.tags = [[None] * ways for _ in range(sets)]
        self.data = [[0] * ways for _ in range(sets)]
        self.dirty = [[False] * ways for _ in range(sets)]
        self.order = [[] for _ in range(sets)]
        # line-aligned address -> last written value
        self.memory = {} if memory is None else memory
        self._offset_bits = geometry.offset_bits
        self._tag_shift = geometry.offset_bits + geometry.set_bits

    def line_address(self, tag, set_index):
        return (tag << self._tag_shift) | (set_index << self._offset_bits)


def lru_access(state, set_index, tag, line_addr, write, value, ways=None):
    """Plain LRU lookup and fill of one set.

    `ways` restricts replacement to those ways (the ways partial disabling
    leaves enabled); None means every way.  Ways are filled in that order
    and never emptied, so a set that is not full fills `ways[len(order)]`,
    and a full one evicts its least recent way.  The result names the hit
    way and leaves the latency to the caller.
    """
    tags = state.tags[set_index]
    data = state.data[set_index]
    order = state.order[set_index]
    if tag in tags:
        way = tags.index(tag)
        if order[0] != way:
            order.remove(way)
            order.insert(0, way)
        if write:
            data[way] = value
            state.dirty[set_index][way] = True
        return AccessResult(True, way, write=write, value=data[way])
    dirty = state.dirty[set_index]
    filled = len(order)
    ev_tag = ev_addr = None
    ev_dirty = False
    if filled < (len(tags) if ways is None else len(ways)):
        way = filled if ways is None else ways[filled]
    else:
        way = order.pop()
        ev_tag = tags[way]
        ev_addr = state.line_address(ev_tag, set_index)
        ev_dirty = dirty[way]
        if ev_dirty:
            state.memory[ev_addr] = data[way]
    order.insert(0, way)
    tags[way] = tag
    data[way] = value if write else state.memory.get(line_addr, 0)
    dirty[way] = write
    return AccessResult(False, evicted_tag=ev_tag, write=write,
                        value=data[way], evicted_addr=ev_addr,
                        evicted_dirty=ev_dirty)


def bypass_access(state, line_addr, write, value):
    """A request to a disabled set: served by memory, nothing is allocated."""
    if write:
        state.memory[line_addr] = value
        return AccessResult(False, write=True, value=value)
    return AccessResult(False, value=state.memory.get(line_addr, 0))


def index_type(largest):
    """The type of an index column whose values are at most largest: int32
    below 2^31, else int64.  Never narrower: numpy 2 keeps the type of an
    array times a Python int, so an int8 or int16 rank times a set count
    would wrap around."""
    return np.int32 if largest < 1 << 31 else np.int64


def set_order(sets):
    """Indices that sort references by set, each set's in stream order (a
    radix sort for keys of 16 bits or fewer), in `index_type`."""
    order = np.argsort(sets.astype(np.min_scalar_type(sets.max(initial=0))),
                       kind="stable")
    return order.astype(index_type(len(sets) - 1), copy=False)


def run_starts(*keys):
    """Where each run of equal keys begins, in columns sorted so that equal
    keys are adjacent: 0 (unless they are empty), and each position whose
    key in any column differs from the one before it.  Neighbour
    comparisons alone find them, so keys of any integer type work."""
    head = np.zeros(len(keys[0]), dtype=bool)
    head[:1] = True
    for key in keys:
        head[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(head)


def replay_lru(sets, tags, ways):
    """LRU over references sorted by set (`set_order`), each set replayed
    on its own from empty: ways fill in order, and a full set evicts its
    least recent way.  Returns each reference's landing: way * ways + depth
    on a hit (depth 0 is the most recent line), -1 - way on a miss."""
    landing = np.empty(len(tags), dtype=np.int32)
    bounds = [*run_starts(sets).tolist(), len(sets)]
    for start, end in zip(bounds, bounds[1:]):
        out, stack, where = [], [], {}   # stack: tags, most recent first
        for tag in tags[start:end].tolist():
            way = where.get(tag)
            if way is None:
                way = len(stack) if len(stack) < ways else where.pop(stack.pop())
                where[tag] = way
                stack.insert(0, tag)
                out.append(-1 - way)
                continue
            depth = stack.index(tag)
            if depth:
                del stack[depth]
                stack.insert(0, tag)
            out.append(way * ways + depth)
        landing[start:end] = out
    return landing


def replay_two_way(sets, tags):
    """`replay_lru(sets, tags, 2)` in closed form, for references sorted by
    set in which none repeats its set's previous tag.

    Under that precondition a set's LRU stack after its references x_0 ..
    x_i is [x_i, x_(i-1)], so x_i hits, at depth 1, when it equals x_(i-2),
    and by induction lands in way i % 2, hit or miss.
    """
    index = index_type(len(sets))
    first = run_starts(sets).astype(index)
    rank = np.arange(len(sets), dtype=index)
    rank -= np.repeat(first, np.diff(first, append=index(len(sets))))
    hit = np.zeros(len(sets), dtype=bool)
    hit[2:] = (tags[2:] == tags[:-2]) & (rank[2:] >= 2)
    way = (rank % 2).astype(np.int32)
    del rank
    return np.where(hit, 2 * way + 1, -1 - way)


def lru_hits(sets, tags, ways):
    """`replay_lru(sets, tags, ways) >= 0` without a replay: whether each
    reference sorted by set (`set_order`) hits a `ways`-way LRU set.

    By the LRU stack property (Mattson et al., 1970) a reference hits iff
    fewer than `ways` distinct lines of its set were referenced in its gap,
    the references since its line's previous one.  Position j of the gap
    holds a line first seen there iff j's own previous reference comes
    before the gap.  The sets are run in blocks (`LRU_BLOCK_CELLS`).
    """
    hit = np.empty(len(tags), dtype=bool)
    ends = np.append(run_starts(sets)[1:], len(sets))
    start = 0
    while start < len(tags):
        # The last set end within the block's size, or else the first one.
        stop = ends[max(np.searchsorted(ends, start + LRU_BLOCK_CELLS // ways,
                                        "right") - 1,
                        np.searchsorted(ends, start, "right"))]
        hit[start:stop] = _block_hits(sets[start:stop], tags[start:stop], ways)
        start = stop
    return hit


def _narrow(column):
    """column less its least value, in the smallest type that holds it."""
    column = column - column.min()
    return column.astype(np.min_scalar_type(column.max()))


def _block_hits(sets, tags, ways):
    """`lru_hits` of whole sets.

    prev links each reference to its line's previous one (-1 for none), by
    one stable sort of the tags.  A gap of fewer than `ways` references is
    a sure hit, and one that holds `ways` cold references (first references
    to their lines) is a sure miss.
    The rest scan their gaps in stretches of 2 * ways, 4 * ways, ... until
    they count `ways` first-seen lines (a miss) or read the whole gap (a
    hit).  By the stack property each position lies in the counted part of
    fewer than `ways` gaps, so the scan reads O(ways * len(tags)) cells, at
    most LRU_BLOCK_CELLS at a time.
    """
    sets, tags = _narrow(sets), _narrow(tags)
    order = np.argsort(tags, kind="stable").astype(np.int32)
    prev = np.full(len(tags), -1, dtype=np.int32)
    prev[order[1:]] = order[:-1]
    prev[order[run_starts(tags[order], sets[order])]] = -1
    del order
    ref = np.arange(len(tags), dtype=np.int32)
    cold = np.cumsum(prev < 0, dtype=np.int32)   # cold references in 0..k
    hit = prev >= 0
    pending = np.flatnonzero(hit & (ref - prev > ways))
    last = prev[pending]
    miss = cold[pending - 1] - cold[last] >= ways
    hit[pending[miss]] = False
    pending, last = pending[~miss], last[~miss]
    start, seen = last + 1, np.zeros(len(pending), dtype=np.int32)
    stretch = 2 * ways
    while len(pending):
        rows = max(LRU_BLOCK_CELLS // stretch, 1)
        for low in range(0, len(pending), rows):
            part = slice(low, low + rows)
            at = start[part, None] + np.arange(stretch, dtype=np.int32)
            first = ((prev.take(at, mode="clip") < last[part, None])
                     & (at < pending[part, None]))
            seen[part] += first.sum(axis=1, dtype=np.int32)
        start += stretch
        miss = seen >= ways
        hit[pending[miss]] = False
        keep = ~miss & (start < pending)
        pending, last = pending[keep], last[keep]
        start, seen = start[keep], seen[keep]
        stretch *= 2
    return hit


@dataclass
class BankPolicy:
    """How one bank serves an access, as plain data.

    latency holds the hit cycles per way on a set aligned bank and per set
    on a way aligned bank.  disabled holds the groups partial disabling
    turns off: ways that are never looked up or filled on a set aligned
    bank, sets whose requests memory serves on a way aligned one.  shuffle
    is data shuffling's `vasa.WayGroups`; None means plain LRU.  A bank
    that shuffles disables nothing, every bank keeps a group on, and a bank
    that disables groups runs every enabled group at one clock, as
    `partial_disable` builds it.  That is what lets `nuca.price` count a
    set aligned bank's hits to depth `ways - len(disabled)` and price each
    at the way the full-way pass names.
    """

    latency: list
    disabled: frozenset = frozenset()
    shuffle: object = None

    def __post_init__(self):
        self.disabled = frozenset(self.disabled)
        if any(not 0 <= group < len(self.latency) for group in self.disabled):
            raise ValueError(f"disabled groups {sorted(self.disabled)} are not "
                             f"all in 0..{len(self.latency) - 1}")
        if self.disabled and len(self.disabled) == len(self.latency):
            raise ValueError("a bank cannot disable all its groups")
        if self.disabled and self.shuffle is not None:
            raise ValueError("a bank cannot both disable groups and shuffle")
        enabled = {c for i, c in enumerate(self.latency)
                   if i not in self.disabled} if self.disabled else ()
        if len(enabled) > 1:
            raise ValueError(f"a bank that disables groups runs its enabled "
                             f"groups at one clock, not {sorted(enabled)}")


def worst_groups(latmap):
    """Indices of groups at the map's worst latency; empty when all are worst."""
    worst = max(latmap.latencies)
    disabled = {i for i, c in enumerate(latmap.latencies) if c == worst}
    if len(disabled) == len(latmap.latencies):
        return set()
    return disabled


def partial_disable(latmap):
    """BankPolicy of the partial-disabling (PD) baseline.

    The worst-timing groups (`worst_groups`) are turned off and the rest
    run at the fastest uniform clock they support.  A map whose groups all
    share one latency disables nothing and runs every group at it.
    """
    disabled = worst_groups(latmap)
    enabled = [c for i, c in enumerate(latmap.latencies) if i not in disabled]
    return BankPolicy([max(enabled)] * len(latmap.latencies), disabled)
