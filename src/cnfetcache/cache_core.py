"""Set-associative cache engine: tag match, LRU replacement, and the per-bank
policy record that prices hits from a flat latency list.

Line payloads are modeled as last-writer sequence numbers rather than bytes;
a flat memory dict backs misses and write-backs, which is enough to check
that any replacement or promotion policy returns the most recently written
value for every read.  Every policy is one replacement engine (plain LRU
here, or the data-shuffling cascade in `vasa` when its `BankPolicy` has
way groups) plus a hit-latency list; the engines only decide placement,
and the caller charges a hit from the list.
"""

from dataclasses import dataclass
from enum import Enum

from .timing import LayoutKind


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
    """Mutable state of one cache instance (single-threaded).

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


@dataclass
class BankPolicy:
    """How one bank serves an access, as plain data.

    latency holds the hit cycles per way on a set aligned bank and per set
    on a way aligned bank.  disabled holds the groups partial disabling
    turns off: ways that are never looked up or filled on a set aligned
    bank, sets whose requests memory serves on a way aligned one.  shuffle
    is data shuffling's `vasa.WayGroups`; None means plain LRU.  A bank
    that shuffles disables nothing, which is what lets `nuca.price` count
    a set aligned bank's hits to depth `ways - len(disabled)`.
    """

    latency: list
    disabled: frozenset = frozenset()
    shuffle: object = None

    def __post_init__(self):
        self.disabled = frozenset(self.disabled)
        if any(not 0 <= group < len(self.latency) for group in self.disabled):
            raise ValueError(f"disabled groups {sorted(self.disabled)} are not "
                             f"all in 0..{len(self.latency) - 1}")
        if self.disabled and self.shuffle is not None:
            raise ValueError("a bank cannot both disable groups and shuffle")


def worst_groups(latmap):
    """Indices of groups at the map's worst latency; empty when all are worst."""
    worst = max(latmap.latencies)
    disabled = {i for i, c in enumerate(latmap.latencies) if c == worst}
    if len(disabled) == len(latmap.latencies):
        return set()
    return disabled


def partial_disable(latmap, disabled=None):
    """BankPolicy of the partial-disabling (PD) baseline.

    The `disabled` groups (default: the worst-timing ones) are turned off
    and the rest run at the fastest uniform clock they support.
    """
    if disabled is None:
        disabled = worst_groups(latmap)
    enabled = [c for i, c in enumerate(latmap.latencies) if i not in disabled]
    if not enabled:
        groups = "ways" if latmap.layout is LayoutKind.SET_ALIGNED else "sets"
        raise ValueError(f"all cache {groups} disabled")
    return BankPolicy([max(enabled)] * len(latmap.latencies), disabled)
