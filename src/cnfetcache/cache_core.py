"""Set-associative cache engine: tag match, LRU replacement, and the per-bank
policy record that prices hits from a flat latency list.

Line payloads are modeled as last-writer sequence numbers rather than bytes;
a flat memory dict backs misses and write-backs, which is enough to check
that any replacement or promotion policy returns the most recently written
value for every read.  Every policy is one replacement engine (plain LRU
here, or the data-shuffling cascade in `vasa`) plus a hit-latency list;
the engines only decide placement, and the caller charges a hit from the
list.
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
    """Mutable state of one cache instance (single-threaded)."""

    def __init__(self, geometry, memory=None):
        self.geometry = geometry
        self.sets = [[CacheLine() for _ in range(geometry.num_ways)]
                     for _ in range(geometry.num_sets)]
        # line-aligned address -> last written value
        self.memory = {} if memory is None else memory
        self._offset_bits = geometry.offset_bits
        self._set_mask = geometry.num_sets - 1
        self._tag_shift = geometry.offset_bits + geometry.set_bits

    def locate(self, address):
        """(tag, set_index, line-aligned address) of a byte address."""
        line_addr = address >> self._offset_bits
        set_index = line_addr & self._set_mask
        tag = address >> self._tag_shift
        return tag, set_index, line_addr << self._offset_bits

    def valid_tags(self, set_index):
        return sorted(l.tag for l in self.sets[set_index] if l.valid)


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


def lru_access(state, set_index, tag, line_addr, write, value, ways=None):
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


def bypass_access(state, line_addr, write, value):
    """A request to a disabled set: served by memory, nothing is allocated."""
    if write:
        state.memory[line_addr] = value
        return AccessResult(False, write=True, value=value)
    return AccessResult(False, value=state.memory.get(line_addr, 0))


@dataclass
class BankPolicy:
    """How one bank serves an access.

    latency holds the hit cycles per way on a set aligned bank and per set
    on a way aligned bank.  engine is `lru_access` or `vasa.access_vasa_ds`
    and ways is its last argument: the enabled ways for LRU (None = all),
    the way groups for data shuffling.  Requests to a set in bypass go
    straight to memory.
    """

    latency: list
    engine: object = lru_access
    ways: object = None
    bypass: frozenset = frozenset()


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
    and the rest run at the fastest uniform clock they support.  Set
    aligned: lookups and fills skip the disabled ways.  Way aligned:
    requests to disabled sets bypass the cache and are served by memory.
    """
    if disabled is None:
        disabled = worst_groups(latmap)
    n = len(latmap.latencies)
    enabled = [i for i in range(n) if i not in disabled]
    set_aligned = latmap.layout is LayoutKind.SET_ALIGNED
    if not enabled:
        raise ValueError("all cache " + ("ways" if set_aligned else "sets")
                         + " disabled")
    clock = max(latmap.latencies[i] for i in enabled)
    if set_aligned:
        return BankPolicy([clock] * n, ways=enabled)
    return BankPolicy([clock] * n, bypass=frozenset(disabled))
