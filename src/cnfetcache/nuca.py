"""Non-uniform cache architecture layer: banks on a 2D mesh, X-Y routing,
and the unified latency model hit_lat + noc_lat(core, bank).

Banks are independent cache instances carved out of the LLC capacity; the
bank id sits in the address bits immediately above the per-bank set index,
so a page's lines always land in a single bank.  `noc_table` prices each
(core, bank) route once: hop count times cycles per hop, doubled by default
for the request/response round trip.  Contention is not modeled.

A run is one pass over its address stream that counts hits in a HitTable
(`count_hits`), then `price`, which charges the table under one row's bank
policies.  LRU is a stack algorithm, so one full-way pass serves every row
whose banks do not shuffle: the rows differ only in the price of a hit and
in how many ways or which sets partial disabling leaves on.  `NucaCache`
is the per-access path that the pass is checked against."""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import cache_core, metrics, vasa, workload
from .timing import CacheGeometry, LayoutKind


def noc_table(rows, cols, cycles_per_hop, round_trip_factor):
    """Round-trip X-Y routing cycles on a rows x cols mesh with one bank per
    router (row-major) and the four cores at the corner routers:
    {core: [cycles to bank b]}."""
    corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    return {core: [round_trip_factor * cycles_per_hop
                   * (abs(r - b // cols) + abs(c - b % cols))
                   for b in range(rows * cols)]
            for core, (r, c) in enumerate(corners)}


def bank_average_latency(latmap):
    """Mean way latency of a bank, as reported per bank in NUCA runs; page
    mapping charges every set of a set aligned bank this mean."""
    return sum(latmap.latencies) / len(latmap.latencies)


class NucaCache:
    """LLC distributed over mesh-attached banks, one cache instance each.

    Every bank serves its requests through its own BankPolicy: data
    shuffling never crosses banks, and way aligned banks each carry their
    own grouping, forming one logical way aligned cache with many latency
    groups.  A hit costs the bank's list latency plus noc[core][bank] of
    the `noc_table` noc.  A uniform cache (UCA) is the one-bank case: noc
    None, no NoC cost for any core id.
    """

    def __init__(self, total_geometry, noc, layout, policies):
        banks = len(policies)
        if banks & (banks - 1):
            raise ValueError("num_banks must be a power of two")
        if noc is not None and any(len(row) != banks for row in noc.values()):
            raise ValueError("need one bank policy per mesh bank")
        if total_geometry.capacity_bytes % banks != 0:
            raise ValueError("capacity must divide evenly across banks")
        self.per_set = layout is LayoutKind.WAY_ALIGNED
        self.bank_geometry = CacheGeometry(
            total_geometry.capacity_bytes // banks,
            total_geometry.num_ways, total_geometry.line_bytes)
        groups = layout.group_count(self.bank_geometry)
        if any(len(p.latency) != groups for p in policies):
            raise ValueError(f"each bank needs {groups} hit latencies")
        self.memory = {}
        self.banks = [cache_core.CacheState(self.bank_geometry, self.memory)
                      for _ in range(banks)]
        # Partial disabling sends a way aligned bank's disabled sets to
        # memory and keeps a set aligned bank's LRU to its enabled ways.
        self._slots = []
        for state, p in zip(self.banks, policies):
            enabled = None
            if p.disabled and not self.per_set:
                enabled = [w for w in range(total_geometry.num_ways)
                           if w not in p.disabled]
            bypass = p.disabled if self.per_set else None
            self._slots.append((state, p.shuffle, enabled, bypass, p.latency))
        self.noc = defaultdict(lambda: (0,)) if noc is None else noc
        geometry = self.bank_geometry
        self._offset_bits = geometry.offset_bits
        self._set_mask = geometry.num_sets - 1
        # The bank id is the low bits of the tag.
        self._tag_shift = geometry.offset_bits + geometry.set_bits
        self._bank_mask = banks - 1

    def access(self, core_id, address, write=False, value=0):
        """One LLC reference; a hit's latency is hit_lat + noc[core][bank]."""
        line = address >> self._offset_bits
        set_index = line & self._set_mask
        tag = address >> self._tag_shift
        bank = tag & self._bank_mask
        state, shuffle, enabled, bypass, latency = self._slots[bank]
        line_addr = line << self._offset_bits
        if bypass and set_index in bypass:
            return cache_core.bypass_access(state, line_addr, write, value)
        if shuffle is None:
            result = cache_core.lru_access(state, set_index, tag, line_addr,
                                           write, value, enabled)
        else:
            result = vasa.access_vasa_ds(state, set_index, tag, line_addr,
                                         write, value, shuffle)
        if result.hit:
            result.latency_cycles = (
                latency[set_index if self.per_set else result.way]
                + self.noc[core_id][bank])
        return result


@dataclass
class HitTable:
    """The hits of one address stream, counted by where they landed.

    counts is flat: entry ((c * banks + b) * groups + g) * depths + d - 1
    counts the hits from the c-th core of `cores` (one row for every core
    when cores is None, as in a UCA) to latency group g of bank b at LRU
    depth d.  The group is the set on a way aligned (per_set) bank and the
    way on a set aligned one.  Set aligned tables keep each hit's depth
    (depths = ways), which is what partial disabling's enabled-way count
    is checked against; way aligned tables keep one depth for every hit.
    A shuffling bank counts every hit at depth 1.  Its size follows from
    the geometry, never from the stream's length.
    """

    counts: list
    cores: list
    groups: int
    depths: int
    per_set: bool
    accesses: int
    writes: int
    shuffle_moves: int = 0


def _lines(trace, offset_bits, mapping, page_bytes):
    """The line number of every reference, its address rewritten first as
    `pagemap.translate` rewrites it when a mapping is given."""
    addr = trace.addr
    if mapping:
        vpages = sorted(mapping)
        frames = np.array([mapping[p] for p in vpages], dtype=np.uint64)
        vpages = np.array(vpages, dtype=np.uint64)
        pages, offsets = np.divmod(addr, page_bytes)
        at = np.minimum(np.searchsorted(vpages, pages), len(vpages) - 1)
        addr = np.where(vpages[at] == pages, frames[at] * page_bytes + offsets,
                        addr)
    return (addr >> offset_bits).tolist()


def count_hits(records, geometry, layout, policies, cores=None, mapping=None,
               page_bytes=None):
    """One pass over an LLC stream, counting every hit in a HitTable.

    geometry is the whole LLC, split into one bank per policy; one
    CacheState of the whole LLC holds every bank, whose sets are the ones
    the bank bits above the per-bank set index select.  A bank whose
    policy does not shuffle runs full-way LRU on the state's tags and
    order lists alone, since values and dirty bits change no hit, and
    partial disabling is left to `price`.  A shuffling bank runs
    `vasa.access_vasa_ds`, which counts each hit in the way that held the
    block before any shuffling, and its shuffle moves are summed.  mapping
    (virtual page -> frame of `page_bytes`) rewrites each address as
    `pagemap.translate` does.
    """
    banks = len(policies)
    if banks & (banks - 1):
        raise ValueError("num_banks must be a power of two")
    trace = workload.as_trace(records)
    ways = geometry.num_ways
    bank_geometry = CacheGeometry(geometry.capacity_bytes // banks, ways,
                                  geometry.line_bytes)
    per_set = layout is LayoutKind.WAY_ALIGNED
    groups = layout.group_count(bank_geometry)
    depths = 1 if per_set else ways
    size = banks * groups * depths
    table = HitTable([0] * (size * (1 if cores is None else len(cores))),
                     cores, groups, depths, per_set, len(trace),
                     int(trace.write.sum()))
    offsets = (None if cores is None
               else {core: i * size for i, core in enumerate(cores)})
    bank_set_bits = bank_geometry.set_bits
    offset_bits, set_bits = geometry.offset_bits, geometry.set_bits
    set_mask = geometry.num_sets - 1
    counts = table.counts
    state = cache_core.CacheState(geometry)
    # Each set's tags, order and its bank's way groups, in one lookup.
    sets = [(tags, order, policies[s >> bank_set_bits].shuffle)
            for s, (tags, order) in enumerate(zip(state.tags, state.order))]
    moves = 0
    for line, core in zip(_lines(trace, offset_bits, mapping, page_bytes),
                          trace.core.tolist()):
        s = line & set_mask
        tag = line >> set_bits
        tags, order, shuffle = sets[s]
        if shuffle is None:
            if tag not in tags:
                if len(order) < ways:
                    way = len(order)
                else:
                    way = order.pop()
                tags[way] = tag
                order.insert(0, way)
                continue
            way = tags.index(tag)
            depth = order.index(way)
            if depth:
                del order[depth]
                order.insert(0, way)
        else:
            result = vasa.access_vasa_ds(state, s, tag, line << offset_bits,
                                         False, 0, shuffle)
            moves += result.shuffle_moves
            if not result.hit:
                continue
            way, depth = result.way, 0
        if per_set:
            index = s
        else:
            index = ((s >> bank_set_bits) * ways + way) * depths + depth
        if offsets is not None:
            index += offsets[core]
        counts[index] += 1
    table.shuffle_moves = moves
    return table


def price(table, policies, memory_latency, noc=None):
    """RunStats of one row: a pass's HitTable charged under its policies.

    A counted hit is a hit of the row unless partial disabling turned its
    group off.  On a way aligned table that is a hit in a `disabled` set.
    On a set aligned table it is a hit deeper than the `ways -
    len(disabled)` ways left on: LRU is a stack algorithm, so a bank
    restricted to k ways hits exactly where the full-way pass hits at
    depth k or less, and with one clock for every enabled way the way the
    pass names prices it alike.  A hit costs latency[group] +
    noc[core][bank], with no NoC term when noc (a `noc_table`) is None.
    Every other access is a miss at memory_latency.
    """
    stats = metrics.RunStats(memory_latency, table.accesses,
                             reads=table.accesses - table.writes,
                             writes=table.writes,
                             shuffle_moves=table.shuffle_moves)
    hist = stats.hit_latency_histogram
    counts, depths = table.counts, table.depths
    size = table.groups * depths
    start = 0
    for core in table.cores or [None]:
        for bank, policy in enumerate(policies):
            hop = 0 if noc is None else noc[core][bank]
            if table.per_set:
                hit_depth, skip = 1, policy.disabled
            else:
                hit_depth, skip = depths - len(policy.disabled), ()
            for group, i in enumerate(range(start, start + size, depths)):
                hits = counts[i] if hit_depth == 1 else sum(counts[i:i + hit_depth])
                if hits and group not in skip:
                    hist[policy.latency[group] + hop] += hits
            start += size
    stats.hits = sum(hist.values())
    stats.misses = stats.accesses - stats.hits
    stats.total_llc_cycles = (sum(c * n for c, n in hist.items())
                              + stats.misses * memory_latency)
    return stats
