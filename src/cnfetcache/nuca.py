"""Non-uniform cache architecture layer: banks on a 2D mesh, X-Y routing,
and the unified latency model hit_lat + noc_lat(core, bank).

Banks are independent cache instances carved out of the LLC capacity; the
bank id sits in the address bits immediately above the per-bank set index,
so a page's lines always land in a single bank.  `noc_table` prices each
(core, bank) route once: hop count times cycles per hop, doubled by default
for the request/response round trip.  Contention is not modeled.

A run is one pass over its address stream that counts hits in a HitTable
(`lru_pass`, or `engine_pass` for data shuffling), then `price`, which
charges the table under one row's bank policies.  LRU is a stack
algorithm, so one full-way pass serves every row whose banks all run LRU:
the rows differ only in the price of a hit.  `NucaCache` is the
per-access path that the pass is checked against."""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import cache_core, metrics, workload
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
        groups = (self.bank_geometry.num_sets if self.per_set
                  else self.bank_geometry.num_ways)
        if any(len(p.latency) != groups for p in policies):
            raise ValueError(f"each bank needs {groups} hit latencies")
        self.memory = {}
        self.banks = [cache_core.CacheState(self.bank_geometry, self.memory)
                      for _ in range(banks)]
        self._slots = [(state, p.engine, p.ways, p.bypass, p.latency)
                       for state, p in zip(self.banks, policies)]
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
        state, engine, ways, bypass, latency = self._slots[bank]
        line_addr = line << self._offset_bits
        if bypass and set_index in bypass:
            return cache_core.bypass_access(state, line_addr, write, value)
        result = engine(state, set_index, tag, line_addr, write, value, ways)
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
    Its size follows from the geometry, never from the stream's length.
    """

    counts: list
    cores: list
    groups: int
    depths: int
    per_set: bool
    accesses: int
    writes: int
    shuffle_moves: int = 0


def _empty_table(trace, geometry, banks, per_set, cores):
    """A HitTable of a stream with no hits counted yet, and what both passes
    need to count them: (table, bank set bits, each core's first entry)."""
    if banks & (banks - 1):
        raise ValueError("num_banks must be a power of two")
    ways = geometry.num_ways
    bank_set_bits = geometry.set_bits - (banks.bit_length() - 1)
    groups = (1 << bank_set_bits) if per_set else ways
    depths = 1 if per_set else ways
    rows = 1 if cores is None else len(cores)
    table = HitTable([0] * (rows * banks * groups * depths), cores, groups,
                     depths, per_set, len(trace), int(trace.write.sum()))
    offsets = (None if cores is None else
               {core: i * banks * groups * depths
                for i, core in enumerate(cores)})
    return table, bank_set_bits, offsets


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


def lru_pass(records, geometry, banks, per_set, cores=None, mapping=None,
             page_bytes=None):
    """One full-way LRU pass over an LLC stream, counting every hit.

    geometry is the whole LLC, split into `banks` banks; one CacheState of
    the whole LLC holds every bank, whose sets are the ones the bank bits
    above the per-bank set index select.  mapping (virtual page -> frame
    of `page_bytes`) rewrites each address as `pagemap.translate` does.
    Only tags and recency are tracked: values and dirty bits change no hit.
    """
    trace = workload.as_trace(records)
    table, bank_set_bits, offsets = _empty_table(trace, geometry, banks,
                                                 per_set, cores)
    set_bits = geometry.set_bits
    set_mask = geometry.num_sets - 1
    counts, depths = table.counts, table.depths
    ways = geometry.num_ways
    state = cache_core.CacheState(geometry)
    all_tags, all_orders = state.tags, state.order
    for line, core in zip(_lines(trace, geometry.offset_bits, mapping,
                                 page_bytes), trace.core.tolist()):
        s = line & set_mask
        tag = line >> set_bits
        tags = all_tags[s]
        order = all_orders[s]
        if tag in tags:
            way = tags.index(tag)
            depth = order.index(way)
            if depth:
                del order[depth]
                order.insert(0, way)
            if per_set:
                index = s
            else:
                index = ((s >> bank_set_bits) * ways + way) * depths + depth
            if offsets is not None:
                index += offsets[core]
            counts[index] += 1
        else:
            if len(order) < ways:
                way = len(order)
            else:
                way = order.pop()
            tags[way] = tag
            order.insert(0, way)
    return table


def engine_pass(records, geometry, policies, per_set, cores=None,
                mapping=None, page_bytes=None):
    """Run each bank's own engine (data shuffling) once over an LLC stream.

    Fills a HitTable as `lru_pass` does, with every hit at depth 1 in the
    way that held the block before any shuffling, and sums the shuffle
    moves.  Values are not tracked.
    """
    banks = len(policies)
    trace = workload.as_trace(records)
    table, bank_set_bits, offsets = _empty_table(trace, geometry, banks,
                                                 per_set, cores)
    offset_bits, set_bits = geometry.offset_bits, geometry.set_bits
    set_mask = geometry.num_sets - 1
    counts, depths = table.counts, table.depths
    ways = geometry.num_ways
    state = cache_core.CacheState(geometry)
    moves = 0
    for line, core in zip(_lines(trace, offset_bits, mapping, page_bytes),
                          trace.core.tolist()):
        s = line & set_mask
        policy = policies[s >> bank_set_bits]
        result = policy.engine(state, s, line >> set_bits, line << offset_bits,
                               False, 0, policy.ways)
        moves += result.shuffle_moves
        if result.hit:
            if per_set:
                index = s
            else:
                index = ((s >> bank_set_bits) * ways + result.way) * depths
            if offsets is not None:
                index += offsets[core]
            counts[index] += 1
    table.shuffle_moves = moves
    return table


def price(table, policies, memory_latency, noc=None):
    """RunStats of one row: a pass's HitTable charged under its policies.

    A counted hit is a hit of the row when its depth is no deeper than the
    bank's enabled-way count (partial disabling's `ways`; every way
    otherwise) and, on a way aligned bank, its set is not in `bypass`.  It
    costs latency[group] + noc[core][bank], with no NoC term when noc (a
    `noc_table`) is None.  Every other access is a miss at memory_latency.
    Partial disabling restricts ways only on set aligned banks, at one
    clock for every way, and bypasses sets only on way aligned ones, so
    the way the full-way pass names prices the hit as the restricted bank
    would.
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
            hit_depth = depths
            if policy.engine is cache_core.lru_access and policy.ways is not None:
                hit_depth = len(policy.ways)
            skip = policy.bypass if table.per_set else ()
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
