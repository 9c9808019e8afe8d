"""Non-uniform cache architecture layer: banks on a 2D mesh, X-Y routing,
and the unified latency model hit_lat + noc_lat(core, bank).

Banks are independent cache instances carved out of the LLC capacity; the
bank id sits in the address bits immediately above the per-bank set index,
so a page's lines always land in a single bank.  `noc_table` prices each
(core, bank) route once: hop count times cycles per hop, doubled by default
for the request/response round trip.  Contention is not modeled.

A run is one pass over its address stream that counts hits in a HitTable
(`count_hits`), then `price`, which charges the table under one row's bank
policies.  LRU is a stack algorithm whose sets are independent, so the
pass takes each set alone, and one full-way pass serves every row whose
banks do not shuffle: the rows differ only in the price of a hit and in
how many ways or which sets partial disabling leaves on.  `NucaCache` is
the per-access path that the pass is checked against."""

from collections import defaultdict
from dataclasses import dataclass, fields

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


def bank_average_latency(latencies):
    """Mean of a bank's per-group latencies.  NUCA runs report it per bank,
    and page mapping charges every set of a set aligned bank this mean."""
    return sum(latencies) / len(latencies)


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

    counts is a flat array in C order over shape = (rows, banks, groups,
    depths): entry (r, b, g, d) counts the hits from core r of the NoC
    table (one row for every core in a UCA) to latency group g of bank b
    at LRU depth d + 1.  The group is the set on a way aligned (per_set)
    bank and the way on a set aligned one.  Set aligned tables keep each
    hit's depth (depths = ways), which is what partial disabling's
    enabled-way count is checked against; way aligned tables keep one
    depth for every hit.  A shuffling bank counts every hit at depth 1.
    The shape follows from the geometry, never from the stream's length.
    """

    counts: np.ndarray
    shape: tuple
    per_set: bool
    accesses: int
    writes: int
    shuffle_moves: int = 0

    def __eq__(self, other):
        """Field by field, so the counts arrays compare whole."""
        if not isinstance(other, HitTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, field.name),
                                  getattr(other, field.name))
                   for field in fields(self))


def count_hits(records, geometry, layout, policies, noc=None):
    """One pass over an LLC stream, counting every hit in a HitTable.

    geometry is the whole LLC, split into one bank per policy; the bank
    bits above the per-bank set index pick each set's bank.  Each core of
    the `noc_table` noc counts in its own row (a core id off the mesh is a
    ValueError); with noc None every core id shares one row.  Sorted by
    set once (`cache_core.set_order`), each bank's references are one run.
    A bank that shuffles is replayed by `vasa.replay_shuffle`, one LRU
    stack per set that never calls the engine's `vasa.shuffle`.  Any other
    bank runs full-way LRU (partial disabling is left to `price`): on a way
    aligned table, where a hit counts at its cell (its global set in its
    core's row), `cache_core.lru_hits` tells whether each reference hits
    without a replay; on a set aligned one, where a hit counts at its
    landing (way and depth) in its (row, bank) block, `cache_core.replay_lru`
    replays it.  None keeps values or dirty bits, which change no hit.  Use
    a translated stream under page mapping (`pagemap.translate_trace`).
    """
    banks = len(policies)
    if banks & (banks - 1):
        raise ValueError("num_banks must be a power of two")
    trace = workload.as_trace(records)
    ways, num_sets = geometry.num_ways, geometry.num_sets
    bank_geometry = CacheGeometry(geometry.capacity_bytes // banks, ways,
                                  geometry.line_bytes)
    bank_sets = bank_geometry.num_sets
    per_set = layout is LayoutKind.WAY_ALIGNED
    groups = layout.group_count(bank_geometry)
    depths = 1 if per_set else ways
    rows = 1 if noc is None else len(noc)
    row = 0 if noc is None else trace.core
    outside = np.flatnonzero((row < 0) | (row >= rows))
    if outside.size:
        raise ValueError(f"core id {row[outside[0]]} is not on the mesh")
    sets = ((trace.addr >> geometry.offset_bits)
            & (num_sets - 1)).astype(np.int64)
    order = cache_core.set_order(sets)
    tags = (trace.addr >> (geometry.offset_bits + geometry.set_bits))[order]
    # The rows of a set share its replay; only the count tells them apart.
    cells = (row * num_sets + sets)[order]
    sets = sets[order]
    del order
    hits, landings, moves = [], [], 0
    bounds = np.searchsorted(sets, np.arange(banks + 1) * bank_sets).tolist()
    for policy, run in zip(policies, map(slice, bounds, bounds[1:])):
        if policy.shuffle is not None:
            landed, step = vasa.replay_shuffle(sets[run], tags[run],
                                               policy.shuffle)
            moves += step
        elif per_set:
            hits.append(cache_core.lru_hits(sets[run], tags[run], ways))
            continue
        else:
            landed = cache_core.replay_lru(sets[run], tags[run], ways)
        hits.append(landed >= 0)
        landings.append(landed)
    hit = np.concatenate(hits)
    index = cells[hit]
    if not per_set:
        landing = np.concatenate(landings)[hit]
        index = index // bank_sets * groups * depths + landing
    counts = np.bincount(index, minlength=rows * banks * groups * depths)
    return HitTable(counts, (rows, banks, groups, depths), per_set,
                    len(trace), int(trace.write.sum()), moves)


def price(table, policies, memory_latency, noc=None):
    """RunStats of one row: a pass's HitTable charged under its policies.

    A counted hit is a hit of the row unless partial disabling turned its
    group off.  On a way aligned table that is a hit in a `disabled` set.
    On a set aligned table it is a hit deeper than the `ways -
    len(disabled)` ways left on: LRU is a stack algorithm, so a bank
    restricted to k ways hits exactly where the full-way pass hits at
    depth k or less (the cumulative sum over depth, read at k), and
    `BankPolicy` requires one clock for every enabled way, so the way the
    pass names prices it alike.  A hit costs latency[group] +
    noc[row][bank], with no NoC term when noc (a `noc_table`) is None.
    Every other access is a miss at memory_latency: price fills only the
    histogram, and `metrics.RunStats` derives the hits and totals from it.
    """
    stats = metrics.RunStats(memory_latency, table.accesses, table.writes,
                             table.shuffle_moves)
    within = np.cumsum(table.counts.reshape(table.shape), axis=3)
    hits = within[..., -1]
    for bank, policy in enumerate(policies):
        off = sorted(policy.disabled)
        if table.per_set:
            hits[:, bank, off] = 0
        elif off:
            hits[:, bank] = within[:, bank, :, -1 - len(off)]
    hops = 0 if noc is None else np.array([noc[r] for r in range(len(hits))])
    cycles = np.broadcast_to(np.array([p.latency for p in policies])
                             + np.expand_dims(hops, -1), hits.shape)
    count = np.zeros(cycles.max() + 1, dtype=np.int64)   # hits per cycle count
    np.add.at(count, cycles.ravel(), hits.ravel())
    landed = np.flatnonzero(count)
    stats.hit_latency_histogram.update(
        dict(zip(landed.tolist(), count[landed].tolist())))
    return stats
