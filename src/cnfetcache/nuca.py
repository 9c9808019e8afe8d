"""Non-uniform cache architecture layer: banks on a 2D mesh, X-Y routing,
and the unified latency model hit_lat + noc_lat(core, bank).

Banks are independent cache instances carved out of the LLC capacity; the
bank id sits in the address bits immediately above the per-bank set index,
so a page's lines always land in a single bank.  Routing cost is hop count
times cycles per hop, doubled by default for the request/response round
trip.  Contention is not modeled (single-cycle routers)."""

from collections import defaultdict
from dataclasses import dataclass, field

from . import cache_core
from .timing import CacheGeometry, LayoutKind


@dataclass
class MeshTopology:
    rows: int = 2
    cols: int = 4
    bank_coords: dict = field(default_factory=dict)   # bank id -> (row, col)
    core_coords: dict = field(default_factory=dict)   # core id -> (row, col)
    cycles_per_hop: int = 1
    round_trip_factor: int = 2

    def __post_init__(self):
        if not self.bank_coords:
            # One bank per router, row-major.
            self.bank_coords = {b: divmod(b, self.cols)
                                for b in range(self.rows * self.cols)}
        if not self.core_coords:
            # Four cores at the corner routers.
            self.core_coords = {
                0: (0, 0),
                1: (0, self.cols - 1),
                2: (self.rows - 1, 0),
                3: (self.rows - 1, self.cols - 1),
            }
        for name, coords in (("bank", self.bank_coords), ("core", self.core_coords)):
            for ident, (r, c) in coords.items():
                if not (0 <= r < self.rows and 0 <= c < self.cols):
                    raise ValueError(f"{name} {ident} coordinate {(r, c)} off grid")
        if len(set(self.bank_coords)) != len(self.bank_coords):
            raise ValueError("bank ids must be unique")

    @property
    def num_banks(self):
        return len(self.bank_coords)


def noc_latency(topology, core_id, bank_id):
    """Round-trip X-Y routing cycles between a core and a bank router."""
    try:
        cr, cc = topology.core_coords[core_id]
        br, bc = topology.bank_coords[bank_id]
    except KeyError as exc:
        raise KeyError(f"unknown core or bank id: {exc}") from None
    hops = abs(cr - br) + abs(cc - bc)
    return topology.round_trip_factor * hops * topology.cycles_per_hop


def bank_of(address, num_banks, bank_geometry):
    """Bank id from the address bits immediately above the set-index bits."""
    if num_banks & (num_banks - 1):
        raise ValueError("num_banks must be a power of two")
    if num_banks == 1:
        return 0
    shift = bank_geometry.offset_bits + bank_geometry.set_bits
    return (address >> shift) & (num_banks - 1)


def bank_average_latency(latmap):
    """Mean way latency of a bank, as reported per bank in NUCA runs; page
    mapping charges every set of a set aligned bank this mean."""
    return sum(latmap.latencies) / len(latmap.latencies)


class NucaCache:
    """LLC distributed over mesh-attached banks, one cache instance each.

    Every bank serves its requests through its own BankPolicy: data
    shuffling never crosses banks, and way aligned banks each carry their
    own grouping, forming one logical way aligned cache with many latency
    groups.  A hit costs the bank's list latency plus noc_lat(core, bank).
    A uniform cache (UCA) is the one-bank case: topology None, no NoC cost
    for any core id.
    """

    def __init__(self, total_geometry, topology, layout, policies,
                 memory=None):
        banks = len(policies)
        if banks & (banks - 1):
            raise ValueError("num_banks must be a power of two")
        if topology is not None and topology.num_banks != banks:
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
        self.memory = {} if memory is None else memory
        self.banks = [cache_core.CacheState(self.bank_geometry, self.memory)
                      for _ in range(banks)]
        self._slots = [(state, p.engine, p.ways, p.bypass, p.latency)
                       for state, p in zip(self.banks, policies)]
        if topology is None:
            self.noc = defaultdict(lambda: (0,))
        else:
            self.noc = {core: tuple(noc_latency(topology, core, b)
                                    for b in range(banks))
                        for core in topology.core_coords}
        geometry = self.bank_geometry
        self._offset_bits = geometry.offset_bits
        self._set_mask = geometry.num_sets - 1
        # The bank id is the low bits of the tag: see bank_of.
        self._tag_shift = geometry.offset_bits + geometry.set_bits
        self._bank_mask = banks - 1

    def access(self, core_id, address, write=False, value=0):
        """One LLC reference; a hit's latency is hit_lat + noc_lat."""
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
