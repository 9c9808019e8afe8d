"""Trace ingestion, L1 filtering, and synthetic workload generation.

Trace grammar, one record per line:

    <core:uint> <op:R|W> [<kind:I|D>] <vaddr:0x-hex>

Comment lines start with `#`; blank lines are ignored.  A core id must fit
a signed 64-bit integer and an address must be below 2^64.

A stream is a `Trace`: four parallel numpy columns, one entry per
reference.  Parsing, generation, the L1 filter, page profiling and the LLC
passes all read and write the columns; iterating a Trace yields one
TraceRecord per reference, for the per-access reference path.  The L1
filter runs per-core instruction and data caches over a trace and forwards
only the misses (as reads) and dirty evictions (as writes), i.e. the
stream the LLC would actually see.
"""

import io
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter

import numpy as np

from .timing import CacheGeometry

ADDRESS_LIMIT = 1 << 64        # addresses are below this
CORE_LIMIT = 1 << 63           # core ids are below this (int64)
# Lines parsed per chunk: each chunk becomes columns before the next is
# read, so the text of a trace is never held whole.
PARSE_CHUNK_LINES = 4096


@dataclass(frozen=True)
class TraceRecord:
    core_id: int
    op: str            # 'R' or 'W'
    vaddr: int
    kind: str = "D"    # 'I' or 'D'

    def __post_init__(self):
        if self.op not in ("R", "W"):
            raise ValueError(f"op must be R or W, got {self.op!r}")
        if self.kind not in ("I", "D"):
            raise ValueError(f"kind must be I or D, got {self.kind!r}")


class Trace:
    """A reference stream as four parallel columns: `core` (int64), `write`
    (bool: op W), `instr` (bool: kind I) and `addr` (uint64)."""

    __slots__ = ("core", "write", "instr", "addr")

    def __init__(self, core, write, instr, addr):
        self.core = np.asarray(core, dtype=np.int64)
        self.write = np.asarray(write, dtype=bool)
        self.instr = np.asarray(instr, dtype=bool)
        self.addr = np.asarray(addr, dtype=np.uint64)
        if not (len(self.core) == len(self.write) == len(self.instr)
                == len(self.addr)):
            raise ValueError("trace columns differ in length")

    def __len__(self):
        return len(self.addr)

    def __iter__(self):
        for core, write, instr, addr in zip(
                self.core.tolist(), self.write.tolist(),
                self.instr.tolist(), self.addr.tolist()):
            yield TraceRecord(core, "RW"[write], addr, "DI"[instr])


def as_trace(records):
    """A Trace of the stream: a Trace as it is, any other iterable of
    TraceRecords converted to columns.  A record whose core id or address
    does not fit its column raises ValueError."""
    if isinstance(records, Trace):
        return records
    records = list(records)
    cores = list(map(attrgetter("core_id"), records))
    addrs = list(map(attrgetter("vaddr"), records))
    if records and not (-CORE_LIMIT <= min(cores) and max(cores) < CORE_LIMIT
                        and 0 <= min(addrs) and max(addrs) < ADDRESS_LIMIT):
        bad = next(r for r in records if not (-CORE_LIMIT <= r.core_id < CORE_LIMIT
                                              and 0 <= r.vaddr < ADDRESS_LIMIT))
        raise ValueError(f"{bad}: core ids must fit int64 and addresses "
                         f"must be in [0, 2^64)")
    write = [r.op == "W" for r in records]
    instr = [r.kind == "I" for r in records]
    return Trace(cores, write, instr, addrs)


@dataclass(frozen=True)
class L1Config:
    icache: CacheGeometry = CacheGeometry(16 * 1024, 2, 64)
    dcache: CacheGeometry = CacheGeometry(32 * 1024, 2, 64)


class TraceParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"trace line {lineno}: {message}")
        self.lineno = lineno


def parse_trace(stream, num_cores=None):
    """Parse the text grammar into a Trace, validating core ids.

    Lines are read and checked PARSE_CHUNK_LINES at a time, and each
    chunk becomes columns before the next is read.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    chunks = []
    lineno = 0
    while True:
        lines = list(islice(stream, PARSE_CHUNK_LINES))
        if not lines:
            break
        chunks.append(_parse_lines(lines, lineno, num_cores))
        lineno += len(lines)
    if not chunks:
        return Trace([], [], [], [])
    return Trace(*map(np.concatenate, zip(*chunks)))


def _parse_lines(lines, first_lineno, num_cores):
    """Columns of a chunk of lines, checked one line at a time;
    first_lineno is the number of lines before the chunk."""
    cores, writes, instrs, addrs = [], [], [], []
    for lineno, line in enumerate(lines, start=first_lineno + 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) == 3:
            core_s, op, addr_s = fields
            kind = "D"
        elif len(fields) == 4:
            core_s, op, kind, addr_s = fields
        else:
            raise TraceParseError(lineno, f"expected 3 or 4 fields, got {len(fields)}")
        try:
            core = int(core_s)
        except ValueError:
            raise TraceParseError(lineno, f"bad core id {core_s!r}") from None
        if core < 0:
            raise TraceParseError(lineno, f"negative core id {core}")
        if num_cores is not None and core >= num_cores:
            raise TraceParseError(lineno, f"core {core} out of range (num_cores={num_cores})")
        if core >= CORE_LIMIT:
            raise TraceParseError(lineno, f"core id {core} does not fit int64")
        if op not in ("R", "W"):
            raise TraceParseError(lineno, f"bad op {op!r}")
        if kind not in ("I", "D"):
            raise TraceParseError(lineno, f"bad kind {kind!r}")
        if addr_s[:2] not in ("0x", "0X"):
            raise TraceParseError(lineno, f"address {addr_s!r} must be 0x-hex")
        try:
            vaddr = int(addr_s, 16)
        except ValueError:
            raise TraceParseError(lineno, f"bad address {addr_s!r}") from None
        if vaddr >= ADDRESS_LIMIT:
            raise TraceParseError(lineno, f"address {addr_s!r} does not fit 64 bits")
        cores.append(core)
        writes.append(op == "W")
        instrs.append(kind == "I")
        addrs.append(vaddr)
    return (np.array(cores, dtype=np.int64), np.array(writes, dtype=bool),
            np.array(instrs, dtype=bool), np.array(addrs, dtype=np.uint64))


def serialize_trace(records, stream=None):
    """Canonical rendering: kind always explicit, lower-case hex."""
    trace = as_trace(records)
    out = stream if stream is not None else io.StringIO()
    out.writelines(f"{core} {'RW'[write]} {'DI'[instr]} 0x{addr:x}\n"
                   for core, write, instr, addr in zip(
                       trace.core.tolist(), trace.write.tolist(),
                       trace.instr.tolist(), trace.addr.tolist()))
    if stream is None:
        return out.getvalue()
    return None


@dataclass
class L1FilterResult:
    records: Trace
    accesses: dict     # core -> L1 accesses
    misses: dict       # core -> L1 misses


def _count_by_core(cores):
    """{core: references} in order of each core's first reference."""
    values, first, counts = np.unique(cores, return_index=True,
                                      return_counts=True)
    order = np.argsort(first)
    return dict(zip(values[order].tolist(), counts[order].tolist()))


def _lru_misses(positions, sets, lines, writes, ways, fills, victims):
    """LRU over per-set lists, as `nuca.lru_pass` keeps them: the line
    address and dirty bit in each way, and the set's filled ways, most
    recent first.

    Appends the position of every miss to `fills`, and (position, line
    address) of every dirty line a miss evicts to `victims`.
    """
    num_sets = max(sets, default=-1) + 1
    all_lines = [[None] * ways for _ in range(num_sets)]
    all_dirty = [[False] * ways for _ in range(num_sets)]
    all_orders = [[] for _ in range(num_sets)]
    for position, s, line, write in zip(positions, sets, lines, writes):
        held = all_lines[s]
        order = all_orders[s]
        if line in held:
            way = held.index(line)
            if order[0] != way:
                order.remove(way)
                order.insert(0, way)
            if write:
                all_dirty[s][way] = True
        else:
            fills.append(position)
            if len(order) < ways:
                way = len(order)
            else:
                way = order.pop()
                if all_dirty[s][way]:
                    victims.append((position, held[way]))
            held[way] = line
            all_dirty[s][way] = write
            order.insert(0, way)


def l1_filter(records, config):
    """Run per-core L1 i/d caches and emit the LLC-bound stream.

    Each L1 miss forwards the original reference as a read (line fill) and a
    dirty eviction forwards a write of the victim line, attributed to the
    core that triggered it, ahead of the fill.  Caches are LRU, filled and
    dirtied as `cache_core.lru_access` fills and dirties them.
    """
    trace = as_trace(records)
    _, core_rank = np.unique(trace.core, return_inverse=True)
    fills, victims = [], []
    for instr, geometry in ((True, config.icache), (False, config.dcache)):
        positions = np.flatnonzero(trace.instr == instr)
        line = trace.addr[positions] >> geometry.offset_bits
        sets = (core_rank[positions] * geometry.num_sets
                + (line & (geometry.num_sets - 1)).astype(np.int64))
        _lru_misses(positions.tolist(), sets.tolist(),
                    (line << geometry.offset_bits).tolist(),
                    trace.write[positions].tolist(), geometry.num_ways,
                    fills, victims)
    fills = np.array(fills, dtype=np.int64)
    victim_at = np.array([p for p, _ in victims], dtype=np.int64)
    victim_addr = np.array([a for _, a in victims], dtype=np.uint64)
    # A write-back goes out just ahead of the fill of the miss evicting it.
    order = np.argsort(np.concatenate([2 * victim_at, 2 * fills + 1]))
    source = np.concatenate([victim_at, fills])[order]
    writeback = order < len(victim_at)
    out = Trace(trace.core[source], writeback,
                trace.instr[source] & ~writeback,
                np.concatenate([victim_addr, trace.addr[fills]])[order])
    return L1FilterResult(out, _count_by_core(trace.core),
                          _count_by_core(trace.core[np.sort(fills)]))


@dataclass(frozen=True)
class SyntheticSpec:
    num_pages: int = 256
    zipf_exponent: float = 1.2
    read_fraction: float = 0.7
    length: int = 100_000
    num_cores: int = 1
    instr_stream: bool = False
    seed: int = 0
    page_bytes: int = 4096
    line_bytes: int = 64
    # Fraction of a page's accesses issued by its home core (pages are dealt
    # to cores round-robin by rank); the rest come from uniformly random
    # cores.  Irrelevant for a single core.
    core_affinity: float = 0.75

    def __post_init__(self):
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0,1]")
        if not 0.0 <= self.core_affinity <= 1.0:
            raise ValueError("core_affinity must be in [0,1]")


CODE_SPAN = 1 << 20     # bytes of each core's code region


def zipf_weights(num_pages, exponent):
    """Normalized Zipf mass per page rank (rank 0 hottest)."""
    ranks = np.arange(1, num_pages + 1, dtype=np.float64)
    w = ranks ** -exponent
    return w / w.sum()


def generate_synthetic(spec):
    """Zipf-distributed page popularity with uniform lines within a page.

    Page k is the k-th hottest page.  With instr_stream enabled, every other
    reference per core (its second, fourth, ...) is a sequential
    instruction fetch from a per-core code region placed above the data
    pages: the core's k-th reference (k from 0, k odd) fetches
    code_base + core * CODE_SPAN + (k // 2) * line_bytes.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.length == 0:
        return Trace([], [], [], [])
    code_base = spec.num_pages * spec.page_bytes
    # Addresses are computed in int64.
    top = code_base + spec.num_cores * CODE_SPAN + spec.length * spec.line_bytes
    if top >= 1 << 63:
        raise ValueError(f"synthetic addresses would reach {top:#x}; "
                         f"they must stay below 2^63")
    lines_per_page = spec.page_bytes // spec.line_bytes
    weights = zipf_weights(spec.num_pages, spec.zipf_exponent)
    cores = rng.integers(0, spec.num_cores, size=spec.length)
    pages = rng.choice(spec.num_pages, size=spec.length, p=weights)
    lines = rng.integers(0, lines_per_page, size=spec.length)
    is_read = rng.random(spec.length) < spec.read_fraction
    if spec.num_cores > 1:
        at_home = rng.random(spec.length) < spec.core_affinity
        home = pages % spec.num_cores
        cores = np.where(at_home, home, cores)
    addr = pages * spec.page_bytes + lines * spec.line_bytes
    instr = np.zeros(spec.length, dtype=bool)
    if spec.instr_stream:
        per_core = np.bincount(cores, minlength=spec.num_cores)
        rank = np.empty(spec.length, dtype=np.int64)
        rank[np.argsort(cores, kind="stable")] = (
            np.arange(spec.length)
            - np.repeat(np.cumsum(per_core) - per_core, per_core))
        instr = rank % 2 == 1
        pc = code_base + cores * CODE_SPAN + rank // 2 * spec.line_bytes
        addr = np.where(instr, pc, addr)
    return Trace(cores, ~is_read & ~instr, instr, addr)
