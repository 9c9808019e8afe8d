"""Trace ingestion, L1 filtering, and synthetic workload generation.

Trace grammar, one record per line:

    <core:uint> <op:R|W> [<kind:I|D>] <vaddr:0x-hex>

Comment lines start with `#`; blank lines are ignored.  A core id must fit
a signed 64-bit integer and an address must be below 2^64.  The text is
UTF-8.

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

    Lines are read PARSE_CHUNK_LINES at a time, and each chunk becomes
    columns before the next is read.  A chunk is first scanned as bytes
    with numpy (`_scan_chunk`); one the scan does not accept whole goes
    through `_parse_lines`, which defines the grammar and names the first
    bad line.  A surrogate in the text, which is how a file opened with
    errors="surrogateescape" carries a byte that is not UTF-8, is an
    error on its line.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    chunks = []
    lineno = 0
    while True:
        lines = list(islice(stream, PARSE_CHUNK_LINES))
        if not lines:
            break
        chunks.append(_parse_chunk(lines, lineno, num_cores))
        lineno += len(lines)
    if not chunks:
        return Trace([], [], [], [])
    return Trace(*map(np.concatenate, zip(*chunks)))


def _parse_chunk(lines, first_lineno, num_cores):
    """Columns of a chunk of lines, from the byte scan when it accepts the
    chunk and from `_parse_lines` otherwise."""
    text = "".join(lines)
    try:
        data = text.encode()
    except UnicodeEncodeError as exc:
        bad = text.count("\n", 0, exc.start)
        _parse_lines(lines[:bad], first_lineno, num_cores)
        raise TraceParseError(first_lineno + bad + 1, "not UTF-8 text") from None
    columns = _scan_chunk(data, num_cores)
    if columns is None:
        columns = _parse_lines(lines, first_lineno, num_cores)
    return columns


# Byte tables of the scan: the ASCII bytes str.split() splits on, and the
# value of each hex digit (255 for any other byte).
_SEPARATOR = np.array([b < 128 and chr(b).isspace() for b in range(256)])
_DIGIT = np.full(256, 255, dtype=np.uint8)
_DIGIT[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
_DIGIT[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)


def _scan_chunk(data, num_cores):
    """Columns of a chunk of UTF-8 text whose every line is blank, a
    comment or a plain record, or None.

    A plain record has 3 or 4 fields split by ASCII whitespace: a core id
    of 1 to 18 decimal digits (below num_cores when given), R or W,
    optionally I or D, and 0x or 0X with 1 to 16 hex digits.  Every such
    line parses as `_parse_lines` parses it; every other form is left to
    `_parse_lines`.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    text = np.frombuffer(data, dtype=np.uint8)
    # Tokens are the runs of non-separator bytes: each starts where a
    # separator run ends and ends where the next begins.
    edges = np.flatnonzero(np.diff(_SEPARATOR[text].view(np.int8), prepend=1))
    starts, ends = edges[0::2], edges[1::2]
    token_line = np.searchsorted(np.flatnonzero(text == ord("\n")), starts)
    head = np.flatnonzero(np.diff(token_line, prepend=-1))
    count = np.diff(head, append=len(starts))
    record = text[starts[head]] != ord("#")
    head, count = head[record], count[record]
    if not len(head):
        return _columns([], [], [], [])
    if not np.all((count == 3) | (count == 4)):
        return None
    op_at, kind_at = starts[head + 1], starts[head + 2]
    addr_start, addr_end = starts[head + count - 1], ends[head + count - 1]
    has_kind = count == 4
    op, kind = text[op_at], text[kind_at]
    if not (np.all(ends[head + 1] - op_at == 1)
            and np.all((op == ord("R")) | (op == ord("W")))
            and np.all(~has_kind | (ends[head + 2] - kind_at == 1))
            and np.all(~has_kind | (kind == ord("I")) | (kind == ord("D")))
            and np.all(text[addr_start] == ord("0"))
            and np.all((text[addr_start + 1] | 0x20) == ord("x"))):
        return None
    core = _scan_number(text, starts[head], ends[head], 18, 10, np.int64)
    addr = _scan_number(text, addr_start + 2, addr_end, 16, 16, np.uint64)
    if core is None or addr is None:
        return None
    if num_cores is not None and np.any(core >= num_cores):
        return None
    return _columns(core, op == ord("W"), has_kind & (kind == ord("I")), addr)


def _scan_number(text, starts, ends, max_digits, base, dtype):
    """Values of the tokens text[starts:ends], each 1 to max_digits digits
    of the base, or None when any token is not."""
    width = ends - starts
    if width.min() < 1 or width.max() > max_digits:
        return None
    # Right-align the tokens, their digits padded on the left with zeros.
    at = ends[:, None] + np.arange(-int(width.max()), 0)
    digits = _DIGIT[text.take(at, mode="clip")]
    digits[at < starts[:, None]] = 0
    if np.any(digits >= base):
        return None
    value = np.zeros(len(starts), dtype=dtype)
    for column in digits.T:
        value = value * base + column
    return value


def _columns(cores, writes, instrs, addrs):
    return (np.asarray(cores, dtype=np.int64), np.asarray(writes, dtype=bool),
            np.asarray(instrs, dtype=bool), np.asarray(addrs, dtype=np.uint64))


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
    return _columns(cores, writes, instrs, addrs)


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
    """LRU over per-set lists, as `nuca.count_hits` keeps them: the line
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


def _run_heads(sets, lines, writes):
    """The references that do not repeat the line of the previous reference
    to their set, each with the OR of the writes of its run of repeats.

    A repeat hits its set's MRU line, so it changes no LRU order and can
    only dirty the line; its run's head carries that write instead.
    Returns the heads' indices, in stream order, and their writes.
    """
    # numpy's stable sort of keys of 16 bits or fewer is a radix sort.
    order = np.argsort(sets.astype(np.min_scalar_type(sets.max(initial=0))),
                       kind="stable")
    by_set, by_line = sets[order], lines[order]
    starts_run = np.ones(len(order), dtype=bool)
    starts_run[1:] = (by_set[1:] != by_set[:-1]) | (by_line[1:] != by_line[:-1])
    runs = np.flatnonzero(starts_run)
    head = np.zeros(len(order), dtype=bool)
    head[order[runs]] = True
    run_writes = np.zeros(len(order), dtype=bool)
    run_writes[order[runs]] = np.logical_or.reduceat(writes[order], runs)
    heads = np.flatnonzero(head)
    return heads, run_writes[heads]


def l1_filter(records, config):
    """Run per-core L1 i/d caches and emit the LLC-bound stream.

    Each L1 miss forwards the original reference as a read (line fill) and a
    dirty eviction forwards a write of the victim line, attributed to the
    core that triggered it, ahead of the fill.  Caches are LRU, filled and
    dirtied as `cache_core.lru_access` fills and dirties them.

    A reference to the line its (core, L1 set) saw last is an MRU hit that
    can only dirty the line, so only the first reference of each such run
    enters the per-set LRU loop (`_run_heads`), carrying the run's writes.
    """
    trace = as_trace(records)
    _, core_rank = np.unique(trace.core, return_inverse=True)
    fills, victims = [], []
    for instr, geometry in ((True, config.icache), (False, config.dcache)):
        positions = np.flatnonzero(trace.instr == instr)
        line = trace.addr[positions] >> geometry.offset_bits
        sets = (core_rank[positions] * geometry.num_sets
                + (line & (geometry.num_sets - 1)).astype(np.int64))
        heads, writes = _run_heads(sets, line, trace.write[positions])
        _lru_misses(positions[heads].tolist(), sets[heads].tolist(),
                    (line[heads] << geometry.offset_bits).tolist(),
                    writes.tolist(), geometry.num_ways, fills, victims)
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
