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
filter replays per-core instruction and data caches over a trace with the
LLC pass's LRU (`cache_core.replay_lru`) and forwards only the misses (as
reads) and dirty evictions (as writes), i.e. the stream the LLC would see.
"""

import io
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import cache_core
from .timing import CacheGeometry

ADDRESS_LIMIT = 1 << 64        # addresses are below this
CORE_LIMIT = 1 << 63           # core ids are below this (int64)
# Characters read per block: each block becomes columns before the next is
# read, so the text of a trace is never held whole.
PARSE_BLOCK_CHARS = 1 << 16


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

    The text is read in blocks of PARSE_BLOCK_CHARS characters, each
    completed to the end of its last line, and each block becomes columns
    before the next is read.  A block is first scanned as bytes with numpy
    (`_scan_chunk`); one the scan does not accept whole goes through
    `_parse_lines`, split at "\\n" alone, which defines the grammar and
    names the first bad line.  A surrogate in the text, which is how a file
    opened with errors="surrogateescape" carries a byte that is not UTF-8,
    is an error on its line.  An iterable of lines is read as their joined
    text.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    elif not hasattr(stream, "read"):
        stream = io.StringIO("".join(stream))
    # Each column's blocks, joined one column at a time and dropped once
    # joined, so the peak is the blocks and one joined column.
    columns, lineno = [[part] for part in _columns([], [], [], [])], 0
    while text := stream.read(PARSE_BLOCK_CHARS):
        text += stream.readline()
        parts, lines = _parse_chunk(text, lineno, num_cores)
        for column, part in zip(columns, parts):
            column.append(part)
        lineno += lines
    joined = []
    for column in columns:
        joined.append(np.concatenate(column))
        column.clear()
    return Trace(*joined)


def _parse_chunk(text, first_lineno, num_cores):
    """Columns and newline count of a block of whole lines, from the byte
    scan when it accepts the block and from `_parse_lines` otherwise.  The
    count numbers the next block's lines, so it need only be exact for a
    block that ends in a newline, as every block but the last does."""
    try:
        data = text.encode()
    except UnicodeEncodeError as exc:
        bad = text.count("\n", 0, exc.start)
        _parse_lines(text.split("\n", bad)[:bad], first_lineno, num_cores)
        raise TraceParseError(first_lineno + bad + 1, "not UTF-8 text") from None
    columns, lines = _scan_chunk(data, num_cores)
    if columns is None:
        split = text.split("\n")
        columns, lines = _parse_lines(split, first_lineno, num_cores), len(split) - 1
    return columns, lines


# Byte tables of the scan: the ASCII bytes str.split() splits on, and, for
# bytes.translate, the value of each hex digit (255 for any other byte).
_SEPARATOR = np.array([b < 128 and chr(b).isspace() for b in range(256)])
_DIGIT = bytes(int(chr(b), 16) if chr(b) in "0123456789abcdefABCDEF" else 255
               for b in range(256))


def _scan_chunk(data, num_cores):
    """(columns, newlines) of a block of UTF-8 text: the columns when its
    every line is blank, a comment or a plain record, else None, and the
    number of its newlines once its last line is ended with one.

    A plain record has 3 or 4 fields split by ASCII whitespace: a core id
    of 1 to 18 decimal digits (below num_cores when given), R or W,
    optionally I or D, and 0x or 0X with 1 to 16 hex digits.  Every such
    line parses as `_parse_lines` parses it; every other form is left to
    `_parse_lines`.

    The separators are found once.  Each ends a span of text that starts
    just after the one before it, the first just before the text; the
    spans a run of separators leaves empty are dropped, and the rest are
    the fields.  A line's fields follow those of the line before it, so
    its op, kind and address are read at offsets from its first field.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    text = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero(text <= 32)
    byte = text.take(sep)
    known = _SEPARATOR.take(byte)
    if not known.all():
        sep, byte = sep[known], byte[known]
    newline = np.flatnonzero(byte == ord("\n"))     # each line's last span
    lines = len(newline)
    bounds = np.empty(len(sep) + 1, dtype=np.int32)
    bounds[0], bounds[1:] = -1, sep
    lo, hi = bounds[:-1], bounds[1:]     # span k is text[lo[k] + 1:hi[k]]
    through = newline + 1                # fields up to each line's end
    empty = np.flatnonzero(hi - lo == 1)
    if len(empty):
        lo, hi = np.delete(lo, empty), np.delete(hi, empty)
        through -= np.searchsorted(empty, newline, "right")
    count = np.diff(through, prepend=0)
    head = through - count               # each line's first field
    record = count > 0                   # not blank
    head, count = head[record], count[record]
    record = text.take(lo.take(head) + 1) != ord("#")      # not a comment
    head, count = head[record], count[record]
    if not len(head):
        return _columns([], [], [], []), lines
    has_kind = count == 4
    if not np.all(has_kind | (count == 3)):
        return None, lines
    op_at, kind_at = lo.take(head + 1) + 1, lo.take(head + 2) + 1
    last = head + count - 1
    addr_at, addr_end = lo.take(last) + 1, hi.take(last)
    op, kind = text.take(op_at), text.take(kind_at)
    if not (np.all(hi.take(head + 1) == op_at + 1)
            and np.all((op == ord("R")) | (op == ord("W")))
            and np.all(~has_kind | ((hi.take(head + 2) == kind_at + 1)
                                    & ((kind == ord("I")) | (kind == ord("D")))))
            and np.all(text.take(addr_at) == ord("0"))
            and np.all((text.take(addr_at + 1) | 0x20) == ord("x"))):
        return None, lines
    digits = np.frombuffer(data.translate(_DIGIT), dtype=np.uint8)
    core = _scan_number(digits, lo.take(head) + 1, hi.take(head), 18, 10, np.int64)
    addr = _scan_number(digits, addr_at + 2, addr_end, 16, 16, np.uint64)
    if core is None or addr is None:
        return None, lines
    if num_cores is not None and np.any(core >= num_cores):
        return None, lines
    return (_columns(core, op == ord("W"), has_kind & (kind == ord("I")), addr),
            lines)


def _scan_number(digits, starts, ends, max_digits, base, dtype):
    """Values of the fields digits[starts:ends], each 1 to max_digits digits
    of the base, or None when any field is not; digits holds the block's
    bytes as hex digit values."""
    width = ends - starts
    narrowest, widest = int(width.min()), int(width.max())
    if narrowest < 1 or widest > max_digits:
        return None
    value = np.zeros(len(ends), dtype=dtype)
    # The digits `back` places from each field's end, 0 left of a field.
    for back in range(widest, 0, -1):
        digit = digits.take(ends - back)
        if back > narrowest:
            digit *= width >= back
        if digit.max() >= base:
            return None
        value *= base
        value += digit
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


def l1_filter(records, config):
    """Run per-core L1 i/d caches and emit the LLC-bound stream.

    Each L1 miss forwards the original reference as a read (line fill) and a
    dirty eviction forwards a write of the victim line, attributed to the
    core that triggered it, ahead of the fill.  Caches are LRU, filled and
    dirtied as `cache_core.lru_access` fills and dirties them.

    Sorted by (core, L1 set), a reference that repeats its set's last line
    is an MRU hit that can only dirty it, so only the first reference of
    each run is replayed (`cache_core.replay_two_way` for two ways, else
    `replay_lru`), carrying the run's writes.  A (set, way) slot holds one
    line from one fill to the next, which evicts it dirty if a write
    reached it in between.  Every core's first reference misses, so the
    misses list the cores in the order the accesses do.
    """
    trace = as_trace(records)
    # Cores are ranked in their narrowest unsigned type, which sorts fastest.
    key = trace.core.view(np.uint64)
    _, first, core_rank, accesses = np.unique(
        key.astype(np.min_scalar_type(key.max(initial=0))),
        return_index=True, return_inverse=True, return_counts=True)
    num_cores = len(first)
    core_rank = core_rank.astype(cache_core.index_type(num_cores - 1))
    # A position enters the merge key of the output as 2 * position + 1.
    index = cache_core.index_type(2 * len(trace) + 1)
    parts = []
    for instr, geometry in ((True, config.icache), (False, config.dcache)):
        ways, num_sets = geometry.num_ways, geometry.num_sets
        positions = np.flatnonzero(trace.instr == instr).astype(index)
        line = trace.addr[positions] >> geometry.offset_bits
        # The L1 sets and their slots (set * ways + way) share one type.
        sets = core_rank[positions].astype(
            cache_core.index_type(num_cores * num_sets * ways - 1), copy=False)
        sets *= num_sets
        sets += (line & (num_sets - 1)).astype(sets.dtype)
        order = cache_core.set_order(sets)
        sets, line = sets[order], line[order]
        runs = np.flatnonzero((np.diff(sets, prepend=sets[:1] - 1) != 0)
                              | (np.diff(line, prepend=line[:1]) != 0)
                              ).astype(index)
        writes = np.logical_or.reduceat(trace.write[positions[order]], runs)
        positions, sets, line = positions[order[runs]], sets[runs], line[runs]
        del order, runs
        landing = (cache_core.replay_two_way(sets, line) if ways == 2
                   else cache_core.replay_lru(sets, line, ways))
        fill = landing < 0
        # Each slot's references in stream order: its lives start at fills.
        slot = sets * ways + np.where(fill, -1 - landing, landing // ways)
        del sets, landing
        by_slot = cache_core.set_order(slot)
        lives = np.flatnonzero(fill[by_slot]).astype(index)
        dirty = np.logical_or.reduceat(writes[by_slot], lives)[:-1]
        del writes
        born, evicting = by_slot[lives[:-1]], by_slot[lives[1:]]
        del by_slot, lives
        evicted = dirty & (slot[born] == slot[evicting])
        del slot, dirty
        parts.append((positions[fill], positions[evicting[evicted]],
                      line[born[evicted]] << geometry.offset_bits))
        del positions, line, fill, born, evicting, evicted
    fills, victim_at, victim_addr = map(np.concatenate, zip(*parts))
    del parts
    # A write-back goes out just ahead of the fill of the miss evicting it.
    order = np.argsort(np.concatenate([2 * victim_at, 2 * fills + 1]))
    source = np.concatenate([victim_at, fills])[order]
    writeback = order < len(victim_at)
    out = Trace(trace.core[source], writeback,
                trace.instr[source] & ~writeback,
                np.concatenate([victim_addr, trace.addr[fills]])[order])
    misses = np.bincount(core_rank[fills], minlength=num_cores)
    order = np.argsort(first)
    cores = trace.core[first[order]].tolist()
    return L1FilterResult(out, dict(zip(cores, accesses[order].tolist())),
                          dict(zip(cores, misses[order].tolist())))


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
