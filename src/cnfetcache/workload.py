"""Trace ingestion, L1 filtering, and synthetic workload generation.

Trace grammar, one record per line:

    <core:uint> <op:R|W> [<kind:I|D>] <vaddr:0x-hex>

Comment lines start with `#`; blank lines are ignored.  The L1 filter runs
per-core instruction and data caches over a trace and forwards only the
misses (as reads) and dirty evictions (as writes), i.e. the stream the LLC
would actually see.
"""

import io
from dataclasses import dataclass

import numpy as np

from . import cache_core
from .timing import CacheGeometry


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


@dataclass(frozen=True)
class L1Config:
    icache: CacheGeometry = CacheGeometry(16 * 1024, 2, 64)
    dcache: CacheGeometry = CacheGeometry(32 * 1024, 2, 64)


class TraceParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"trace line {lineno}: {message}")
        self.lineno = lineno


def parse_trace(stream, num_cores=None):
    """Parse the text grammar into TraceRecords, validating core ids."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    records = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
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
        if op not in ("R", "W"):
            raise TraceParseError(lineno, f"bad op {op!r}")
        if kind not in ("I", "D"):
            raise TraceParseError(lineno, f"bad kind {kind!r}")
        if not addr_s.lower().startswith("0x"):
            raise TraceParseError(lineno, f"address {addr_s!r} must be 0x-hex")
        try:
            vaddr = int(addr_s, 16)
        except ValueError:
            raise TraceParseError(lineno, f"bad address {addr_s!r}") from None
        records.append(TraceRecord(core, op, vaddr, kind))
    return records


def serialize_trace(records, stream=None):
    """Canonical rendering: kind always explicit, lower-case hex."""
    out = stream if stream is not None else io.StringIO()
    for rec in records:
        out.write(f"{rec.core_id} {rec.op} {rec.kind} 0x{rec.vaddr:x}\n")
    if stream is None:
        return out.getvalue()
    return None


@dataclass
class L1FilterResult:
    records: list
    accesses: dict     # core -> L1 accesses
    misses: dict       # core -> L1 misses

    def miss_rate(self, core_id):
        n = self.accesses.get(core_id, 0)
        return self.misses.get(core_id, 0) / n if n else 0.0


def l1_filter(records, config):
    """Run per-core L1 i/d caches and emit the LLC-bound stream.

    Each L1 miss forwards the original reference as a read (line fill) and a
    dirty eviction forwards a write of the victim line, attributed to the
    core that triggered it.
    """
    icaches = {}
    dcaches = {}
    out = []
    accesses = {}
    misses = {}
    for rec in records:
        caches = icaches if rec.kind == "I" else dcaches
        geometry = config.icache if rec.kind == "I" else config.dcache
        state = caches.get(rec.core_id)
        if state is None:
            state = cache_core.CacheState(geometry)
            caches[rec.core_id] = state
        accesses[rec.core_id] = accesses.get(rec.core_id, 0) + 1
        tag, set_index, line_addr = state.locate(rec.vaddr)
        result = cache_core.lru_access(state, set_index, tag, line_addr,
                                       rec.op == "W", 0)
        if not result.hit:
            misses[rec.core_id] = misses.get(rec.core_id, 0) + 1
            if result.evicted_addr is not None and result.evicted_dirty:
                out.append(TraceRecord(rec.core_id, "W", result.evicted_addr, "D"))
            out.append(TraceRecord(rec.core_id, "R", rec.vaddr, rec.kind))
    return L1FilterResult(out, accesses, misses)


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


def zipf_weights(num_pages, exponent):
    """Normalized Zipf mass per page rank (rank 0 hottest)."""
    ranks = np.arange(1, num_pages + 1, dtype=np.float64)
    w = ranks ** -exponent
    return w / w.sum()


def generate_synthetic(spec):
    """Zipf-distributed page popularity with uniform lines within a page.

    Page k is the k-th hottest page.  With instr_stream enabled, every other
    reference per core is a sequential instruction fetch from a per-core
    code region placed above the data pages.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.length == 0:
        return []
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
    code_base = spec.num_pages * spec.page_bytes
    code_span = 1 << 20
    pc = {c: code_base + c * code_span for c in range(spec.num_cores)}
    emit_instr = {c: False for c in range(spec.num_cores)}
    records = []
    for i in range(spec.length):
        core = int(cores[i])
        if spec.instr_stream and emit_instr[core]:
            records.append(TraceRecord(core, "R", pc[core], "I"))
            pc[core] += spec.line_bytes
            emit_instr[core] = False
            continue
        vaddr = int(pages[i]) * spec.page_bytes + int(lines[i]) * spec.line_bytes
        records.append(TraceRecord(core, "R" if is_read[i] else "W", vaddr, "D"))
        emit_instr[core] = True
    return records
