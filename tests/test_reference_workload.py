"""Differential oracle for the columnar workload stages: frozen copies of
the per-record `generate_synthetic`, `parse_trace` and `l1_filter` that the
`workload.Trace` columns replaced, one `TraceRecord` per reference, run
side by side with the package on drawn inputs.  Every record, per-core
count and parse error must come out equal.
"""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache import cache_core, cli, workload
from cnfetcache.workload import (L1Config, SyntheticSpec, TraceParseError,
                                 TraceRecord, as_trace, generate_synthetic,
                                 l1_filter, parse_trace, serialize_trace)
from cnfetcache.timing import CacheGeometry

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def reference_parse_trace(stream, num_cores=None):
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


def reference_l1_filter(records, config):
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
        line = rec.vaddr >> geometry.offset_bits
        result = cache_core.lru_access(
            state, line & (geometry.num_sets - 1), line >> geometry.set_bits,
            line << geometry.offset_bits, rec.op == "W", 0)
        if not result.hit:
            misses[rec.core_id] = misses.get(rec.core_id, 0) + 1
            if result.evicted_addr is not None and result.evicted_dirty:
                out.append(TraceRecord(rec.core_id, "W", result.evicted_addr, "D"))
            out.append(TraceRecord(rec.core_id, "R", rec.vaddr, rec.kind))
    return out, accesses, misses


def reference_generate_synthetic(spec):
    rng = np.random.default_rng(spec.seed)
    if spec.length == 0:
        return []
    lines_per_page = spec.page_bytes // spec.line_bytes
    weights = workload.zipf_weights(spec.num_pages, spec.zipf_exponent)
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


specs = st.builds(
    SyntheticSpec, num_pages=st.integers(1, 64),
    zipf_exponent=st.sampled_from([0.0, 0.8, 1.2]),
    read_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    length=st.integers(0, 400), num_cores=st.integers(1, 4),
    instr_stream=st.booleans(), seed=st.integers(0, 2 ** 32),
    page_bytes=st.sampled_from([64, 512, 4096]),
    core_affinity=st.sampled_from([0.0, 0.75, 1.0]))


@PROPERTY
@given(spec=specs)
def test_generated_columns_match_the_per_record_generator(spec):
    assert list(generate_synthetic(spec)) == reference_generate_synthetic(spec)


# Write-heavy mixed I/D references from 1 to 4 cores over 24 lines, which
# overflow the small L1s below, so that lines hit, evict and write back.
SMALL_L1 = L1Config(icache=CacheGeometry(2 * 2 * 64, 2, 64),
                    dcache=CacheGeometry(4 * 2 * 64, 2, 64))
SMALL_L1S = [SMALL_L1,
             L1Config(icache=CacheGeometry(4 * 64, 1, 64),
                      dcache=CacheGeometry(8 * 64, 1, 64)),
             L1Config(icache=CacheGeometry(4 * 64, 4, 64),
                      dcache=CacheGeometry(2 * 4 * 64, 4, 64))]
reference = st.builds(
    TraceRecord, core_id=st.integers(0, 3),
    op=st.sampled_from("RWW"), vaddr=st.integers(0, 24 * 64 - 1),
    kind=st.sampled_from("IDD"))
references = st.lists(reference, min_size=40, max_size=300)


@st.composite
def repeated_references(draw):
    # Each drawn reference repeated 1 to 4 times, mixing reads and writes
    # within its line, then two halves of the stream interleaved, so that
    # other cores' and kinds' references fall inside a set's run of repeats.
    stream = []
    for ref in draw(st.lists(reference, min_size=10, max_size=80)):
        for op, offset in draw(st.lists(st.tuples(st.sampled_from("RW"),
                                                  st.integers(0, 63)),
                                        min_size=1, max_size=4)):
            stream.append(TraceRecord(ref.core_id, op,
                                      ref.vaddr // 64 * 64 + offset, ref.kind))
    first = stream[:draw(st.integers(0, len(stream)))]
    second = stream[len(first):]
    picks = draw(st.lists(st.booleans(), min_size=len(stream),
                          max_size=len(stream)))
    merged = []
    for pick in picks:
        merged.append((first if (pick and first) or not second
                       else second).pop(0))
    return merged


@PROPERTY
@given(records=st.one_of(references, repeated_references()),
       config=st.sampled_from([L1Config(), *SMALL_L1S]))
def test_l1_columns_match_the_per_record_filter(records, config):
    out, accesses, misses = reference_l1_filter(records, config)
    result = l1_filter(records, config)
    assert list(result.records) == out
    assert list(result.accesses.items()) == list(accesses.items())
    assert list(result.misses.items()) == list(misses.items())


@pytest.mark.parametrize("config", SMALL_L1S, ids=["2-way", "1-way", "4-way"])
@pytest.mark.parametrize("records", [
    [], [TraceRecord(1, "R", 0x40, "D")], [TraceRecord(0, "W", 0x80, "I")],
    [TraceRecord(2, "W", 0x40, "D")] * 2],
    ids=["empty", "read", "write", "repeat"])
def test_l1_takes_an_empty_or_one_line_stream(records, config):
    out, accesses, misses = reference_l1_filter(records, config)
    result = l1_filter(records, config)
    assert list(result.records) == out
    assert (result.accesses, result.misses) == (accesses, misses)


def test_l1_sends_a_run_of_repeats_through_lru_once():
    # 100 reads and writes within one line are one reference to the 2-way
    # LRU replay: a fill carrying the run's write.
    records = [TraceRecord(2, "RW"[i % 3 == 1], 0x1000 + i % 64, "D")
               for i in range(100)]
    seen = []
    real = cache_core.replay_two_way

    def counting(sets, tags):
        seen.append(len(tags))
        return real(sets, tags)

    forbidden = AssertionError("a 2-way L1 reached the general LRU loop")
    with mock.patch.object(cache_core, "replay_two_way", counting), \
            mock.patch.object(cache_core, "replay_lru", side_effect=forbidden):
        result = l1_filter(records, SMALL_L1)
    assert sum(seen) == 1
    assert list(result.records) == [TraceRecord(2, "R", 0x1000, "D")]
    # The run's write dirties the line: evicting it writes it back.
    records += [TraceRecord(2, "R", 0x1000 + k * 4 * 64, "D") for k in (1, 2)]
    out = list(l1_filter(records, SMALL_L1).records)
    assert out == reference_l1_filter(records, SMALL_L1)[0]
    assert TraceRecord(2, "W", 0x1000, "D") in out


@st.composite
def set_sorted_streams(draw):
    # Tags of up to 5 sets, each set's in stream order, sorted by set; no
    # tag repeats its set's previous one, as after the L1's run collapse.
    sets, tags = [], []
    for set_index in sorted(draw(st.lists(st.integers(0, 7), max_size=5,
                                          unique=True))):
        previous = None
        for tag in draw(st.lists(st.integers(0, 3), max_size=30)):
            if tag != previous:
                sets.append(set_index)
                tags.append(tag)
                previous = tag
    return np.array(sets, dtype=np.int64), np.array(tags, dtype=np.uint64)


@PROPERTY
@given(stream=set_sorted_streams())
def test_two_way_closed_form_matches_the_lru_replay(stream):
    sets, tags = stream
    got = cache_core.replay_two_way(sets, tags)
    assert got.tolist() == cache_core.replay_lru(sets, tags, 2).tolist()


def _line_text(draw_line):
    core, op, kind, vaddr, form = draw_line
    if form == "short":
        return f"{core} {op} 0x{vaddr:X}" if kind == "D" else f"{core} {op} {kind} 0x{vaddr:x}"
    if form == "spaced":
        return f"  {core}\t{op}  {kind} 0X{vaddr:x}  "
    if form == "tabs":
        return f"{core}\t{op}\t{kind}\t0x{vaddr:x}"
    if form == "formfeed":
        return f"{core}\x0c{op} {kind}\x0c0x{vaddr:x}"
    if form == "nbsp":
        return f"{core}\xa0{op} {kind} 0x{vaddr:x}"
    if form == "widest":       # the most digits the byte scan reads
        return f"{core:018d} {op} {kind} 0x{vaddr:016x}"
    if form == "padded":       # zero-padded past them
        return f"{core:019d} {op} {kind} 0x{vaddr:017x}"
    return f"{core} {op} {kind} 0x{vaddr:x}"


lines = st.lists(st.one_of(
    st.tuples(st.integers(0, 5), st.sampled_from("RW"), st.sampled_from("ID"),
              st.integers(0, 2 ** 64 - 1),
              st.sampled_from(["plain", "plain", "short", "spaced", "tabs",
                               "formfeed", "nbsp", "widest",
                               "padded"])).map(_line_text),
    st.sampled_from(["", "# comment", "#", "0 R 12", "0 X D 0x1", "1 W Q 0x2",
                     "x R D 0x3", "-1 R D 0x4", "0 R D 0xg", "0 R D 0x1 5",
                     "9 R 0x40", "0 R D 0x1_0", "0 R D 0x", "1 R D 0x10 2",
                     "W D 0x20", "2 R D 0x30 \x00", "\x00",
                     "1 R D 0x10 x 2 W I 0x20", "+1 R D 0x1", "1_0 W D 0x2",
                     "\u0663 R D 0x1", f"{0:022d} W I 0x{0:020x}"])),
    max_size=40)


# Block sizes the parse tests patch in: reads of 1, 7 and 64 characters
# end inside lines, and the default holds a small text whole.
BLOCKS = [1, 7, 64, workload.PARSE_BLOCK_CHARS]


@PROPERTY
@given(text_lines=lines, chunk=st.sampled_from(BLOCKS),
       num_cores=st.sampled_from([None, 4]), last_newline=st.booleans(),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_parse_matches_the_per_line_parser(text_lines, chunk, num_cores,
                                           last_newline, newline):
    # Blocks of every size name the same line in the same words, and
    # parse the same records, with LF or CRLF line ends.
    text = newline.join(text_lines) + newline * last_newline
    try:
        want = reference_parse_trace(text, num_cores)
    except TraceParseError as exc:
        want = str(exc)
    with mock.patch.object(workload, "PARSE_BLOCK_CHARS", chunk):
        try:
            got = list(parse_trace(text, num_cores))
        except TraceParseError as exc:
            got = str(exc)
    assert got == want


# gen-trace's output, and copies of it in the other forms the byte scan
# takes whole: each is a list of lines, newlines kept.
TRACE_FORMS = {
    "as-written": lambda lines: lines,
    "tab-separated": lambda lines: [line.replace(" ", "\t") for line in lines],
    "mixed-3-and-4-fields": lambda lines: [
        line.replace(" D ", " ", 1) if i % 2 else line
        for i, line in enumerate(lines)],
    "commented": lambda lines: [
        f"# block {i}\t of  the trace\n\n  \t\n  #\n{line}" if i % 97 == 0
        else line for i, line in enumerate(lines)],
    "crlf": lambda lines: [line.replace("\n", "\r\n") for line in lines],
}


@pytest.mark.parametrize("form", TRACE_FORMS)
def test_generated_trace_parses_on_the_byte_scan(tmp_path, form):
    # Every line of each form is blank, a comment or a plain record, so no
    # block of it needs the per-line parser.
    path = tmp_path / "trace.txt"
    assert cli.main(["gen-trace", "--set", "workload.length=20000",
                     "--set", "workload.num_cores=4",
                     "--set", "workload.instr_stream=true",
                     "--out", str(path)]) == 0
    text = "".join(TRACE_FORMS[form](path.read_text().splitlines(keepends=True)))
    with mock.patch.object(workload, "_parse_lines",
                           side_effect=AssertionError("per-line parse")):
        trace = parse_trace(text, num_cores=4)
    assert len(trace) == 20_000
    assert list(trace) == reference_parse_trace(text)


@pytest.mark.parametrize("line, message", [
    (f"0 R D 0x{2 ** 64:x}", "does not fit 64 bits"),
    (f"{2 ** 63} R D 0x40", "does not fit int64"),
], ids=["address-2^64", "core-2^63"])
def test_parse_rejects_values_beyond_the_columns(line, message):
    text = "0 R D 0x0\n" * 5 + line + "\n"
    for chunk in BLOCKS:
        with mock.patch.object(workload, "PARSE_BLOCK_CHARS", chunk):
            with pytest.raises(TraceParseError, match=message) as err:
                parse_trace(text)
        assert str(err.value).startswith("trace line 6: ")
    # The largest values that fit are read back exactly.
    top = parse_trace(f"{2 ** 63 - 1} W I 0x{2 ** 64 - 1:x}\n")
    assert list(top) == [TraceRecord(2 ** 63 - 1, "W", 2 ** 64 - 1, "I")]


@pytest.mark.parametrize("chunk", BLOCKS)
@pytest.mark.parametrize("last, message", [
    (b"1 W D 0x80", None),
    (b"1 W D 0x8\xff0\r\n0 R D 0x40", "trace line 22: not UTF-8 text"),
    (b"# caf\xe9", "trace line 22: not UTF-8 text"),
], ids=["utf8", "record-0xff", "comment-latin-1"])
def test_parse_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, chunk,
                                                         last, message):
    # 21 CRLF lines, one with a 2-byte character, come first, so small
    # blocks put the bad byte in a later block than the first; the file's
    # last line has no newline.
    path = tmp_path / "trace.txt"
    path.write_bytes(b"0 R D 0x40\r\n" * 20 + b"# caf\xc3\xa9\r\n" + last)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh, \
            mock.patch.object(workload, "PARSE_BLOCK_CHARS", chunk):
        try:
            got = list(parse_trace(fh))
        except TraceParseError as exc:
            got = str(exc)
    if message is None:
        assert got == reference_parse_trace(path.read_text()) and len(got) == 21
    else:
        assert got == message


@pytest.mark.parametrize("record", [
    TraceRecord(0, "R", 2 ** 64), TraceRecord(0, "R", -1),
    TraceRecord(2 ** 63, "W", 0), TraceRecord(-2 ** 63 - 1, "R", 0)],
    ids=["vaddr-2^64", "vaddr-negative", "core-2^63", "core-below-int64"])
def test_as_trace_rejects_records_beyond_the_columns(record):
    records = [TraceRecord(1, "R", 0x40), record]
    with pytest.raises(ValueError, match="must fit int64"):
        as_trace(records)
    with pytest.raises(ValueError, match="must fit int64"):
        serialize_trace(records)


def test_parse_peak_memory_per_record(tmp_path):
    # An 80k-line trace is parsed a chunk at a time into 18 bytes of
    # columns per record; the whole text and its split fields are never
    # held at once, and the columns are joined one at a time.  Measured at
    # 29.5 bytes per record when the bound was set (26.1 at 1M lines); the
    # bound may only get tighter.
    spec = SyntheticSpec(num_pages=1024, length=80_000, num_cores=4,
                         page_bytes=512, seed=1)
    path = tmp_path / "trace.txt"
    with open(path, "w") as fh:
        serialize_trace(generate_synthetic(spec), fh)
    with open(path) as fh:
        tracemalloc.start()
        try:
            trace = parse_trace(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(trace) == 80_000
    assert peak / len(trace) <= 32


def test_l1_filter_peak_memory_per_reference():
    # The tracemalloc peak of the L1 filter over 100k references, its input
    # made beforehand.  Measured at 41.0 bytes per reference when the bound
    # was set; the bound may only get tighter.
    trace = generate_synthetic(SyntheticSpec(
        num_pages=4096, length=100_000, num_cores=4, page_bytes=512, seed=1))
    tracemalloc.start()
    try:
        l1_filter(trace, L1Config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(trace) <= 45
