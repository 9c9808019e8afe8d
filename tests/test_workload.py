import io

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cnfetcache.workload import (L1Config, SyntheticSpec, TraceParseError,
                                 TraceRecord, generate_synthetic, l1_filter,
                                 parse_trace, serialize_trace, zipf_weights)


def test_parse_minimal_record():
    records = parse_trace("0 R 0x1000\n")
    assert records == [TraceRecord(0, "R", 0x1000, "D")]


def test_parse_with_kind_and_comments():
    text = "# header\n\n1 W I 0xdead\n0 R D 0x40\n"
    records = parse_trace(text)
    assert records == [TraceRecord(1, "W", 0xDEAD, "I"),
                       TraceRecord(0, "R", 0x40, "D")]


def test_parse_out_of_range_core():
    with pytest.raises(TraceParseError) as err:
        parse_trace("9 R 0x0\n", num_cores=4)
    assert err.value.lineno == 1


def test_parse_malformed_line_reports_number():
    with pytest.raises(TraceParseError) as err:
        parse_trace("0 R 0x10\n0 X 0x20\n")
    assert err.value.lineno == 2
    with pytest.raises(TraceParseError):
        parse_trace("0 R 12\n")          # missing 0x prefix
    with pytest.raises(TraceParseError):
        parse_trace("0 R\n")


def test_round_trip_normalizes():
    text = "2 R 0XAB40\n0 W D 0x40\n# note\n"
    records = parse_trace(text)
    canonical = serialize_trace(records)
    assert canonical == "2 R D 0xab40\n0 W D 0x40\n"
    assert serialize_trace(parse_trace(canonical)) == canonical


def test_l1_filter_absorbs_repeats():
    records = [TraceRecord(0, "R", 0x1000)] * 50
    result = l1_filter(records, L1Config())
    assert len(result.records) == 1
    assert result.misses[0] / result.accesses[0] == 1 / 50


def test_l1_filter_streaming_misses_everything():
    # Working set far beyond 32KB: every access misses.
    records = [TraceRecord(0, "R", i * 64) for i in range(20_000)]
    result = l1_filter(records, L1Config())
    assert result.misses[0] / result.accesses[0] > 0.99


def test_l1_filter_conservation():
    # Every forwarded record is either the fill for an input miss or the
    # write-back of an evicted dirty line.
    rng = np.random.default_rng(6)
    records = [TraceRecord(0, "W" if rng.random() < 0.5 else "R",
                           int(rng.integers(0, 1 << 17)) & ~63)
               for _ in range(20_000)]
    result = l1_filter(records, L1Config())
    fills = [r for r in result.records if r.op == "R"]
    writebacks = [r for r in result.records if r.op == "W"]
    assert len(fills) == sum(result.misses.values())
    assert len(writebacks) <= len(fills)
    assert all(r.kind == "D" for r in writebacks)


def test_l1_filter_per_core_separation():
    records = [TraceRecord(c, "R", 0x40) for c in (0, 1, 0, 1)]
    result = l1_filter(records, L1Config())
    # Cold miss per core, then hits: private caches.
    assert result.misses == {0: 1, 1: 1}


def test_l1_icache_dcache_split():
    records = [TraceRecord(0, "R", 0x40, "I"), TraceRecord(0, "R", 0x40, "D")]
    result = l1_filter(records, L1Config())
    assert len(result.records) == 2     # same address, distinct caches


def test_zipf_zero_is_uniform():
    spec = SyntheticSpec(num_pages=64, zipf_exponent=0.0, length=100_000,
                         seed=3)
    records = generate_synthetic(spec)
    pages = np.array([r.vaddr // spec.page_bytes for r in records])
    counts = np.bincount(pages, minlength=64)
    _, p_value = scipy_stats.chisquare(counts)
    assert p_value > 0.001


def test_zipf_mass_concentrates():
    # Analytic oracle: with s=1.2 over 1024 pages the top 10 pages carry
    # sum(k^-1.2, k<=10)/sum(k^-1.2, k<=1024) ~ 0.565 of the mass.
    weights = zipf_weights(1024, 1.2)
    analytic_top = weights[:10].sum()
    assert analytic_top > 0.5
    spec = SyntheticSpec(num_pages=1024, zipf_exponent=1.2, length=1_000_000,
                         seed=4)
    records = generate_synthetic(spec)
    pages = np.array([r.vaddr // spec.page_bytes for r in records])
    top = np.bincount(pages, minlength=1024)[:10].sum()
    assert top / len(records) >= 0.5
    assert abs(top / len(records) - analytic_top) < 0.02


def test_empty_trace():
    assert generate_synthetic(SyntheticSpec(length=0)) == []


def test_generator_deterministic():
    spec = SyntheticSpec(length=5000, num_cores=4, seed=9)
    assert generate_synthetic(spec) == generate_synthetic(spec)


def test_instr_stream_interleaves_sequential_fetches():
    spec = SyntheticSpec(length=1000, instr_stream=True, seed=5)
    records = generate_synthetic(spec)
    instr = [r for r in records if r.kind == "I"]
    assert instr
    addrs = [r.vaddr for r in instr]
    assert addrs == sorted(addrs)
    assert addrs[0] >= spec.num_pages * spec.page_bytes
    data = [r for r in records if r.kind == "D"]
    assert data


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(zipf_exponent=-1)
    with pytest.raises(ValueError):
        SyntheticSpec(read_fraction=1.5)
    with pytest.raises(ValueError):
        TraceRecord(0, "Q", 0)


def test_core_affinity_concentrates_page_traffic():
    spec = SyntheticSpec(num_pages=16, zipf_exponent=1.0, length=50_000,
                         num_cores=4, seed=11, core_affinity=0.75)
    records = generate_synthetic(spec)
    data = [r for r in records if r.kind == "D"]
    from collections import Counter
    per_page = {}
    for r in data:
        page = r.vaddr // spec.page_bytes
        per_page.setdefault(page, Counter())[r.core_id] += 1
    for page, counts in per_page.items():
        if sum(counts.values()) < 500:
            continue
        home = page % 4
        share = counts[home] / sum(counts.values())
        # 0.75 affinity plus 1/4 of the uniform remainder ~ 0.81
        assert share > 0.7, f"page {page}: home share {share:.2f}"
