import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cnfetcache.nuca import noc_table
from cnfetcache.pagemap import (Frame, FrameInventory, PageProfile,
                                assign_pages, build_frame_inventory,
                                frame_span_sets, profile_trace,
                                serialize_profile, translate, translate_trace)
from cnfetcache.timing import CacheGeometry
from cnfetcache.workload import (SyntheticSpec, Trace, TraceRecord,
                                 generate_synthetic)


def test_frame_span_is_granularity_aligned():
    # One line per set under standard indexing: a 4 KB frame touches 64
    # consecutive sets, a multiple of the 8-set capacity granularity.
    geometry = CacheGeometry(2 * 1024 * 1024, 8, 64)
    span = frame_span_sets(4096, 64, geometry.num_sets)
    assert span == 64
    g = 4096 // (64 * 8)          # sets holding one page's worth of data
    assert span % g == 0
    # A set's latency is its index, so a frame's class is its last set.
    inventory = build_frame_inventory(geometry, 4096, 128,
                                      [list(range(geometry.num_sets))])
    for frame in inventory.frames:
        start = frame.latency_class + 1 - span
        assert start % g == 0
        assert start % span == 0


def test_profile_empty_trace():
    profile = profile_trace([], 4096)
    assert profile.counts == {}


def test_profile_counts_raw_accesses():
    records = [TraceRecord(0, "R", 0x2000 + 64 * (i % 64)) for i in range(100)]
    profile = profile_trace(records, 4096)
    assert profile.counts == {2: 100}
    assert dominant_cores(profile) == {2: 0}


def test_profile_dominant_core_majority():
    records = ([TraceRecord(0, "R", 0x5000)] * 70
               + [TraceRecord(1, "R", 0x5000)] * 30)
    profile = profile_trace(records, 4096)
    assert dominant_cores(profile) == {5: 0}
    tied = _profile([(9, 3, 10), (9, 1, 10)])
    assert dominant_cores(tied) == {9: 1}


def dominant_cores(profile):
    """{vpage: dominant core}, read from the profile's columns."""
    return dict(zip(profile.page_ids.tolist(), profile.dominant.tolist()))


def _profile(entries):
    """PageProfile of (vpage, core, count) entries; repeats add up."""
    runs = Counter()
    for vpage, core, n in entries:
        runs[vpage, core] += n
    keys = sorted(runs)
    return PageProfile([p for p, _ in keys], [c for _, c in keys],
                       [runs[k] for k in keys])


def _inventory(latencies):
    """Frames 0..n-1 of one bank, frame i at latency class latencies[i]."""
    return FrameInventory(range(len(latencies)), [0] * len(latencies),
                          latencies)


def test_hot_page_takes_fast_frame():
    profile = _profile([(3, 0, 100)])
    inventory = _inventory([10, 6])
    mapping = assign_pages(profile, inventory)
    assert mapping == {3: 1}


def test_tie_break_deterministic():
    profile = _profile([(8, 0, 5), (2, 0, 5)])
    inventory = _inventory([6, 6, 10])
    mapping = assign_pages(profile, inventory)
    # Equal counts: lower page number first; equal frames: lower index first.
    assert mapping == {2: 0, 8: 1}


def test_top_hot_pages_fill_fast_frames():
    profile = _profile((p, 0, 100 - p) for p in range(10))
    inventory = _inventory([6, 6, 6, 6, 10, 10, 10, 10, 10, 10])
    mapping = assign_pages(profile, inventory)
    fast = {0, 1, 2, 3}
    assert {mapping[p] for p in range(4)} == fast
    assert all(mapping[p] not in fast for p in range(4, 10))


def test_capacity_error():
    profile = _profile((p, 0, 1) for p in range(3))
    with pytest.raises(ValueError):
        assign_pages(profile, _inventory([6, 6]))


def _reference_assign(profile, inventory, noc=None):
    """The quadratic greedy: a min over every untaken frame for each page,
    hottest page first (ties by page number), at latency class plus the NoC
    table's cycles when one is given."""
    pages = sorted(profile.counts, key=lambda p: (-profile.counts[p], p))
    free = list(inventory.frames)
    if len(pages) > len(free):
        raise ValueError(f"{len(pages)} pages exceed {len(free)} frames")
    dominant = dominant_cores(profile)
    mapping = {}
    for vpage in pages:
        core = dominant[vpage]
        best = min(free, key=lambda f: (
            f.latency_class + (0 if noc is None else noc[core][f.bank]),
            f.index))
        free.remove(best)
        mapping[vpage] = best.index
    return mapping


# Frames as (latency class, bank) with few values, so costs tie often.
frame_specs = st.lists(st.tuples(st.integers(6, 7), st.integers(0, 3)),
                       min_size=1, max_size=40)
# Pages as (vpage, core, count) triples; repeats add per-core counts.
page_specs = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3),
                                st.integers(1, 4)), max_size=60)
# NoC tables {core: [cycles to bank b]} of four cores and four banks.
noc_tables = st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                      min_size=4, max_size=4).map(lambda t: dict(enumerate(t)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), frames=frame_specs, pages=page_specs,
       noc=st.none() | noc_tables)
def test_assignment_matches_quadratic_reference(data, frames, pages, noc):
    # Frame indexes are shuffled against list order, so the index
    # tie-break, not the list position, must decide between equal costs.
    indexes = data.draw(st.permutations(range(len(frames))))
    profile = _profile(pages)

    def inventory():
        return FrameInventory(indexes, [bank for _, bank in frames],
                              [lat for lat, _ in frames])

    new_inv = inventory()
    try:
        want = _reference_assign(profile, inventory(), noc)
    except ValueError:
        with pytest.raises(ValueError, match="exceed"):
            assign_pages(profile, new_inv, noc)
        return
    assert assign_pages(profile, new_inv, noc) == want
    assert new_inv.frames == inventory().frames   # left as built


def test_greedy_is_globally_optimal_for_separable_costs():
    # Brute-force oracle over all injective assignments of <= 7 pages to 7
    # frames: greedy minimizes sum(count * latency).
    rng = random.Random(13)
    for _ in range(30):
        num_pages = rng.randrange(2, 8)
        counts = [rng.randrange(1, 50) for _ in range(num_pages)]
        latencies = [rng.choice([6, 7, 8, 10]) for _ in range(7)]
        profile = _profile((p, 0, n) for p, n in enumerate(counts))
        mapping = assign_pages(profile, _inventory(latencies))
        greedy_cost = sum(counts[p] * latencies[mapping[p]]
                          for p in range(num_pages))
        best = min(
            sum(counts[p] * latencies[perm[p]] for p in range(num_pages))
            for perm in itertools.permutations(range(7), num_pages))
        assert greedy_cost == best


def test_assignment_determinism():
    rng = random.Random(3)
    profile = _profile((p, rng.randrange(2), rng.randrange(1, 100))
                       for p in range(20))
    latencies = [rng.choice([6, 7, 10]) for _ in range(25)]
    a = assign_pages(profile, _inventory(latencies))
    b = assign_pages(profile, _inventory(latencies))
    assert a == b
    assert len(set(a.values())) == len(a)   # injective


def test_translate_rewrites_page_bits():
    mapping = {2: 7}
    assert translate(2 * 4096 + 123, mapping, 4096) == 7 * 4096 + 123
    assert translate(5 * 4096 + 9, mapping, 4096) == 5 * 4096 + 9


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(page_bytes=st.sampled_from([64, 512, 4096, 1 << 21]),
       mapping=st.dictionaries(st.integers(0, 1 << 20), st.integers(0, 1 << 20),
                               max_size=8),
       extra=st.lists(st.integers(0, (1 << 20) + 2), max_size=16),
       offset=st.integers(0, (1 << 21) - 1))
def test_translate_trace_matches_translate(page_bytes, mapping, extra, offset):
    # Every mapped page and both its neighbours, so pages below, between
    # and above the mapped ones, and the page past the last mapped one,
    # which the sorted search puts past every key.
    pages = sorted({q for p in mapping for q in (p - 1, p, p + 1) if q >= 0}
                   | set(extra) | {0})
    addrs = [p * page_bytes + (offset + p) % page_bytes for p in pages]
    n = len(addrs)
    trace = Trace([i % 4 for i in range(n)], [i % 2 == 0 for i in range(n)],
                  [i % 3 == 0 for i in range(n)], addrs)
    out = translate_trace(trace, mapping, page_bytes)
    assert out.addr.tolist() == [translate(a, mapping, page_bytes)
                                 for a in addrs]
    assert trace.addr.tolist() == addrs
    for column in ("core", "write", "instr"):
        assert np.array_equal(getattr(out, column), getattr(trace, column))


@pytest.mark.parametrize("page_bytes", [1, 4096])
def test_translate_trace_takes_addresses_up_to_2_to_the_64(page_bytes):
    # The top page of the address space, mapped, and the one below it, not
    # mapped, and a frame whose move from its page wraps around 2^64.
    top = (1 << 64) // page_bytes - 1
    addrs = [top * page_bytes, (top + 1) * page_bytes - 1,
             (top - 1) * page_bytes, page_bytes, 0]
    mapping = {top: 3, 1: top - 1, 0: 0}
    trace = Trace([0] * 5, [False] * 5, [False] * 5, addrs)
    assert (translate_trace(trace, mapping, page_bytes).addr.tolist()
            == [translate(a, mapping, page_bytes) for a in addrs])


def test_translate_trace_peak_memory_per_reference():
    # The tracemalloc peak of translating 100k references, every page
    # mapped, the trace and the mapping made beforehand: the output column,
    # the search positions and one gathered column, 8 bytes per reference
    # each, plus the mapping's sorted pages.  Measured at 26.3 bytes per
    # reference when the bound was set (24.2 at 1M references); the bound
    # may only get tighter.
    trace = generate_synthetic(SyntheticSpec(
        num_pages=4096, length=100_000, num_cores=4, page_bytes=512, seed=1))
    pages = np.unique(trace.addr // 512).tolist()
    frames = np.random.default_rng(1).permutation(len(pages)).tolist()
    mapping = dict(zip(pages, frames))
    tracemalloc.start()
    try:
        translate_trace(trace, mapping, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(trace) <= 28


def test_inventory_bank_and_set_math():
    # Frame address math: bank bits sit directly above the per-bank set
    # bits, so frame i covers block (i mod blocks_per_bank) of bank
    # (i // blocks_per_bank) mod 8, wrapping around after every bank.
    geometry = CacheGeometry(64 * 1024, 8, 64)   # 128 sets per bank
    span = frame_span_sets(4096, 64, geometry.num_sets)
    assert span == 64
    # Set s of bank b has latency 1000 b + s: a frame's class names its
    # bank and, as its footprint's maximum, its last set.
    inventory = build_frame_inventory(
        geometry, 4096, 40,
        [[1000 * b + s for s in range(geometry.num_sets)] for b in range(8)])
    blocks_per_bank = geometry.num_sets // span
    assert blocks_per_bank == 2
    shift = geometry.offset_bits + geometry.set_bits
    for frame in inventory.frames:
        assert frame.bank == (frame.index // blocks_per_bank) % 8
        start = (frame.index % blocks_per_bank) * span
        assert frame.latency_class == 1000 * frame.bank + start + span - 1
        # Every line of the frame lands in its bank under the LLC's split.
        for addr in range(frame.index * 4096, (frame.index + 1) * 4096, 64):
            assert (addr >> shift) & 7 == frame.bank
            assert start <= (addr >> geometry.offset_bits) \
                % geometry.num_sets < start + span


def _reference_inventory(geometry, page_bytes, num_frames, set_latencies):
    """The per-frame loop: frame i's bank and first set from one divmod of
    its first line's set index over every bank, its class the max over the
    sets its lines occupy."""
    span = frame_span_sets(page_bytes, geometry.line_bytes, geometry.num_sets)
    sets = len(set_latencies) * geometry.num_sets
    frames = []
    for idx in range(num_frames):
        bank, start = divmod((idx * page_bytes >> geometry.offset_bits) % sets,
                             geometry.num_sets)
        frames.append(Frame(idx, bank,
                            max(set_latencies[bank][start:start + span])))
    return frames


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), banks=st.sampled_from([1, 2, 8]),
       bank_sets=st.sampled_from([1, 2, 8, 32]), line_bytes=st.sampled_from([32, 64]),
       page_lines=st.sampled_from([1, 2, 3, 8, 16, 64]), mean=st.booleans())
def test_inventory_matches_the_per_frame_reference(data, banks, bank_sets,
                                                   line_bytes, page_lines,
                                                   mean):
    # Pages of up to 64 lines against banks of 1-32 sets (the span clamp),
    # 3-line pages whose footprints run off a bank's last set, and up to
    # three times the frames of one pass over the banks (the wrap).
    geometry = CacheGeometry(bank_sets * 4 * line_bytes, 4, line_bytes)
    cycles = st.integers(6, 12)
    if mean:        # a set aligned bank's mean way latency
        cycles = cycles.map(lambda c: c / 4)
    set_latencies = data.draw(st.lists(
        st.lists(cycles, min_size=bank_sets, max_size=bank_sets),
        min_size=banks, max_size=banks))
    page_bytes = page_lines * line_bytes
    num_frames = data.draw(st.integers(0, 3 * banks * bank_sets))
    got = build_frame_inventory(geometry, page_bytes, num_frames,
                                set_latencies).frames
    want = _reference_inventory(geometry, page_bytes, num_frames,
                                set_latencies)
    assert repr(got) == repr(want)   # equal values of equal types


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(refs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)),
                     max_size=80))
def test_profile_columns_give_counts_and_dominant_core(refs):
    # Few cores and pages, so per-core counts tie often.
    trace = Trace([core for core, _ in refs], [False] * len(refs),
                  [False] * len(refs), [512 * page + 64 for _, page in refs])
    profile = profile_trace(trace, 512)
    per = Counter((page, core) for core, page in refs)
    core_counts = {}
    for (page, core), n in sorted(per.items()):
        core_counts.setdefault(page, {})[core] = n
    assert profile.core_counts == core_counts
    assert profile.counts == {p: sum(c.values()) for p, c in core_counts.items()}
    assert dominant_cores(profile) == {
        page: min(c for c, n in cores.items() if n == max(cores.values()))
        for page, cores in core_counts.items()}


def test_profile_serialization():
    profile = _profile([(1, 0, 3), (4, 1, 9)])
    dump = serialize_profile(profile)
    assert "4,9,1:9" in dump and "1,3,0:3" in dump


# Gap bound of the greedy against the exact count-weighted optimum under
# unified mapping, at core affinity 0.75 over these 40 instances (measured
# maximum 1.88%).
UPM_GAP_EPSILON = 0.02


def _upm_instance(seed, affinity):
    """64 frames on an 8-bank mesh, 16-60 pages from 4 cores.  A page's
    accesses come from its home core with probability `affinity`, else from
    a uniformly random core."""
    rng = np.random.default_rng(seed)
    noc = noc_table(2, 4, 1, 2)
    frames = [Frame(i, i // 8, int(rng.choice([6, 7, 8, 9, 10, 12])))
              for i in range(64)]
    num_pages = int(rng.integers(16, 61))
    entries = []
    for page in range(num_pages):
        n = int(rng.integers(1, 200))
        probs = np.full(4, (1 - affinity) / 4)
        probs[page % 4] += affinity
        entries += [(page, core, int(k))
                    for core, k in enumerate(rng.multinomial(n, probs)) if k]
    profile = _profile(entries)
    cost = np.array([[sum(k * (f.latency_class + noc[c][f.bank])
                          for c, k in profile.core_counts[p].items())
                      for f in frames] for p in range(num_pages)])
    greedy = assign_pages(profile, FrameInventory(*zip(*frames)), noc)
    greedy_cost = sum(cost[p, greedy[p]] for p in range(num_pages))
    rows, cols = linear_sum_assignment(cost)
    return int(greedy_cost), int(cost[rows, cols].sum())


def test_unified_greedy_is_near_the_exact_optimum():
    gaps = []
    for seed in range(40):
        greedy_cost, optimum = _upm_instance(seed, 0.75)
        assert greedy_cost >= optimum
        gaps.append(greedy_cost / optimum - 1)
    assert max(gaps) <= UPM_GAP_EPSILON
