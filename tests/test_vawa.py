import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache.cli import ExperimentConfig, build_machinery, make_accessor
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vawa import (build_nonuniform_groups, overhead_report,
                             uniform_latencies)

GEO_4K = CacheGeometry(4 * 1024 * 1024, 8, 64)      # 8192 sets
GEO_SMALL = CacheGeometry(64 * 8 * 64, 8, 64)       # 64 sets x 8 ways


def _waymap(latencies, lo=6, hi=10):
    return LatencyMap(LayoutKind.WAY_ALIGNED, latencies, lo, hi)


def _accessor(policy, latmap, **keys):
    """The CLI's access path for a VAWA policy over GEO_SMALL and latmap."""
    cfg = ExperimentConfig.from_keys({
        "cache.capacity_bytes": GEO_SMALL.capacity_bytes,
        "layout": "way_aligned", "policy": policy, **keys})
    return make_accessor(cfg, build_machinery(cfg, [latmap]))


def test_uniform_groups_all_fast():
    assert uniform_latencies(_waymap([6] * 4096), 64) == [6] * 4096


def test_uniform_groups_max_semantics():
    lat = [6] * 4096
    lat[5] = 10
    latency = uniform_latencies(_waymap(lat), 64)
    assert latency[:64] == [10] * 64
    assert latency[64:] == [6] * (4096 - 64)


def test_uniform_groups_divisibility():
    with pytest.raises(ValueError):
        uniform_latencies(_waymap([6] * 4096), 65)


def test_uniform_degenerate_reproduces_map():
    lat = [random.Random(1).choice([6, 7, 8, 10]) for _ in range(256)]
    assert uniform_latencies(_waymap(lat), 256) == lat


def test_nonuniform_all_worst_is_empty():
    latency, runs = build_nonuniform_groups(_waymap([10] * 64), [6, 7], 16)
    assert runs == [[], []]
    assert latency == [10] * 64


def test_nonuniform_single_maximal_run():
    lat = [6] * 2048 + [10] * 2048
    latency, runs = build_nonuniform_groups(_waymap(lat), [6], 16,
                                            granularity=8)
    assert runs == [[(0, 2047)]]
    assert latency[100] == 6
    assert latency[2048] == 10


def test_nonuniform_budget_keeps_longest_runs():
    # Runs of 6s with lengths 3, 5, 2 separated by worst sets; budget 2 keeps
    # the two longest (5 then 3), ties resolved by start index elsewhere.
    lat = ([6] * 3 + [10] + [6] * 5 + [10] + [6] * 2 + [10] * 52)
    latency, runs = build_nonuniform_groups(_waymap(lat), [6], 2)
    assert runs == [[(0, 2), (4, 8)]]
    assert latency[10:12] == [10, 10]


def test_nonuniform_tie_break_by_start():
    lat = [6, 6, 10, 6, 6, 10, 6, 6] + [10] * 56
    _, runs = build_nonuniform_groups(_waymap(lat), [6], 2)
    assert runs == [[(0, 1), (3, 4)]]


def test_nonuniform_faster_class_claims_first():
    # Sets <= 6 qualify for both classes; the 6-class takes them and the
    # 7-class only covers the residual run.
    lat = [6, 6, 6, 6, 7, 7, 10, 10] + [10] * 56
    latency, runs = build_nonuniform_groups(_waymap(lat), [6, 7], 16)
    assert runs == [[(0, 3)], [(4, 5)]]
    assert latency[2] == 6
    assert latency[5] == 7
    assert latency[7] == 10


def test_nonuniform_respects_granularity():
    lat = [6] * 12 + [10] * 52
    _, runs = build_nonuniform_groups(_waymap(lat), [6], 16, granularity=8)
    # Only one aligned 8-set block is fully fast.
    assert runs == [[(0, 7)]]


def _reference_qualifying_runs(latencies, max_latency, granularity, out,
                                worst):
    """The per-block loop: maximal runs of granularity-aligned blocks whose
    sets all have latency <= max_latency and are still at `worst`."""
    num_blocks = len(latencies) // granularity
    ok = []
    for b in range(num_blocks):
        block = range(b * granularity, (b + 1) * granularity)
        ok.append(all(latencies[s] <= max_latency and out[s] == worst
                      for s in block))
    runs = []
    b = 0
    while b < num_blocks:
        if not ok[b]:
            b += 1
            continue
        start = b
        while b < num_blocks and ok[b]:
            b += 1
        runs.append((start * granularity, b * granularity - 1))
    return runs


def _reference_nonuniform_groups(latmap, classes, budget, granularity):
    """`build_nonuniform_groups` on plain lists, one set at a time."""
    latencies, worst = latmap.latencies, latmap.max_cycles
    out = [worst] * len(latencies)
    runs_per_class = []
    for cycles in classes:
        runs = _reference_qualifying_runs(latencies, cycles, granularity, out,
                                          worst)
        runs.sort(key=lambda r: (-(r[1] - r[0] + 1), r[0]))
        chosen = sorted(runs[:budget])
        for a, b in chosen:
            out[a:b + 1] = [cycles] * (b - a + 1)
        runs_per_class.append(chosen)
    return out, runs_per_class


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), granularity=st.sampled_from([1, 2, 4, 8]),
       blocks=st.integers(1, 16),
       classes=st.sets(st.integers(6, 9), max_size=4).map(sorted),
       budget=st.integers(0, 4))
def test_nonuniform_groups_match_the_per_block_reference(
        data, granularity, blocks, classes, budget):
    # Few latency values, so runs of each class are long and tie often.
    latencies = data.draw(st.lists(st.sampled_from([6, 6, 7, 8, 9, 10]),
                                   min_size=blocks * granularity,
                                   max_size=blocks * granularity))
    latmap = _waymap(latencies)
    latency, runs = build_nonuniform_groups(latmap, classes, budget,
                                            granularity)
    assert (latency, runs) == _reference_nonuniform_groups(
        latmap, classes, budget, granularity)
    assert all(type(c) is int for c in latency)


def _dp_optimal_savings(latencies, classes, budget, worst):
    """Exact optimum of total latency savings via dynamic programming.

    State: (position, segments used per class, active segment class or
    None).  A set may be covered by class c only if its latency <= c;
    coverage saves (worst - c) per set.  Segments per class are bounded by
    the budget and may not overlap.  Equivalent to exhaustive search over
    all segment placements.
    """
    from functools import lru_cache
    n = len(latencies)
    num_classes = len(classes)

    @lru_cache(maxsize=None)
    def best(pos, used, active):
        if pos == n:
            return 0
        options = []
        # Close the active segment (or stay idle) and leave set uncovered.
        options.append(best(pos + 1, used, None))
        for ci, c in enumerate(classes):
            if latencies[pos] > c:
                continue
            gain = worst - c
            if active == ci:
                options.append(gain + best(pos + 1, used, ci))
            else:
                counts = list(used)
                if counts[ci] < budget:
                    counts[ci] += 1
                    options.append(gain + best(pos + 1, tuple(counts), ci))
        return max(options)

    return best(0, (0,) * num_classes, None)


def test_greedy_vs_exhaustive_on_random_maps():
    # The longest-runs heuristic is compared against the exact optimum on
    # random 64-set maps; it must never exceed the optimum, and the gap (the
    # heuristic can lose when the fast class consumes a run the slow class
    # could cover wholly) is reported.
    rng = random.Random(123)
    matches = 0
    worst_gap = 0
    trials = 40
    for _ in range(trials):
        lat = [rng.choice([6, 6, 7, 8, 10, 10]) for _ in range(64)]
        m = _waymap(lat)
        latency, _ = build_nonuniform_groups(m, [6, 7], 2)
        greedy = sum(m.max_cycles - c for c in latency)
        optimum = _dp_optimal_savings(tuple(lat), (6, 7), 2, 10)
        assert greedy <= optimum
        if greedy == optimum:
            matches += 1
        worst_gap = max(worst_gap, optimum - greedy)
    assert matches >= trials // 2   # heuristic is right most of the time
    print(f"\ngreedy matched optimum on {matches}/{trials} maps, "
          f"max gap {worst_gap} cycles")


def test_known_suboptimal_instance():
    # Greedy gives class 6 the longest run, stranding the 7-class; the
    # optimum flips the assignment.
    lat = [7, 6, 6, 6, 10, 6, 6] + [10] * 57
    latency, _ = build_nonuniform_groups(_waymap(lat), [6, 7], 1)
    assert sum(10 - c for c in latency) == 18
    assert _dp_optimal_savings(tuple(lat), (6, 7), 1, 10) == 20


def test_lookup_never_undercuts_physical_latency():
    rng = random.Random(5)
    for _ in range(20):
        lat = [rng.choice([6, 7, 8, 9, 10]) for _ in range(256)]
        m = _waymap(lat)
        latency, _ = build_nonuniform_groups(m, [6, 7, 8], 4)
        assert all(c >= physical for c, physical in zip(latency, lat))


def test_segment_table_register_accounting():
    lat = ([6] * 8 + [10] * 8) * 16   # plenty of short runs
    _, runs = build_nonuniform_groups(_waymap(lat), [6, 7], 16)
    assert runs[0] == [(s, s + 7) for s in range(0, 256, 16)]
    report = overhead_report(runs)
    assert report["index_registers_used"] == 2 * 16
    assert "index_registers_used" not in overhead_report()
    assert report["reported_index_registers"] == 128
    assert report["uniform_register_bytes"] == 224
    assert report["nonuniform_register_bytes"] == 194


def test_access_vawa_latencies():
    lat = [6] * 32 + [10] * 32
    access = _accessor("vawa_ng", _waymap(lat), **{"grouping.classes": 6})
    fast_addr = 5 * 64
    slow_addr = 40 * 64
    access(0, fast_addr)
    assert access(0, fast_addr).latency_cycles == 6
    access(0, slow_addr)
    assert access(0, slow_addr).latency_cycles == 10


def test_uniform_vs_nonuniform_same_hit_miss_sequence():
    lat = [random.Random(8).choice([6, 7, 10]) for _ in range(64)]
    m = _waymap(lat)
    ng = _accessor("vawa_ng", m)
    ug = _accessor("vawa_ug", m, **{"grouping.num_groups": 8})
    rng = random.Random(9)
    for _ in range(20_000):
        addr = rng.randrange(1 << 16) & ~63
        a = ng(0, addr)
        b = ug(0, addr)
        assert a.hit == b.hit and a.way == b.way

