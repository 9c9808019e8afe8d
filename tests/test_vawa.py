import random

import pytest

from cnfetcache.cli import ExperimentConfig, build_machinery, make_accessor
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vawa import (Segment, SegmentTable, build_nonuniform_groups,
                             build_uniform_groups, coverage_savings,
                             lookup_latency, overhead_report)

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
    m = _waymap([6] * 4096)
    groups = build_uniform_groups(m, 64)
    assert groups.sets_per_group == 64
    assert groups.group_latency == [6] * 64


def test_uniform_groups_max_semantics():
    lat = [6] * 4096
    lat[5] = 10
    groups = build_uniform_groups(_waymap(lat), 64)
    assert groups.group_latency[0] == 10
    assert groups.group_latency[1:] == [6] * 63


def test_uniform_groups_divisibility():
    with pytest.raises(ValueError):
        build_uniform_groups(_waymap([6] * 4096), 65)


def test_uniform_degenerate_reproduces_map():
    lat = [random.Random(1).choice([6, 7, 8, 10]) for _ in range(256)]
    groups = build_uniform_groups(_waymap(lat), 256)
    assert groups.group_latency == lat


def test_nonuniform_all_worst_is_empty():
    table = build_nonuniform_groups(_waymap([10] * 64), [6, 7], 16)
    assert all(not segs for _, segs in table.classes)
    assert lookup_latency(table, 13) == 10


def test_nonuniform_single_maximal_run():
    lat = [6] * 2048 + [10] * 2048
    table = build_nonuniform_groups(_waymap(lat), [6], 16, granularity=8)
    assert table.classes[0][1] == [Segment(0, 2047, 6)]
    assert lookup_latency(table, 100) == 6
    assert lookup_latency(table, 2048) == 10


def test_nonuniform_budget_keeps_longest_runs():
    # Runs of 6s with lengths 3, 5, 2 separated by worst sets; budget 2 keeps
    # the two longest (5 then 3), ties resolved by start index elsewhere.
    lat = ([6] * 3 + [10] + [6] * 5 + [10] + [6] * 2 + [10] * 52)
    table = build_nonuniform_groups(_waymap(lat), [6], 2)
    segs = table.classes[0][1]
    assert segs == [Segment(0, 2, 6), Segment(4, 8, 6)]


def test_nonuniform_tie_break_by_start():
    lat = [6, 6, 10, 6, 6, 10, 6, 6] + [10] * 56
    table = build_nonuniform_groups(_waymap(lat), [6], 2)
    assert table.classes[0][1] == [Segment(0, 1, 6), Segment(3, 4, 6)]


def test_nonuniform_faster_class_claims_first():
    # Sets <= 6 qualify for both classes; the 6-class takes them and the
    # 7-class only covers the residual run.
    lat = [6, 6, 6, 6, 7, 7, 10, 10] + [10] * 56
    table = build_nonuniform_groups(_waymap(lat), [6, 7], 16)
    assert table.classes[0][1] == [Segment(0, 3, 6)]
    assert table.classes[1][1] == [Segment(4, 5, 7)]
    assert lookup_latency(table, 2) == 6
    assert lookup_latency(table, 5) == 7
    assert lookup_latency(table, 7) == 10


def test_nonuniform_respects_granularity():
    lat = [6] * 12 + [10] * 52
    table = build_nonuniform_groups(_waymap(lat), [6], 16, granularity=8)
    # Only one aligned 8-set block is fully fast.
    assert table.classes[0][1] == [Segment(0, 7, 6)]


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
        table = build_nonuniform_groups(m, [6, 7], 2)
        greedy = coverage_savings(table)
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
    table = build_nonuniform_groups(_waymap(lat), [6, 7], 1)
    assert coverage_savings(table) == 18
    assert _dp_optimal_savings(tuple(lat), (6, 7), 1, 10) == 20


def test_lookup_never_undercuts_physical_latency():
    rng = random.Random(5)
    for _ in range(20):
        lat = [rng.choice([6, 7, 8, 9, 10]) for _ in range(256)]
        m = _waymap(lat)
        table = build_nonuniform_groups(m, [6, 7, 8], 4)
        for s in range(256):
            assert lookup_latency(table, s) >= lat[s]


def test_segment_table_register_accounting():
    lat = ([6] * 8 + [10] * 8) * 16   # plenty of short runs
    table = build_nonuniform_groups(_waymap(lat), [6, 7], 16)
    assert table.index_registers_used() <= 2 * 16 * 2
    report = overhead_report(table)
    assert report["index_registers_used"] == table.index_registers_used()
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


def test_segment_table_validation():
    with pytest.raises(ValueError):
        SegmentTable([(7, []), (6, [])], default_latency=10)
    with pytest.raises(ValueError):
        SegmentTable([(6, [Segment(0, 5, 6), Segment(3, 8, 6)])],
                     default_latency=10)
