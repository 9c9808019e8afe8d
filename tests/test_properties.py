"""Property tests of the one access path: replacement invariants of the LRU
and data-shuffling engines, safety of the flattened grouping latency, the
trace text round trip, and config validation; and that a failing property
under the suite's settings reports its example."""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache.cache_core import BankPolicy, PolicyKind, partial_disable
from cnfetcache.cli import ConfigError, ExperimentConfig, build_machinery
from cnfetcache.nuca import NucaCache
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vasa import WayGroups
from cnfetcache.vawa import build_nonuniform_groups
from cnfetcache.workload import TraceRecord, parse_trace, serialize_trace

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

GEO_4WAY = CacheGeometry(4 * 4 * 64, 4, 64)        # 4 sets x 4 ways
GEO_8WAY = CacheGeometry(4 * 8 * 64, 8, 64)        # 4 sets x 8 ways

# (tag, set, write) triples over a few tags per set; at least 24, so that
# sets fill and evict.
accesses = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3),
                              st.booleans()), min_size=24, max_size=200)


def _valid_ways(tags, ways):
    return [w for w in ways if tags[w] is not None]


@PROPERTY
@given(latencies=st.lists(st.integers(6, 12), min_size=4, max_size=4),
       pd=st.booleans(), trace=accesses)
def test_lru_valid_ranks_are_a_permutation(latencies, pd, trace):
    # The recency order ranks every valid way exactly once, and only the
    # enabled ways ever fill, first to last.
    latmap = LatencyMap(LayoutKind.SET_ALIGNED, latencies, 6, 12)
    policy = partial_disable(latmap) if pd else BankPolicy(latencies)
    allowed = [w for w in range(4) if w not in policy.disabled]
    cache = NucaCache(GEO_4WAY, None, LayoutKind.SET_ALIGNED, [policy])
    for seq, (tag, set_index, write) in enumerate(trace, start=1):
        cache.access(0, (tag << 8) | (set_index << 6), write, seq)
        tags = cache.banks[0].tags[set_index]
        valid = _valid_ways(tags, range(4))
        assert sorted(cache.banks[0].order[set_index]) == valid
        assert valid == list(allowed)[:len(valid)]


def _ds_cache(latencies, num_groups):
    latmap = LatencyMap(LayoutKind.SET_ALIGNED, latencies, 6, 12)
    groups = WayGroups.from_latency_map(latmap, num_groups)
    cache = NucaCache(GEO_8WAY, None, LayoutKind.SET_ALIGNED,
                      [BankPolicy(latencies, shuffle=groups)])
    return cache, groups


@PROPERTY
@given(latencies=st.lists(st.integers(6, 12), min_size=8, max_size=8),
       num_groups=st.sampled_from([1, 2, 4, 8]), trace=accesses)
def test_ds_leaves_one_mru_per_nonempty_group(latencies, num_groups, trace):
    # Each group's order ranks exactly its valid ways, so its front, the
    # one T=0 line, exists exactly when the group holds a line.
    cache, groups = _ds_cache(latencies, num_groups)
    for seq, (tag, set_index, write) in enumerate(trace, start=1):
        cache.access(0, (tag << 8) | (set_index << 6), write, seq)
        tags = cache.banks[0].tags[set_index]
        orders = cache.banks[0].order[set_index]
        assert len(orders) == num_groups
        for group, order in zip(groups.groups, orders):
            assert sorted(order) == _valid_ways(tags, group)


@PROPERTY
@given(latencies=st.lists(st.integers(6, 12), min_size=8, max_size=8),
       num_groups=st.sampled_from([1, 2, 4, 8]), trace=accesses)
def test_ds_fills_groups_fastest_first(latencies, num_groups, trace):
    # A group holds lines only if every faster group is full: a miss fills
    # the fastest group with a free way and no access empties a way, so a
    # promotion never meets a faster group with a free way.
    cache, groups = _ds_cache(latencies, num_groups)
    for seq, (tag, set_index, write) in enumerate(trace, start=1):
        cache.access(0, (tag << 8) | (set_index << 6), write, seq)
        tags = cache.banks[0].tags[set_index]
        filled = [len(_valid_ways(tags, group)) for group in groups.groups]
        for k in range(1, num_groups):
            if filled[k]:
                assert filled[k - 1] == len(groups.groups[k - 1])


@PROPERTY
@given(data=st.data(), classes=st.sets(st.integers(6, 9), min_size=1),
       budget=st.integers(1, 16), granularity=st.sampled_from([1, 2, 8]))
def test_flattened_ng_never_undercuts_physical_latency(data, classes, budget,
                                                       granularity):
    cfg = ExperimentConfig.from_keys({
        "cache.capacity_bytes": 64 * 8 * 64, "layout": "way_aligned",
        "policy": "vawa_ng", "grouping.classes": sorted(classes),
        "grouping.budget": budget, "grouping.granularity": granularity})
    latencies = data.draw(st.lists(st.integers(6, 10), min_size=64,
                                   max_size=64))
    latmap = LatencyMap(LayoutKind.WAY_ALIGNED, latencies, 6, 10)
    flat = build_machinery(cfg, [latmap]).banks[0].latency
    assert len(flat) == 64
    assert all(f >= c for f, c in zip(flat, latencies))
    # Each class's runs fit its register budget: sorted, disjoint and
    # aligned to the granularity.
    latency, runs = build_nonuniform_groups(latmap, sorted(classes), budget,
                                            granularity)
    assert latency == flat and len(runs) == len(classes)
    for class_runs in runs:
        assert len(class_runs) <= budget
        assert all(a <= b for a, b in class_runs)
        assert all(b < c for (_, b), (c, _) in zip(class_runs, class_runs[1:]))
        assert all(a % granularity == 0 and (b + 1) % granularity == 0
                   for a, b in class_runs)
    # A set is charged the first class whose runs cover it, else the worst.
    for s, cycles in enumerate(flat):
        covering = [c for c, class_runs in zip(sorted(classes), runs)
                    if any(a <= s <= b for a, b in class_runs)]
        assert cycles == (covering[0] if covering else latmap.max_cycles)


trace_records = st.lists(st.builds(
    TraceRecord, core_id=st.integers(0, 64), op=st.sampled_from("RW"),
    vaddr=st.integers(0, 2 ** 64 - 1), kind=st.sampled_from("ID")),
    max_size=50)


@PROPERTY
@given(records=trace_records)
def test_trace_text_round_trips(records):
    assert list(parse_trace(serialize_trace(records))) == records


# Values of every shape a config file or --set can carry, plus the policy
# and layout names so that policy-specific checks are reached.
config_values = st.one_of(
    st.integers(-4, 1 << 22), st.floats(), st.booleans(), st.text(max_size=6),
    st.sampled_from([k.value for k in PolicyKind]
                    + [k.value for k in LayoutKind]))


@PROPERTY
@given(keys=st.dictionaries(st.sampled_from(sorted(ExperimentConfig.KEYMAP)),
                            config_values, max_size=8))
def test_config_keys_validate_or_raise_config_error(keys):
    try:
        cfg = ExperimentConfig.from_keys(keys)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_failing_property_reports_its_example(tmp_path):
    # The suite turns warnings into errors.  One that hypothesis raises
    # while it reports a failure must not end the session before the
    # report, nor keep the tests after it from running.
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 5


        def test_after():
            pass
        """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(root),
         "-rA", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert re.search(r"^PASSED \S*::test_after$", run.stdout, re.M)
