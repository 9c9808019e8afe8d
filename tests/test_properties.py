"""Property tests of the one access path: replacement invariants of the LRU
and data-shuffling engines, safety of the flattened grouping latency, the
trace text round trip, and config validation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache.cache_core import BankPolicy, PolicyKind, partial_disable
from cnfetcache.cli import ConfigError, ExperimentConfig, build_machinery
from cnfetcache.nuca import NucaCache
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.vasa import WayGroups, access_vasa_ds
from cnfetcache.workload import TraceRecord, parse_trace, serialize_trace

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

GEO_4WAY = CacheGeometry(4 * 4 * 64, 4, 64)        # 4 sets x 4 ways
GEO_8WAY = CacheGeometry(4 * 8 * 64, 8, 64)        # 4 sets x 8 ways

# (tag, set, write) triples over a few tags per set, so sets fill and evict.
accesses = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3),
                              st.booleans()), min_size=1, max_size=200)


def _ranks_are_permutation(lines, ways):
    ranks = sorted(lines[w].lru_rank for w in ways if lines[w].valid)
    return ranks == list(range(len(ranks)))


@PROPERTY
@given(latencies=st.lists(st.integers(6, 12), min_size=4, max_size=4),
       pd=st.booleans(), trace=accesses)
def test_lru_valid_ranks_are_a_permutation(latencies, pd, trace):
    latmap = LatencyMap(LayoutKind.SET_ALIGNED, latencies, 6, 12)
    policy = partial_disable(latmap) if pd else BankPolicy(latencies)
    allowed = policy.ways if policy.ways is not None else range(4)
    cache = NucaCache(GEO_4WAY, None, LayoutKind.SET_ALIGNED, [policy])
    for seq, (tag, set_index, write) in enumerate(trace, start=1):
        cache.access(0, (tag << 8) | (set_index << 6), write, seq)
        lines = cache.banks[0].sets[set_index]
        assert _ranks_are_permutation(lines, allowed)
        assert not any(lines[w].valid for w in range(4) if w not in allowed)


@PROPERTY
@given(latencies=st.lists(st.integers(6, 12), min_size=8, max_size=8),
       num_groups=st.sampled_from([1, 2, 4, 8]), trace=accesses)
def test_ds_leaves_one_mru_per_nonempty_group(latencies, num_groups, trace):
    latmap = LatencyMap(LayoutKind.SET_ALIGNED, latencies, 6, 12)
    groups = WayGroups.from_latency_map(latmap, num_groups)
    cache = NucaCache(GEO_8WAY, None, LayoutKind.SET_ALIGNED,
                      [BankPolicy(latencies, access_vasa_ds, groups)])
    for seq, (tag, set_index, write) in enumerate(trace, start=1):
        cache.access(0, (tag << 8) | (set_index << 6), write, seq)
        lines = cache.banks[0].sets[set_index]
        for group in groups.groups:
            valid = [w for w in group if lines[w].valid]
            if valid:
                assert sum(lines[w].priority_bit == 0 for w in valid) == 1
            assert _ranks_are_permutation(lines, group)


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


trace_records = st.lists(st.builds(
    TraceRecord, core_id=st.integers(0, 64), op=st.sampled_from("RW"),
    vaddr=st.integers(0, 2 ** 64), kind=st.sampled_from("ID")), max_size=50)


@PROPERTY
@given(records=trace_records)
def test_trace_text_round_trips(records):
    assert parse_trace(serialize_trace(records)) == records


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
