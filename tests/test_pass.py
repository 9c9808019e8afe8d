"""The one-pass run path against the per-access engine.

`run_sweep` counts the hits of each LLC stream once (`nuca.count_hits`)
and prices every row from that table (`nuca.price`).  `make_accessor` and
`simulate_records` drive `NucaCache.access` one access at a time; here they
are the reference, and every statistic of a run must come out equal on
random traces.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache import cache_core, cli, metrics, nuca, vasa
from cnfetcache.cache_core import BankPolicy
from cnfetcache.cli import (ExperimentConfig, build_latency_maps,
                            build_machinery, build_page_mapping, llc_records,
                            make_accessor, run_sweep, simulate_records)
from cnfetcache.metrics import RunStats
from cnfetcache.pagemap import translate
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.workload import (SyntheticSpec, TraceRecord, as_trace,
                                 generate_synthetic)

CAPACITY = 16 * 1024            # 8 ways of 64 B lines: 32 sets
WAYS = (1, 2, 8, 16)
MESHES = {1: None, 2: (1, 2), 8: (2, 4)}      # banks -> NUCA rows, cols
# (layout, policy, extra keys): every policy, and DS with 1 to 8 groups.
KINDS = [("set_aligned", "baseline", {}), ("set_aligned", "baseline_pd", {}),
         ("set_aligned", "vasa", {})]
KINDS += [("set_aligned", "vasa_ds", {"vasa.way_groups": groups})
          for groups in (1, 2, 4, 8)]
KINDS += [("way_aligned", policy, {})
          for policy in ("baseline", "baseline_pd", "vawa_ug", "vawa_ng")]


STATISTICS = ("memory_latency_cycles", "accesses", "writes", "shuffle_moves",
              "hits", "misses", "reads", "total_llc_cycles", "llc_miss_rate",
              "mean_hit_latency")


def _fields(stats):
    """Every statistic of a run: the stored counts, the totals derived from
    them and, when there are accesses, the AMAT."""
    out = {name: getattr(stats, name) for name in STATISTICS}
    out["hit_latency_histogram"] = dict(stats.hit_latency_histogram)
    if stats.accesses:
        out["amat"] = metrics.amat(stats)
    return out


def _reference_stats(cfg, latmaps, records):
    """RunStats of `cfg` from the per-access engine, over these latency maps."""
    machinery = build_machinery(cfg, latmaps)
    translate_fn = None
    if cfg.pm_enabled:
        _, _, mapping = build_page_mapping(cfg, machinery, records, records)
        translate_fn = lambda v: translate(v, mapping, cfg.pm_page_bytes)
    stats = RunStats(memory_latency_cycles=cfg.memory_latency)
    return simulate_records(records, make_accessor(cfg, machinery), stats,
                            translate_fn)


def _pass_stats(cfg, latmaps, records):
    with mock.patch.object(cli, "build_latency_maps", lambda _: latmaps):
        return run_sweep([cfg], list(records))[0].stats


@st.composite
def experiments(draw, layout, policy, extra):
    """A config of this kind with 1, 2, 8 or 16 ways (a count its DS way
    groups divide) on 1, 2 or 8 banks, with or without page mapping, and a
    drawn latency map for each bank."""
    banks = draw(st.sampled_from(sorted(MESHES)))
    ways = draw(st.sampled_from([w for w in WAYS
                                 if w % extra.get("vasa.way_groups", 1) == 0]))
    bank_sets = CAPACITY // 64 // ways // banks
    keys = {"cache.capacity_bytes": CAPACITY, "cache.ways": ways,
            "layout": layout, "policy": policy, **extra,
            "grouping.num_groups": draw(st.sampled_from(
                [g for g in (1, 2, 4) if bank_sets % g == 0])),
            "grouping.budget": draw(st.integers(0, 4)),
            "energy.memory_latency": draw(st.integers(20, 40))}
    if MESHES[banks]:
        rows, cols = MESHES[banks]
        keys.update({"nuca.enabled": True, "nuca.rows": rows, "nuca.cols": cols,
                     "nuca.cycles_per_hop": draw(st.integers(1, 3))})
    pm_allowed = (not policy.startswith("baseline")
                  and (layout == "way_aligned" or MESHES[banks]))
    pm = draw(st.sampled_from(["off", "pm", "upm"] if pm_allowed else ["off"]))
    if pm != "off":
        keys.update({"pagemap.enabled": True, "pagemap.page_bytes": 128,
                     "pagemap.unified": pm == "upm"})
    cfg = ExperimentConfig.from_keys(keys)
    lo, hi = cfg.cycle_range
    groups = (cfg.num_ways if layout == "set_aligned"
              else cfg.bank_geometry.num_sets)
    latmaps = [LatencyMap(cfg.layout_kind,
                          draw(st.lists(st.integers(lo, hi), min_size=groups,
                                        max_size=groups)), lo, hi)
               for _ in range(banks)]
    return cfg, latmaps


@st.composite
def traces(draw, ways):
    """(core, write, line) triples: up to ways + 4 tags in each of a few
    sets of the cache's, so that lines hit at every LRU depth and sets
    evict."""
    num_sets = CAPACITY // 64 // ways
    sets = draw(st.lists(st.integers(0, num_sets - 1), min_size=1,
                         max_size=4, unique=True))
    accesses = draw(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                                       st.integers(0, ways + 3),
                                       st.sampled_from(sets)),
                             min_size=64, max_size=400))
    return [(core, write, tag * num_sets + s)
            for core, write, tag, s in accesses]


@pytest.mark.parametrize("layout, policy, extra", KINDS,
                         ids=[f"{layout}-{policy}{extra.get('vasa.way_groups', '')}"
                              for layout, policy, extra in KINDS])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pass_and_pricing_match_the_per_access_engine(layout, policy, extra,
                                                      data):
    cfg, latmaps = data.draw(experiments(layout, policy, extra))
    records = [TraceRecord(core, "W" if write else "R", line * 64)
               for core, write, line in data.draw(traces(cfg.num_ways))]
    assert _fields(_pass_stats(cfg, latmaps, records)) == \
        _fields(_reference_stats(cfg, latmaps, records))


@pytest.mark.parametrize("policy, extra", [
    ("baseline_pd", {}), ("vasa", {}), ("vasa_ds", {"vasa.way_groups": 4})],
    ids=["pd", "vasa", "ds"])
def test_pass_matches_the_engine_on_one_set_of_256_ways(policy, extra):
    # Hits land in ways and at depths up to 255: landing codes past 2^15.
    cfg = ExperimentConfig.from_keys({"cache.capacity_bytes": 256 * 64,
                                      "cache.ways": 256, "policy": policy,
                                      **extra})
    lo, hi = cfg.cycle_range
    latmaps = [LatencyMap(LayoutKind.SET_ALIGNED,
                          [lo + w * 5 % (hi - lo + 1) for w in range(256)],
                          lo, hi)]
    lines = np.random.default_rng(1).integers(0, 280, 4000).tolist()
    records = [TraceRecord(0, "RW"[i % 5 == 0], line * 64)
               for i, line in enumerate(lines)]
    table = nuca.count_hits(records, cfg.geometry, cfg.layout_kind,
                            build_machinery(cfg, latmaps).banks)
    assert any(table.counts[1 << 15:])
    assert _fields(_pass_stats(cfg, latmaps, records)) == \
        _fields(_reference_stats(cfg, latmaps, records))


@pytest.mark.parametrize("policy", ["baseline", "baseline_pd", "vawa_ng"])
def test_way_aligned_pass_matches_the_engine_on_sets_of_256_ways(policy):
    # 4 sets of 256 ways: a line comes back after hundreds of references,
    # more than 256 distinct lines apart (a miss) or fewer (a hit).
    cfg = ExperimentConfig.from_keys({"cache.capacity_bytes": 4 * 256 * 64,
                                      "cache.ways": 256,
                                      "layout": "way_aligned", "policy": policy,
                                      "grouping.num_groups": 2})
    lo, hi = cfg.cycle_range
    latmaps = [LatencyMap(LayoutKind.WAY_ALIGNED, [lo, hi, lo + 1, hi], lo, hi)]
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 300, 6000) * 4 + rng.integers(0, 4, 6000)
    records = [TraceRecord(0, "RW"[i % 5 == 0], line * 64)
               for i, line in enumerate(lines.tolist())]
    stats = _pass_stats(cfg, latmaps, records)
    assert 0 < stats.hits < stats.accesses - 4 * 300
    assert _fields(stats) == _fields(_reference_stats(cfg, latmaps, records))


@pytest.mark.parametrize("layout, replays", [("way_aligned", False),
                                             ("set_aligned", True)])
def test_only_set_aligned_lru_passes_replay(layout, replays):
    """A way aligned table counts a hit at its set, so its LRU banks need
    only `lru_hits`; a set aligned one counts each hit's way and depth."""
    cfg = ExperimentConfig.from_keys({"cache.capacity_bytes": CAPACITY,
                                      "nuca.enabled": True, "layout": layout})
    latmaps = build_latency_maps(cfg)
    records = generate_synthetic(SyntheticSpec(num_pages=64, length=3000,
                                               num_cores=4))
    calls = []
    real = cache_core.replay_lru

    def spy(sets, tags, ways):
        calls.append(len(tags))
        return real(sets, tags, ways)

    with mock.patch.object(cache_core, "replay_lru", spy):
        stats = _pass_stats(cfg, latmaps, records)
    assert stats.hits > 0
    assert (sum(calls) == len(records)) if replays else (calls == [])
    assert _fields(stats) == _fields(_reference_stats(cfg, latmaps, records))


@pytest.mark.parametrize("length", [0, 1])
@pytest.mark.parametrize("l1", [False, True])
@pytest.mark.parametrize("keys", [
    {"policy": "baseline"},
    {"policy": "vasa_ds", "vasa.way_groups": 2},
    {"policy": "vasa_ds", "nuca.enabled": True},
    {"layout": "way_aligned", "policy": "vawa_ng", "nuca.enabled": True,
     "pagemap.enabled": True}],
    ids=["lru", "ds", "ds-nuca", "way-nuca-pm"])
def test_sweep_takes_an_empty_or_one_reference_stream(keys, l1, length):
    cfg = ExperimentConfig.from_keys({"l1.enabled": l1, **keys})
    latmaps = build_latency_maps(cfg)
    records = [TraceRecord(3, "W", 0x12345)][:length]
    table = nuca.count_hits(records, cfg.geometry, cfg.layout_kind,
                            build_machinery(cfg, latmaps).banks, cfg.noc)
    assert (table.accesses, sum(table.counts), table.shuffle_moves) == \
        (length, 0, 0)
    stats = _pass_stats(cfg, latmaps, records)
    assert (stats.accesses, stats.hits) == (length, 0)
    llc = list(llc_records(cfg, as_trace(records)))
    assert llc == ([TraceRecord(3, "R", 0x12345)][:length] if l1 else records)
    assert _fields(stats) == _fields(_reference_stats(cfg, latmaps, llc))


def test_uca_takes_any_core_id():
    cfg = ExperimentConfig.from_keys({"cache.capacity_bytes": CAPACITY,
                                      "policy": "vasa"})
    latmaps = [LatencyMap(LayoutKind.SET_ALIGNED, [6, 7, 8, 9, 10, 11, 12, 6],
                          6, 12)]
    records = [TraceRecord(core, "R", (i * 37 % 200) * 64)
               for i, core in enumerate([0, 1_000_000] * 500)]
    stats = _pass_stats(cfg, latmaps, records)
    assert stats.hits > 0
    assert _fields(stats) == _fields(_reference_stats(cfg, latmaps, records))


def test_hit_table_size_follows_the_geometry_not_the_trace():
    cfg = ExperimentConfig.from_keys({"nuca.enabled": True,
                                      "workload.num_cores": 4})
    banks = [BankPolicy([6] * cfg.num_ways)] * cfg.num_banks
    for length in (1_000, 100_000):
        records = generate_synthetic(SyntheticSpec(length=length, num_cores=4))
        table = nuca.count_hits(records, cfg.geometry, cfg.layout_kind,
                                banks, cfg.noc)
        assert table.accesses == length
        assert 0 < sum(table.counts) <= length
        # 4 cores x 8 banks x 8 ways x 8 depths, for either length.
        assert table.shape == (4, 8, 8, 8)
        assert len(table.counts) == 4 * 8 * 8 * 8


@pytest.mark.parametrize("core", [4, -1])
def test_pass_rejects_a_core_off_the_mesh(core):
    geometry = CacheGeometry(CAPACITY, 8, 64)
    policies = [BankPolicy([6] * 8)] * 4
    records = [TraceRecord(0, "R", 0), TraceRecord(core, "R", 64),
               TraceRecord(3, "R", 128)]
    with pytest.raises(ValueError, match=f"core id {core} is not on the mesh"):
        nuca.count_hits(records, geometry, LayoutKind.SET_ALIGNED, policies,
                        nuca.noc_table(2, 2, 1, 2))


def test_pass_replays_each_bank_with_its_own_policy():
    # No config mixes policies across banks; the pass still hands each
    # bank's run of the stream to that bank's replay.
    geometry = CacheGeometry(CAPACITY, 8, 64)
    noc = nuca.noc_table(2, 2, 1, 2)
    latency = [6, 6, 7, 7, 8, 8, 12, 12]
    policies = [BankPolicy(latency, shuffle=vasa.WayGroups([[0, 1], [2, 3],
                                                           [4, 5], [6, 7]])),
                BankPolicy([8] * 8, disabled={6, 7}), BankPolicy(latency),
                BankPolicy(latency, shuffle=vasa.WayGroups([list(range(8))]))]
    records = generate_synthetic(SyntheticSpec(num_pages=16, length=4000,
                                               num_cores=4))
    table = nuca.count_hits(records, geometry, LayoutKind.SET_ALIGNED,
                            policies, noc)
    cache = nuca.NucaCache(geometry, noc, LayoutKind.SET_ALIGNED, policies)
    want = simulate_records(records, cache.access, RunStats(30))
    assert _fields(nuca.price(table, policies, 30, noc)) == _fields(want)


def test_pass_holds_no_values():
    """The pass keeps its own DS stacks: it builds no CacheState and never
    runs the valued per-access engine nor its placement, `vasa.shuffle` and
    `vasa.shift`."""
    geometry = CacheGeometry(CAPACITY, 8, 64)
    groups = vasa.WayGroups([[0, 1], [2, 3], [4, 5], [6, 7]])
    latency = [6, 6, 7, 7, 8, 8, 12, 12]
    policies = [BankPolicy(latency, shuffle=groups), BankPolicy(latency),
                BankPolicy(latency, shuffle=vasa.WayGroups([list(range(8))])),
                BankPolicy(latency, shuffle=groups)]
    records = generate_synthetic(SyntheticSpec(num_pages=16, length=4000,
                                               num_cores=4))

    def count():
        return nuca.count_hits(records, geometry, LayoutKind.SET_ALIGNED,
                               policies, nuca.noc_table(2, 2, 1, 2))

    want = count()
    assert want.shuffle_moves > 0 and sum(want.counts) > 0
    forbidden = AssertionError("the pass reached the valued engine")
    with mock.patch.object(cache_core, "CacheState", side_effect=forbidden), \
            mock.patch.object(vasa, "access_vasa_ds", side_effect=forbidden), \
            mock.patch.object(vasa, "shuffle", side_effect=forbidden), \
            mock.patch.object(vasa, "shift", side_effect=forbidden):
        got = count()
    assert got == want


def test_hit_tables_compare_field_by_field():
    # == answers for a table's counts array instead of raising.
    table = nuca.HitTable(np.arange(6), (1, 1, 2, 3), False, 10, 4)
    assert table == dataclasses.replace(table, counts=np.arange(6))
    for changed in ({"counts": np.arange(6) % 5}, {"counts": np.arange(5)},
                    {"shape": (1, 1, 3, 2)}, {"per_set": True},
                    {"shuffle_moves": 1}):
        assert table != dataclasses.replace(table, **changed)
    assert table != table.counts.tolist()


def test_dirty_evictions_and_fills_are_not_charged():
    """No row pays for writing a dirty LLC victim back, nor for a read
    miss's fill beyond its one read: the same addresses as all writes cost
    the cycles of all reads, and e_write - e_read more energy per access."""
    cfg = ExperimentConfig.from_keys({"cache.capacity_bytes": CAPACITY,
                                      "energy.memory_latency": 45})
    latmaps = build_latency_maps(cfg)
    # Up to 12 tags in each of 2 sets of 8 ways: hits and evictions.
    lines = np.random.default_rng(2).integers(0, 24, 600) * 16
    params = cfg.energy_params
    stats, dirty = {}, {}
    for op in "RW":
        records = [TraceRecord(0, op, line * 64) for line in lines]
        access = make_accessor(cfg, build_machinery(cfg, latmaps))
        results = []

        def watched(*args):
            results.append(access(*args))
            return results[-1]

        reference = simulate_records(records, watched,
                                     RunStats(cfg.memory_latency))
        swept = _pass_stats(cfg, latmaps, records)
        assert _fields(swept) == _fields(reference)
        stats[op] = swept, reference
        dirty[op] = [result.evicted_dirty for result in results]
    assert any(dirty["W"]) and not any(dirty["R"])
    for read, write in zip(stats["R"], stats["W"]):
        assert 0 < read.hits < read.accesses == len(lines)
        assert (read.reads, read.writes) == (len(lines), 0)
        assert (write.reads, write.writes) == (0, len(lines))
        assert (read.hits, read.misses, read.total_llc_cycles) == \
            (write.hits, write.misses, write.total_llc_cycles)
        (read_static, read_dynamic), (write_static, write_dynamic) = (
            metrics.energy(read, params), metrics.energy(write, params))
        assert read_static == write_static
        assert write_dynamic - read_dynamic == \
            (params.e_write_units - params.e_read_units) * len(lines)
