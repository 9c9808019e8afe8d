"""The one-pass run path against the per-access engine.

`run_sweep` counts the hits of each LLC stream once (`nuca.count_hits`)
and prices every row from that table (`nuca.price`).  `make_accessor` and
`simulate_records` drive `NucaCache.access` one access at a time; here they
are the reference, and every RunStats field must come out equal on random
traces.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnfetcache import cache_core, cli, nuca, vasa
from cnfetcache.cache_core import BankPolicy
from cnfetcache.cli import (ExperimentConfig, build_machinery,
                            build_page_mapping, make_accessor, run_sweep,
                            simulate_records)
from cnfetcache.metrics import RunStats
from cnfetcache.pagemap import translate
from cnfetcache.timing import CacheGeometry, LatencyMap, LayoutKind
from cnfetcache.workload import SyntheticSpec, TraceRecord, generate_synthetic

CAPACITY = 16 * 1024            # 8 ways of 64 B lines: 32 sets
MESHES = {1: None, 2: (1, 2), 8: (2, 4)}      # banks -> NUCA rows, cols
# (layout, policy, extra keys): every policy, and DS with 1 to 8 groups.
KINDS = [("set_aligned", "baseline", {}), ("set_aligned", "baseline_pd", {}),
         ("set_aligned", "vasa", {})]
KINDS += [("set_aligned", "vasa_ds", {"vasa.way_groups": groups})
          for groups in (1, 2, 4, 8)]
KINDS += [("way_aligned", policy, {})
          for policy in ("baseline", "baseline_pd", "vawa_ug", "vawa_ng")]


def _fields(stats):
    return {**vars(stats),
            "hit_latency_histogram": dict(stats.hit_latency_histogram)}


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
    """A config of this kind on 1, 2 or 8 banks, with or without page
    mapping, and a drawn latency map for each bank."""
    banks = draw(st.sampled_from(sorted(MESHES)))
    keys = {"cache.capacity_bytes": CAPACITY, "layout": layout,
            "policy": policy, **extra,
            "grouping.num_groups": draw(st.sampled_from([1, 2, 4])),
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
def traces(draw):
    """(core, write, line) triples: up to 12 tags in each of a few sets of
    the 32, so that lines hit at every LRU depth and sets evict."""
    sets = draw(st.lists(st.integers(0, 31), min_size=1, max_size=4,
                         unique=True))
    accesses = draw(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                                       st.integers(0, 11), st.sampled_from(sets)),
                             min_size=64, max_size=400))
    return [(core, write, tag * 32 + s) for core, write, tag, s in accesses]


@pytest.mark.parametrize("layout, policy, extra", KINDS,
                         ids=[f"{layout}-{policy}{extra.get('vasa.way_groups', '')}"
                              for layout, policy, extra in KINDS])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pass_and_pricing_match_the_per_access_engine(layout, policy, extra,
                                                      data):
    cfg, latmaps = data.draw(experiments(layout, policy, extra))
    records = [TraceRecord(core, "W" if write else "R", line * 64)
               for core, write, line in data.draw(traces())]
    assert _fields(_pass_stats(cfg, latmaps, records)) == \
        _fields(_reference_stats(cfg, latmaps, records))


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


def test_pass_holds_no_values():
    """The pass moves tags along `vasa.shuffle`'s chains itself: it builds no
    CacheState and never runs the valued per-access engine."""
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
            mock.patch.object(vasa, "access_vasa_ds", side_effect=forbidden):
        assert count() == want
