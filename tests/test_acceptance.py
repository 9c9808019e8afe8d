"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with `pytest tests/test_acceptance.py -v -s`)."""

import random
import time
from collections import Counter

import numpy as np
import pytest

import test_vasa
import test_vawa
from cnfetcache import metrics
from cnfetcache.cli import (ExperimentConfig, build_latency_maps,
                            build_machinery, build_page_mapping, main,
                            make_accessor, run_experiment)
from cnfetcache.nuca import MeshTopology, noc_latency
from cnfetcache.pagemap import (PageProfile, assign_pages,
                                build_frame_inventory, translate)
from cnfetcache.timing import (CacheGeometry, LatencyMap, LayoutKind,
                               build_latency_map)
from cnfetcache.variation import CntParams, surviving_counts
from cnfetcache.vawa import build_nonuniform_groups
from cnfetcache.workload import TraceRecord

TABLE_PARAMS = CntParams(mu=9.0, sigma=2.1, p_metallic=0.05,
                         p_remove_metallic=0.999,
                         p_remove_semiconducting=0.05)


# -- criterion 1: shuffle scenario fidelity -------------------------------

def test_criterion_1_shuffle_scenarios_and_oracle():
    start = time.time()
    test_vasa.test_shuffle_hit_in_fastest_group()
    test_vasa.test_shuffle_hit_in_second_group_swaps()
    test_vasa.test_shuffle_hit_in_slowest_group_cascades()
    test_vasa.test_shuffle_miss_inserts_at_fast_group_and_evicts_slow()

    cache = test_vasa._ds_cache()
    state = cache.banks[0]
    oracle = test_vasa.StraightLineShuffleOracle()
    rng = random.Random(20_24)
    for i in range(100_000):
        tag = rng.randrange(24)
        result = cache.access(0, test_vasa._addr(tag))
        hit, way, moves, evicted = oracle.access(tag)
        assert (result.hit, result.shuffle_moves, result.evicted_tag) == \
            (hit, moves, evicted), f"diverged at access {i}"
        if hit:
            assert result.way == way, f"diverged at access {i}"
        got = test_vasa._way_state(state)
        want = [(oracle.valid[w],
                 oracle.tags[w] if oracle.valid[w] else None, oracle.T[w])
                for w in range(8)]
        assert got == want, f"state diverged at access {i}"
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 4 published shuffle scenarios exact; "
          f"engine == straight-line oracle on 100000 accesses ({elapsed:.1f}s)")


# -- criterion 2: memory-consistency oracle across every policy -----------

def _consistency_matrix():
    base = {"cache.capacity_bytes": 64 * 1024, "cnt.seed": 12}
    pm = {"pagemap.enabled": True, "pagemap.page_bytes": 512}
    nuca = {"nuca.enabled": True, "workload.num_cores": 4}
    ug_nuca = {"grouping.num_groups": 16}
    combos = [
        ("uca/baseline/set", {"policy": "baseline", "layout": "set_aligned"}),
        ("uca/pd/set", {"policy": "baseline_pd", "layout": "set_aligned"}),
        ("uca/vasa", {"policy": "vasa", "layout": "set_aligned"}),
        ("uca/vasa_ds", {"policy": "vasa_ds", "layout": "set_aligned"}),
        ("uca/baseline/way", {"policy": "baseline", "layout": "way_aligned"}),
        ("uca/pd/way", {"policy": "baseline_pd", "layout": "way_aligned"}),
        ("uca/vawa_ug", {"policy": "vawa_ug", "layout": "way_aligned"}),
        ("uca/vawa_ng", {"policy": "vawa_ng", "layout": "way_aligned"}),
        ("uca/vawa_ug+pm", {"policy": "vawa_ug", "layout": "way_aligned", **pm}),
        ("uca/vawa_ng+pm", {"policy": "vawa_ng", "layout": "way_aligned", **pm}),
        ("nuca/baseline/set", {"policy": "baseline", "layout": "set_aligned", **nuca}),
        ("nuca/pd/set", {"policy": "baseline_pd", "layout": "set_aligned", **nuca}),
        ("nuca/vasa", {"policy": "vasa", "layout": "set_aligned", **nuca}),
        ("nuca/vasa_ds", {"policy": "vasa_ds", "layout": "set_aligned", **nuca}),
        ("nuca/vasa_ds+pm", {"policy": "vasa_ds", "layout": "set_aligned",
                             **nuca, **pm}),
        ("nuca/baseline/way", {"policy": "baseline", "layout": "way_aligned", **nuca}),
        ("nuca/vawa_ug", {"policy": "vawa_ug", "layout": "way_aligned",
                          **nuca, **ug_nuca}),
        ("nuca/vawa_ng", {"policy": "vawa_ng", "layout": "way_aligned", **nuca}),
        ("nuca/vawa_ng+pm", {"policy": "vawa_ng", "layout": "way_aligned",
                             **nuca, **pm, "pagemap.unified": False}),
        ("nuca/vawa_ng+upm", {"policy": "vawa_ng", "layout": "way_aligned",
                              **nuca, **pm, "pagemap.unified": True}),
    ]
    return [(label, ExperimentConfig.from_keys({**base, **keys}))
            for label, keys in combos]


def test_criterion_2_memory_consistency_all_policies():
    start = time.time()
    rng = random.Random(9)
    trace = [TraceRecord(rng.randrange(4),
                         "W" if rng.random() < 0.35 else "R",
                         rng.randrange(128 * 1024) & ~63)
             for _ in range(100_000)]
    checked = 0
    for label, cfg in _consistency_matrix():
        latmaps = build_latency_maps(cfg)
        machinery = build_machinery(cfg, latmaps)
        translate_fn = None
        if cfg.pm_enabled:
            _, _, mapping = build_page_mapping(cfg, machinery, trace, trace)
            page = cfg.pm_page_bytes
            translate_fn = lambda v: translate(v, mapping, page)
        accessor = make_accessor(cfg, machinery)
        ref = {}
        seq = 0
        hits_checked = 0
        for rec in trace:
            addr = rec.vaddr if translate_fn is None else translate_fn(rec.vaddr)
            line = rec.vaddr & ~63
            if rec.op == "W":
                seq += 1
                ref[line] = seq
                accessor(rec.core_id, addr, True, seq)
            else:
                result = accessor(rec.core_id, addr, False, 0)
                assert result.value == ref.get(line, 0), \
                    f"{label}: stale read at {hex(rec.vaddr)}"
                if result.hit:
                    hits_checked += 1
        assert hits_checked > 0, f"{label}: no hits exercised"
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: {checked} policy configurations x 100000 "
          f"references, every read returned the last written value "
          f"({elapsed:.1f}s)")


# -- criterion 3: grouping optimality and lookup safety --------------------

def test_criterion_3_grouping_optimality_and_lookup_safety():
    rng = random.Random(333)
    matches = 0
    max_gap = 0
    gaps = []
    for _ in range(200):
        lat = [rng.choice([6, 6, 7, 8, 10, 10]) for _ in range(64)]
        budget = rng.randrange(1, 5)
        m = LatencyMap(LayoutKind.WAY_ALIGNED, lat, 6, 10)
        latency, _ = build_nonuniform_groups(m, [6, 7], budget, granularity=1)
        greedy = sum(m.max_cycles - c for c in latency)
        optimum = test_vawa._dp_optimal_savings(tuple(lat), (6, 7), budget, 10)
        assert greedy <= optimum
        if greedy == optimum:
            matches += 1
        else:
            gaps.append(optimum - greedy)
            max_gap = max(max_gap, optimum - greedy)

    # Safety: the flat list never undercuts the physical set latency.
    geometry = CacheGeometry(2 * 1024 * 1024, 8, 64)
    queries = 0
    for seed in range(4):
        m = build_latency_map(geometry, LayoutKind.WAY_ALIGNED,
                              CntParams(seed=seed))
        latency, _ = build_nonuniform_groups(m, [6, 7], 16, granularity=8)
        idx = np.random.default_rng(seed).integers(0, geometry.num_sets,
                                                   size=250_000)
        for s in idx:
            s = int(s)
            assert latency[s] >= m.latencies[s]
            queries += 1
    assert queries == 1_000_000
    print(f"\nACCEPTANCE 3 PASS: greedy matched the exhaustive optimum on "
          f"{matches}/200 maps (documented gap on {len(gaps)}, max "
          f"{max_gap} cycles saved); lookup >= physical latency on "
          f"1000000 queries")


# -- criterion 4: latency distribution and Monte Carlo mean ----------------

def test_criterion_4_distribution_and_mc_mean():
    geometry = CacheGeometry(2 * 1024 * 1024, 8, 64)
    for seed in range(20):
        m = build_latency_map(geometry, LayoutKind.WAY_ALIGNED,
                              CntParams(seed=seed), stages=8,
                              min_cycles=6, max_cycles=10)
        hist = Counter(m.latencies)
        mode = max(hist, key=hist.get)
        assert mode == 6, f"seed {seed}: mode {mode}, hist {dict(hist)}"
        assert hist[10] > 0, f"seed {seed}: no worst-case tail"

    rng = np.random.default_rng(4242)
    raw = np.full(1_000_000, 9, dtype=np.int64)
    mean = surviving_counts(raw, TABLE_PARAMS, rng).mean()
    assert abs(mean - 8.1225) < 0.02
    print(f"\nACCEPTANCE 4 PASS: mode 6 with nonzero 10-cycle tail on all "
          f"20 seeds (4096 sets); MC effective-count mean {mean:.4f} within "
          f"8.1225 +/- 0.02")


# -- criterion 5: scaled latency reduction ---------------------------------

def _recipe_a(policy):
    return ExperimentConfig.from_keys({
        "cache.capacity_bytes": 256 * 1024, "policy": policy,
        "layout": "set_aligned", "cnt.seed": 17,
        "workload.num_pages": 32, "workload.zipf": 1.2,
        "workload.length": 150_000, "workload.seed": 7})


def _recipe_b(policy, pm=False):
    keys = {"cache.capacity_bytes": 256 * 1024, "policy": policy,
            "layout": "way_aligned", "cnt.seed": 101,
            "workload.num_pages": 256, "workload.zipf": 1.2,
            "workload.length": 150_000, "workload.seed": 7,
            "workload.page_bytes": 512}
    if pm:
        keys.update({"pagemap.enabled": True, "pagemap.page_bytes": 512})
    return ExperimentConfig.from_keys(keys)


def test_criterion_5_scaled_latency_reduction():
    start = time.time()
    base_a = run_experiment(_recipe_a("baseline"))
    ds = run_experiment(_recipe_a("vasa_ds"))
    ratio_a = ds.stats.mean_hit_latency / base_a.stats.mean_hit_latency
    assert ratio_a <= 0.75 + 0.10, f"VASA+DS ratio {ratio_a:.3f}"

    base_b = run_experiment(_recipe_b("baseline"))
    ng_pm = run_experiment(_recipe_b("vawa_ng", pm=True))
    ratio_b = ng_pm.stats.mean_hit_latency / base_b.stats.mean_hit_latency
    assert ratio_b <= 0.70 + 0.10, f"VAWA+NG+PM ratio {ratio_b:.3f}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5 PASS: VASA+DS hit latency ratio {ratio_a:.3f} "
          f"(target 0.75 +/- 0.10); VAWA+NG+PM ratio {ratio_b:.3f} "
          f"(target 0.70 +/- 0.10) ({elapsed:.1f}s)")


# -- criterion 6: unified NUCA page mapping dominance -----------------------

def test_criterion_6_unified_mapping_dominates():
    topology = MeshTopology()
    bank_geo = CacheGeometry(256 * 1024 // 8, 8, 64)
    rng = random.Random(2024)
    lat = [[rng.choice([6, 6, 7, 8, 10, 10]) for _ in range(bank_geo.num_sets)]
           for _ in range(8)]
    set_latencies = [build_nonuniform_groups(
        LatencyMap(LayoutKind.WAY_ALIGNED, l, 6, 10), [6, 7], 8)[0]
        for l in lat]

    page = 512
    wins = 0
    for trial in range(50):
        profile = PageProfile()
        for p in range(rng.randrange(16, 48)):
            profile.record(p, rng.randrange(4), rng.randrange(1, 1000))

        def build():
            return build_frame_inventory(bank_geo, page, 64, set_latencies)

        unified = assign_pages(
            profile, build(),
            lambda f, c: f.latency_class + noc_latency(topology, c, f.bank))
        oblivious = assign_pages(profile, build(),
                                 lambda f, c: f.latency_class)
        frames = {f.index: f for f in build().frames}

        def cost(mapping):
            return sum(profile.counts[p]
                       * (frames[mapping[p]].latency_class
                          + noc_latency(topology, profile.dominant_core(p),
                                        frames[mapping[p]].bank))
                       for p in mapping)

        cu, co = cost(unified), cost(oblivious)
        assert cu <= co, f"trial {trial}: unified {cu} > oblivious {co}"
        wins += cu < co
    assert wins >= 40      # strict improvement on >= 80%
    print(f"\nACCEPTANCE 6 PASS: unified page mapping <= NoC-oblivious on "
          f"50/50 random profiles, strictly better on {wins}")


# -- criterion 7: energy accounting -----------------------------------------

def test_criterion_7_energy_accounting():
    # Exact decomposition on a live run.
    out = run_experiment(_recipe_a("vasa_ds"))
    params = _recipe_a("vasa_ds").energy_params
    static, dynamic = metrics.energy(out.stats, params)
    row = out.stats_row()
    assert float(row[-1]) == float(row[-2]) + float(row[-3])
    assert static + dynamic == pytest.approx(float(row[-1]))

    # Churn trace: cycling through all 8 ways of one set shuffles constantly
    # and saves nothing, so shuffling costs extra dynamic energy.
    stride = 512 * 64
    churn = [TraceRecord(0, "R", (i % 8) * stride) for i in range(20_000)]
    plain_cfg = _recipe_a("vasa")
    ds_cfg = _recipe_a("vasa_ds")
    plain_churn = run_experiment(plain_cfg, records=list(churn))
    ds_churn = run_experiment(ds_cfg, records=list(churn))
    _, plain_dyn = metrics.energy(plain_churn.stats, params)
    _, ds_dyn = metrics.energy(ds_churn.stats, params)
    assert ds_dyn > plain_dyn
    assert ds_churn.stats.shuffle_moves > 10_000

    # Hot-set trace of criterion 5: the latency saving buys back more static
    # energy than the shuffle writes cost.
    plain_hot = run_experiment(_recipe_a("vasa"))
    ds_hot = run_experiment(_recipe_a("vasa_ds"))
    plain_total = sum(metrics.energy(plain_hot.stats, params))
    ds_total = sum(metrics.energy(ds_hot.stats, params))
    assert ds_total < plain_total
    print(f"\nACCEPTANCE 7 PASS: total = static + dynamic exactly; churn "
          f"trace DS dynamic {ds_dyn:.0f} > plain {plain_dyn:.0f}; hot trace "
          f"DS total {ds_total:.0f} < plain {plain_total:.0f}")


# -- criterion 8: CLI determinism -------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    small = ["--set", "cache.capacity_bytes=65536",
             "--set", "workload.length=20000",
             "--set", "workload.num_pages=64",
             "--set", "pagemap.page_bytes=512",
             "--set", "cnt.seed=5", "--set", "workload.seed=6"]
    runs = {
        "gen-trace": ["gen-trace"] + small,
        "gen-variation": ["gen-variation"] + small,
        "simulate": ["simulate", "--set", "policy=vasa_ds"] + small,
        "compare": ["compare", "--recipe", "way-uca"] + small,
    }
    artifacts = 0
    for name, argv in runs.items():
        outputs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{name}.{attempt}"
            extra = ["--out", str(out)]
            if name == "gen-variation":
                extra += ["--summary", str(out) + ".summary"]
            assert main(argv + extra) == 0
            blob = out.read_bytes()
            if name == "simulate":
                blob += (tmp_path / f"{name}.{attempt}.hist.csv").read_bytes()
            if name == "gen-variation":
                blob += (tmp_path / (f"{name}.{attempt}.summary")).read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"{name} output not reproducible"
        artifacts += 1
    print(f"\nACCEPTANCE 8 PASS: {artifacts} CLI recipes byte-identical "
          f"across repeated runs")
