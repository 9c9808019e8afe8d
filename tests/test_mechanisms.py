"""The paper's reasons, as inequalities over hit tables: each optimization
serves frequently used data from fast cells.  Each check runs seeded 30k-
reference workloads on two benchmark configs and pins only the direction
it relies on, not the measured figures, which the comments quote.
"""

import numpy as np
import pytest

from cnfetcache import cli, nuca, pagemap, vasa
from cnfetcache.cli import ExperimentConfig

# The LLC and workload keys of the `way-uca-capacity` and `way-nuca-upm`
# benchmark workloads.
UCA_CAPACITY = {"cache.capacity_bytes": 262144, "cache.ways": 8,
                "workload.num_pages": 2048, "workload.page_bytes": 512,
                "workload.zipf": 0.8, "workload.num_cores": 1,
                "pagemap.page_bytes": 512, "l1.enabled": False}
NUCA_UPM = {"cache.capacity_bytes": 2097152, "cache.ways": 8,
            "workload.num_pages": 4096, "workload.page_bytes": 512,
            "workload.zipf": 1.0, "workload.num_cores": 4,
            "pagemap.page_bytes": 512, "l1.enabled": False}
SEEDS = [1, 2, 3]


def _tables(keys, recipe, labels, seed):
    """{label: (HitTable, latency maps, config)} of the recipe's rows, each
    row's stream translated under its own page mapping."""
    base = ExperimentConfig.from_keys({**keys, "cnt.seed": 1,
                                       "workload.seed": seed,
                                       "workload.length": 30_000})
    configs = dict(cli.recipe_configs(base, recipe))
    records = cli.load_records(base)
    out = {}
    for label in labels:
        cfg = configs[label]
        latmaps = cli.build_latency_maps(cfg)
        machinery = cli.build_machinery(cfg, latmaps)
        llc = records
        if cfg.pm_enabled:
            _, _, mapping = cli.build_page_mapping(cfg, machinery, llc, llc)
            llc = pagemap.translate_trace(llc, mapping, cfg.pm_page_bytes)
        out[label] = (nuca.count_hits(llc, cfg.geometry, cfg.layout_kind,
                                      machinery.banks, cfg.noc),
                      latmaps, cfg)
    return out


def _g0_share(table, latmaps, way_groups):
    """The share of hits in each bank's fastest way group (G0) of data
    shuffling, whether or not the row shuffles."""
    hits = table.counts.reshape(table.shape).sum(axis=(0, 3))  # bank, way
    fast = sum(hits[bank, vasa.WayGroups.from_latency_map(
        latmap, way_groups).groups[0]].sum()
        for bank, latmap in enumerate(latmaps))
    return fast / hits.sum()


def _noc_cycles_per_hit(table, noc):
    hits = table.counts.reshape(table.shape).sum(axis=(2, 3))  # core, bank
    return (hits * np.array([noc[core] for core in range(len(hits))])).sum() \
        / hits.sum()


# The G0 share went 0.551-0.570 -> 0.574-0.582 on `way-uca-capacity` and
# 0.896-0.906 -> 0.980-0.983 on `way-nuca-upm` (seeds 1-3).
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys, recipe", [(UCA_CAPACITY, "set-uca"),
                                          (NUCA_UPM, "set-nuca")],
                         ids=["way-uca-capacity", "way-nuca-upm"])
def test_data_shuffling_moves_hits_into_the_fastest_group(keys, recipe, seed):
    tables = _tables(keys, recipe, ["vasa", "vasa_ds"], seed)
    way_groups = tables["vasa_ds"][2].way_groups
    plain, shuffled = (_g0_share(table, latmaps, way_groups)
                       for table, latmaps, _ in (tables["vasa"],
                                                 tables["vasa_ds"]))
    assert shuffled > plain


# NoC cycles per hit went 4.73-4.77 -> 1.12-1.13 (seeds 1-3).
@pytest.mark.parametrize("seed", SEEDS)
def test_unified_page_mapping_shortens_noc_trips(seed):
    tables = _tables(NUCA_UPM, "way-nuca", ["vawa_ng_pm", "vawa_ng_upm"], seed)
    oblivious, unified = (_noc_cycles_per_hit(table, cfg.noc)
                          for table, _, cfg in (tables["vawa_ng_pm"],
                                                tables["vawa_ng_upm"]))
    assert unified < oblivious
