"""The benchmark's replay child, `perfbench/replay.py`, run against the
package.  Only the replay calls `cli.make_accessor`, `cli.simulate_records`
and the four-argument `cli.build_page_mapping`, so a change that breaks it
would otherwise first fail in the benchmark.  This reads `perfbench/` and
writes only to a temporary directory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cnfetcache import cli, metrics

ROOT = Path(__file__).resolve().parent.parent

SMALL = {"workload.length": 1500, "workload.page_bytes": 512,
         "pagemap.page_bytes": 512, "cnt.seed": 1, "workload.seed": 1}

# One small config for each recipe the benchmark runs.
BENCHMARK_RECIPES = {
    "way-uca": {"cache.capacity_bytes": 65536, "workload.num_pages": 256,
                "workload.zipf": 0.8},
    "way-nuca": {"workload.num_pages": 512, "workload.num_cores": 4},
    "set-uca": {"cache.capacity_bytes": 65536, "workload.num_pages": 256,
                "workload.num_cores": 4, "workload.read_fraction": 0.5,
                "l1.enabled": "true"},
}

# Each page-mapped row's (pm_pages, pm_frames, pm_fast, pm_traffic): the
# profile's pages, the inventory's frames, and the profiled traffic placed on
# minimum-latency-class frames out of all of it.  The replay reads these from
# `profile.counts`, `inventory.frames` and the mapping.
PAGE_MAPPING = {
    "way-uca": {"vawa_ug_pm": (243, 256, 1170, 1500),
                "vawa_ng_pm": (243, 256, 1500, 1500)},
    "way-nuca": {"vawa_ng_pm": (243, 512, 521, 1500),
                 "vawa_ng_upm": (243, 512, 150, 1500)},
    "set-uca": {},
}


@pytest.mark.parametrize("recipe", sorted(BENCHMARK_RECIPES))
def test_oracle_replay_matches_run_sweep(tmp_path, recipe):
    keys = {**SMALL, **BENCHMARK_RECIPES[recipe]}
    config = tmp_path / "bench.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    out = tmp_path / "replay.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/replay.py", "replay", "--oracle",
         "--config", str(config), "--recipe", recipe, "--out", str(out)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert Path(result["module_file"]).is_relative_to(ROOT / "src")

    base = cli.ExperimentConfig.from_keys(cli.parse_config_file(config))
    labelled = cli.recipe_configs(base, recipe)
    outputs = cli.run_sweep([cfg for _, cfg in labelled],
                            cli.load_records(base))
    rows = result["rows"]
    assert [row["label"] for row in rows] == [label for label, _ in labelled]
    for row, output in zip(rows, outputs):
        assert row["oracle_reads"] > 0 and row["oracle_errors"] == 0
        assert row["stats_row"] == dict(zip(metrics.CSV_FIELDS,
                                            output.stats_row()))
    page_mapping = {row["label"]: tuple(row[key] for key in (
        "pm_pages", "pm_frames", "pm_fast", "pm_traffic"))
        for row in rows if row["pm_pages"]}
    assert page_mapping == PAGE_MAPPING[recipe]
