import csv
import dataclasses
import hashlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cnfetcache
from cnfetcache import cli, metrics, nuca, pagemap, timing, workload
from cnfetcache.cli import (ConfigError, ExperimentConfig, build_latency_maps,
                            main, parse_config_file, recipe_configs,
                            run_experiment, run_sweep)
from cnfetcache.timing import serialize_latency_map
from cnfetcache.workload import TraceRecord, serialize_trace

SMALL_KEYS = {
    "cache.capacity_bytes": 64 * 1024,
    "cache.ways": 8,
    "cache.line_bytes": 64,
    "workload.length": 20_000,
    "workload.num_pages": 64,
    "workload.seed": 5,
    "cnt.seed": 12,
}


def _config(**extra):
    keys = dict(SMALL_KEYS)
    keys.update(extra)
    return ExperimentConfig.from_keys(keys)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# experiment\ncache.ways=8\nlayout=way_aligned\n"
                    "policy=vawa_ng\ngrouping.classes=6,7\nworkload.zipf=1.1\n")
    keys = parse_config_file(path)
    cfg = ExperimentConfig.from_keys(keys)
    assert cfg.num_ways == 8
    assert cfg.policy == "vawa_ng"
    assert cfg.classes == (6, 7)
    assert cfg.wl_zipf == 1.1


def test_config_file_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("cache.ways=8\n# fewer ways\ncache.ways=4\n")
    with pytest.raises(ConfigError, match=r"exp.cfg:3: cache.ways is "
                                          r"already set on line 1"):
        parse_config_file(path)
    # --set still overrides a key the file sets.
    path.write_text("cache.ways=8\n")
    args = cli.build_parser().parse_args([
        "simulate", "--config", str(path), "--set", "cache.ways=4",
        "--out", str(tmp_path / "stats.csv")])
    assert cli._config_from_args(args).num_ways == 4


def test_readme_tables_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [key for key in ExperimentConfig.KEYMAP
            if f"| `{key}` |" not in readme] == []


def test_readme_names_real_code():
    # Every backticked `module.name` in the README, where module is one of
    # the package's modules, is a config key or names an attribute of it.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    readme = re.sub(r"```.*?```", "", readme, flags=re.S)
    modules = {info.name for info in pkgutil.iter_modules(cnfetcache.__path__)}
    stale = []
    for span in re.findall(r"`([^`\n]+)`", readme):
        name = re.match(r"([a-z_]\w*)((?:\.[A-Za-z_]\w*)+)", span)
        if name is None or name[1] not in modules:
            continue
        parts = name[2].split(".")[1:]
        if f"{name[1]}.{parts[0]}" in ExperimentConfig.KEYMAP:
            continue
        target = importlib.import_module(f"cnfetcache.{name[1]}")
        for part in parts:
            target = getattr(target, part, None)
        if target is None:
            stale.append(name[0])
    assert stale == []


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_keys({"cache.wayz": 8})


@pytest.mark.parametrize("keys", [
    {"policy": "vasa", "layout": "way_aligned"},
    {"policy": "vasa_ds", "layout": "way_aligned"},
    {"policy": "vawa_ng", "layout": "set_aligned"},
    {"policy": "vawa_ug", "layout": "set_aligned"},
    {"policy": "baseline", "pagemap.enabled": True},
    {"policy": "vasa", "layout": "set_aligned", "pagemap.enabled": True},
    {"policy": "vawa_ng", "layout": "way_aligned",
     "grouping.classes": "7,6"},
    {"policy": "vawa_ng", "layout": "way_aligned",
     "grouping.classes": "6,10"},
    {"policy": "vawa_ug", "layout": "way_aligned", "grouping.num_groups": 7},
    {"policy": "vasa_ds", "vasa.way_groups": 3},
    {"cache.capacity_bytes": 5000},
    {"layout": "diagonal"},
    {"policy": "belady"},
    {"nuca.enabled": True, "workload.num_cores": 9},
])
def test_inconsistent_configs_rejected(keys):
    with pytest.raises(ConfigError):
        _config(**keys)


@pytest.mark.parametrize("values", [
    {"policy": "nope"},
    {"policy": "vasa_ds", "way_groups": 3},
    {"num_ways": "8"},
    {"classes": (7, 6), "policy": "vawa_ng", "layout": "way_aligned"},
])
def test_a_config_is_checked_when_it_is_made(values):
    # The constructor, and so `dataclasses.replace`, checks every value
    # and every rule between values, as `from_keys` does.
    with pytest.raises(ConfigError):
        ExperimentConfig(**values)
    with pytest.raises(ConfigError):
        dataclasses.replace(_config(), **values)


def test_a_config_cannot_be_changed_once_made():
    cfg = _config(policy="vasa")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.policy = "vawa_ng"
    variant = dataclasses.replace(cfg, policy="vasa_ds")
    assert (cfg.policy, variant.policy) == ("vasa", "vasa_ds")
    assert dataclasses.replace(variant, policy="vasa") == cfg


def test_a_variant_shares_no_mutable_state_with_its_base():
    # Every value of a config is immutable, so a variant made by
    # `dataclasses.replace` cannot change its base, or the base the variant.
    base = _config(policy="vawa_ng", layout="way_aligned")
    variant = dataclasses.replace(base, budget=8)
    for config in (base, variant):
        for spec in dataclasses.fields(config):
            value = getattr(config, spec.name)
            assert isinstance(value, (bool, int, float, str, tuple, type(None))), (
                spec.name, value)
    with pytest.raises(AttributeError):
        base.classes.append(5)
    assert base.classes == variant.classes == (6, 7)
    with pytest.raises(ConfigError, match="must be a tuple of integers"):
        dataclasses.replace(base, classes=[6, 7])


def test_valid_policy_layout_combinations():
    _config(policy="vasa", layout="set_aligned")
    _config(policy="vawa_ng", layout="way_aligned")
    _config(policy="vawa_ug", layout="way_aligned")
    _config(policy="vasa_ds", layout="set_aligned", **{"nuca.enabled": True,
            "workload.num_cores": 4, "pagemap.enabled": True,
            "pagemap.page_bytes": 512})


def test_baseline_and_vasa_same_miss_count():
    base = _config(policy="baseline", layout="set_aligned")
    vasa_cfg = _config(policy="vasa", layout="set_aligned")
    out_a = run_experiment(base)
    out_b = run_experiment(vasa_cfg)
    assert out_a.stats.misses == out_b.stats.misses
    assert out_a.stats.mean_hit_latency >= out_b.stats.mean_hit_latency


def test_shuffling_beats_plain_on_hot_trace():
    # A handful of lines hit over and over: shuffling drags them into the
    # fast ways, plain per-way latency leaves them where they landed.
    hot = [TraceRecord(0, "R", (i % 16) * 64 * 128) for i in range(4000)]
    vasa_cfg = _config(policy="vasa", layout="set_aligned")
    ds_cfg = _config(policy="vasa_ds", layout="set_aligned")
    out_plain = run_sweep([vasa_cfg], list(hot))[0]
    out_ds = run_sweep([ds_cfg], list(hot))[0]
    assert out_ds.stats.mean_hit_latency <= out_plain.stats.mean_hit_latency


def test_nuca_totals_obey_additivity():
    cfg = _config(policy="vawa_ng", layout="way_aligned",
                  **{"nuca.enabled": True, "workload.num_cores": 4,
                     "workload.length": 5000})
    out = run_experiment(cfg)
    assert out.stats.accesses == 5000
    assert any(note.startswith("bank_avg_hit_latency") for note in out.notes)


def test_run_determinism():
    cfg1 = _config(policy="vawa_ng", layout="way_aligned")
    cfg2 = _config(policy="vawa_ng", layout="way_aligned")
    a = run_experiment(cfg1)
    b = run_experiment(cfg2)
    assert a.stats_row() == b.stats_row()


def test_recipes_cover_published_sweeps():
    base = _config()
    way = recipe_configs(base, "way-uca")
    assert [label for label, _ in way] == [
        "baseline", "baseline_pd", "vawa_ug", "vawa_ng", "vawa_ug_pm",
        "vawa_ng_pm"]
    st = recipe_configs(base, "set-uca")
    assert [label for label, _ in st] == ["baseline", "baseline_pd", "vasa",
                                          "vasa_ds"]
    with pytest.raises(ConfigError):
        recipe_configs(base, "no-such")


def test_cli_gen_variation_deterministic(tmp_path):
    out1 = tmp_path / "map1.txt"
    out2 = tmp_path / "map2.txt"
    args = ["gen-variation", "--set", "cnt.seed=3",
            "--set", "cache.capacity_bytes=65536"]
    assert main(args + ["--out", str(out1),
                        "--summary", str(tmp_path / "s1.txt")]) == 0
    assert main(args + ["--out", str(out2),
                        "--summary", str(tmp_path / "s2.txt")]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "s1.txt").read_bytes() == (tmp_path / "s2.txt").read_bytes()


def test_cli_gen_variation_degenerate_sigma(tmp_path):
    out = tmp_path / "map.txt"
    summary = tmp_path / "summary.txt"
    assert main(["gen-variation", "--set", "cnt.sigma=0",
                 "--set", "cnt.p_metallic=0",
                 "--set", "cnt.p_remove_metallic=0",
                 "--set", "cnt.p_remove_semiconducting=0",
                 "--set", "cache.capacity_bytes=65536",
                 "--out", str(out), "--summary", str(summary)]) == 0
    text = summary.read_text()
    assert "min=6" in text and "max=6" in text and "mode=6" in text


def test_cli_simulate_and_compare(tmp_path):
    csv = tmp_path / "stats.csv"
    rc = main(["simulate", "--set", "policy=vasa",
               "--set", "cache.capacity_bytes=65536",
               "--set", "workload.length=5000", "--out", str(csv)])
    assert rc == 0
    text = csv.read_text()
    assert text.startswith(",".join(metrics.CSV_FIELDS))
    assert (tmp_path / "stats.csv.hist.csv").exists()

    cmp_out = tmp_path / "cmp.csv"
    rc = main(["compare", "--recipe", "set-uca",
               "--set", "cache.capacity_bytes=65536",
               "--set", "workload.length=5000", "--out", str(cmp_out)])
    assert rc == 0
    lines = cmp_out.read_text().strip().split("\n")
    assert len(lines) == 5
    baseline = lines[1].split(",")
    assert baseline[0] == "baseline"
    assert float(baseline[-3]) == 1.0     # self-ratio


def test_csv_cells_holding_a_comma_keep_their_column(tmp_path):
    # A trace path or a config file name with a comma is one quoted cell,
    # so each row is as wide as its header.
    trace = tmp_path / "a,b.txt"
    assert main(["gen-trace", "--set", "workload.length=500",
                 "--out", str(trace)]) == 0
    stats = tmp_path / "stats.csv"
    assert main(["simulate", "--set", f"workload.trace={trace}",
                 "--set", "cache.capacity_bytes=65536",
                 "--out", str(stats)]) == 0
    header, row = csv.reader(stats.read_text().splitlines())
    assert len(row) == len(header) == len(metrics.CSV_FIELDS)
    assert row[header.index("workload")] == str(trace)

    configs = [tmp_path / "x,1.cfg", tmp_path / "y.cfg"]
    for path, policy in zip(configs, ("baseline", "vasa")):
        path.write_text(f"policy={policy}\nworkload.trace={trace}\n"
                        f"cache.capacity_bytes=65536\n")
    out = tmp_path / "cmp.csv"
    assert main(["compare", *map(str, configs), "--out", str(out)]) == 0
    header, *rows = csv.reader(out.read_text().splitlines())
    assert [len(row) for row in rows] == [len(header)] * 2
    assert [row[0] for row in rows] == list(map(str, configs))


def test_csv_cells_holding_a_carriage_return_keep_their_row(tmp_path):
    # A trace path with a carriage return is one quoted cell that reads
    # back whole, and the header, which has none, is written as before.
    trace = tmp_path / "a\rb.txt"
    assert main(["gen-trace", "--set", "workload.length=500",
                 "--out", str(trace)]) == 0
    stats = tmp_path / "stats.csv"
    assert main(["simulate", "--set", f"workload.trace={trace}",
                 "--set", "cache.capacity_bytes=65536",
                 "--out", str(stats)]) == 0
    with open(stats, newline="") as fh:
        text = fh.read()
    header, row = csv.reader(io.StringIO(text, newline=""))
    assert text.startswith(",".join(metrics.CSV_FIELDS) + "\n")
    assert len(row) == len(header)
    assert row[header.index("workload")] == str(trace)


def test_cli_error_paths(tmp_path):
    assert main(["simulate", "--set", "policy=vasa",
                 "--set", "layout=way_aligned",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["compare", "--out", str(tmp_path / "y.csv")]) == 1


def test_cli_gen_trace_and_profile(tmp_path):
    trace = tmp_path / "trace.txt"
    rc = main(["gen-trace", "--set", "workload.length=100",
               "--set", "workload.num_pages=8", "--out", str(trace)])
    assert rc == 0
    lines = trace.read_text().strip().split("\n")
    assert len(lines) == 100
    prof = tmp_path / "prof.csv"
    rc = main(["profile", "--set", f"workload.trace={trace}",
               "--out", str(prof)])
    assert rc == 0
    assert prof.read_text().count("\n") <= 8


def test_compare_rejects_mismatched_workloads(tmp_path, capsys):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    small = "workload.length=3000\ncache.capacity_bytes=65536\n"
    # The line size is an input of the synthetic generator too.
    for text_a, text_b in [
            ("policy=baseline\nworkload.seed=1\n",
             "policy=vasa\nworkload.seed=2\n"),
            (small, small + "cache.line_bytes=32\n")]:
        a.write_text(text_a)
        b.write_text(text_b)
        assert main(["compare", str(a), str(b)]) == 1
        assert "uses a different workload" in capsys.readouterr().err


def test_compare_rejects_arguments_it_would_ignore(tmp_path, capsys):
    base = tmp_path / "base.cfg"
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    base.write_text("workload.length=3000\ncache.capacity_bytes=65536\n")
    a.write_text("workload.length=2000\ncache.capacity_bytes=65536\n")
    b.write_text(a.read_text() + "policy=vasa\n")
    # A recipe ignores config files; config files ignore --config.
    for argv, ignored in [
            (["--recipe", "set-uca", "--config", str(base), str(a), str(b)],
             str(a)),
            (["--config", str(base), str(a), str(b)], str(base))]:
        assert main(["compare"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ignored in err


def test_compare_checks_trace_cores_against_the_mesh(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("0 R D 0x1000\n5 R D 0x2000\n5 R D 0x1000\n")
    uca = tmp_path / "u.cfg"
    mesh = tmp_path / "n.cfg"
    uca.write_text(f"workload.trace={trace}\ncache.capacity_bytes=65536\n")
    mesh.write_text(uca.read_text() + "nuca.enabled=true\n")
    for configs in ([uca, mesh], [mesh, uca]):
        assert main(["compare"] + [str(path) for path in configs]) == 1
        assert capsys.readouterr().err == \
            "error: trace line 2: core 5 out of range (num_cores=4)\n"


@pytest.mark.parametrize("data, message", [
    (b"0 R D 0x40\n1 R D 0x\xff0\n", "trace line 2: not UTF-8 text"),
    (b"# caf\xe9\n0 R D 0x40\n", "trace line 1: not UTF-8 text"),
    (b"0 X D 0x40\n1 R D \xff\n", "trace line 1: bad op 'X'"),
    (b"0 R D 0x40\n" * 7000 + b"\xff\n", "trace line 7001: not UTF-8 text"),
    (b"0 R D 0x40\n1 R D 0x8\n7 W D 0x4\n",
     "trace line 3: core 7 out of range (num_cores=4)"),
], ids=["byte-0xff", "comment-latin-1", "bad-op-first", "second-chunk",
        "core-beyond-mesh"])
def test_simulate_rejects_malformed_trace(tmp_path, capsys, data, message):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(data)
    argv = ["simulate", "--set", f"workload.trace={trace}",
            "--set", "nuca.enabled=true", "--set", "cache.capacity_bytes=65536",
            "--out", str(tmp_path / "stats.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _map_file(tmp_path, *extra):
    """A gen-variation map of a 64 KB cache, then the `extra` byte lines."""
    path = tmp_path / "map.txt"
    assert main(["gen-variation", "--set", "cache.capacity_bytes=65536",
                 "--out", str(path), "--summary", str(tmp_path / "s.txt")]) == 0
    path.write_bytes(path.read_bytes() + b"".join(extra))
    return path


def test_config_and_map_files_reject_bytes_that_are_not_utf8(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_bytes(b"cache.ways=8\n# caf\xe9\n")
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {config}:2: not UTF-8 text\n"
    map_path = _map_file(tmp_path, b"# caf\xe9\n")
    lines = map_path.read_bytes().count(b"\n")
    argv = ["simulate", "--set", "cache.capacity_bytes=65536",
            "--set", f"timing.map_file={map_path}", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: line {lines}: not UTF-8 text\n"


def test_config_and_map_files_are_utf8_in_any_locale(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_bytes("# café\ncache.capacity_bytes=65536\n"
                       "workload.length=500\n".encode())
    map_path = _map_file(tmp_path, "# café\n".encode())
    # An ASCII locale, not coerced to UTF-8: open() would default to ASCII.
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-m", "cnfetcache.cli", "simulate", "--config",
         str(config), "--set", f"timing.map_file={map_path}",
         "--out", str(tmp_path / "s.csv")],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_simulate_accepts_pregenerated_map(tmp_path):
    map_path = tmp_path / "map.txt"
    argv = ["--set", "cache.capacity_bytes=65536", "--set", "cnt.seed=4"]
    assert main(["gen-variation"] + argv + ["--out", str(map_path),
                 "--summary", str(tmp_path / "s.txt")]) == 0
    out = tmp_path / "stats.csv"
    assert main(["simulate", "--set", "policy=vasa"] + argv +
                ["--set", f"timing.map_file={map_path}",
                 "--set", "workload.length=2000", "--out", str(out)]) == 0
    # Inline generation with the same seed produces the identical report.
    out2 = tmp_path / "stats2.csv"
    assert main(["simulate", "--set", "policy=vasa"] + argv +
                ["--set", "workload.length=2000", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    # Layout mismatch is rejected.
    assert main(["simulate", "--set", "policy=vawa_ng",
                 "--set", "layout=way_aligned"] + argv +
                ["--set", f"timing.map_file={map_path}",
                 "--out", str(tmp_path / "z.csv")]) == 1


def _header_without_num_ways(text):
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("num_ways=")) + "\n"


def _header_for_1mb_128way(text):
    return (text.replace("capacity_bytes=65536", "capacity_bytes=1048576")
                .replace("num_ways=8", "num_ways=128"))


def _repeated_index_3(text):
    return text + "3,10\n"


def _non_integer_cycles(text):
    return text + "4,x\n"


def _min_cycles_abc(text):
    return text.replace("min_cycles=6", "min_cycles=abc")


def _layout_diag(text):
    return text.replace("layout=way_aligned", "layout=diag")


def _repeated_max_cycles(text):
    return text + "max_cycles=10\n"


def _misspelt_max_cycles(text):
    return text + "max_cycle=9\n"


def _cycles_20_to_25(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("min_cycles="):
            line = "min_cycles=20"
        elif line.startswith("max_cycles="):
            line = "max_cycles=25"
        elif "," in line:
            index, cycles = line.split(",")
            line = f"{index},{int(cycles) + 14}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt, message", [
    (_header_without_num_ways, "lacks num_ways"),
    (_header_for_1mb_128way, "geometry"),
    (_cycles_20_to_25, "cycle range 20..25"),
    (_repeated_index_3, "line 135: group index 3 is repeated"),
    (_non_integer_cycles, "line 135: expected `index,cycles` integers"),
    (_min_cycles_abc, "line 5: min_cycles=abc is not an integer"),
    (_layout_diag, "line 1: layout=diag is not one of set_aligned, "
                   "way_aligned"),
    (_repeated_max_cycles, "line 135: header key max_cycles is repeated"),
    (_misspelt_max_cycles, "line 135: unknown header key max_cycle"),
])
def test_simulate_rejects_bad_map_file(tmp_path, capsys, corrupt, message):
    # Way aligned 64 KB 8-way: 128 sets, so a 1 MB 128-way header has the
    # same group count and only the geometry check can catch it.
    argv = ["--set", "cache.capacity_bytes=65536", "--set", "cnt.seed=4",
            "--set", "layout=way_aligned", "--set", "policy=vawa_ng"]
    good = tmp_path / "map.txt"
    assert main(["gen-variation"] + argv + ["--out", str(good),
                 "--summary", str(tmp_path / "s.txt")]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(corrupt(good.read_text()))
    capsys.readouterr()
    assert main(["simulate"] + argv +
                ["--set", f"timing.map_file={bad}",
                 "--set", "workload.length=2000",
                 "--out", str(tmp_path / "stats.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "stats.csv").exists()


@pytest.mark.parametrize("policy", ["vasa", "vasa_ds"])
def test_vasa_rejects_cycles_beyond_delay_register(tmp_path, capsys, policy):
    # A 4-bit delay register holds 0..15: a 14..24 cycle range would charge
    # way latencies the register cannot time.
    out = tmp_path / "stats.csv"
    assert main(["simulate", "--set", f"policy={policy}",
                 "--set", "layout=set_aligned",
                 "--set", "timing.min_cycles=14",
                 "--set", "timing.max_cycles=24",
                 "--set", "cache.capacity_bytes=65536",
                 "--set", "cnt.seed=3", "--set", "workload.length=3000",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delay register" in err
    assert not out.exists()
    # The default 6..12 range fits.
    _config(policy=policy, layout="set_aligned")


def test_compare_rejects_bare_set_key(tmp_path, capsys):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("policy=baseline\n")
    b.write_text("policy=vasa\n")
    assert main(["compare", str(a), str(b),
                 "--set", "workload.length"]) == 1
    assert capsys.readouterr().err == \
        "error: --set expects key=value, got 'workload.length'\n"


@pytest.mark.parametrize("sets", [
    ["policy=vasa_ds", "vasa.way_groups=0"],
    ["policy=vawa_ug", "layout=way_aligned", "grouping.num_groups=0"],
    ["nuca.enabled=true", "nuca.rows=0"],
    ["cache.ways=abc"],
    ["cache.line_bytes=3.5"],
    ["workload.page_bytes=32"],
    ["workload.page_bytes=96"],
    ["cnt.mu=0"],
    ["cnt.p_metallic=2"],
    ["workload.zipf=-1"],
    ["workload.read_fraction=1.5"],
    ["energy.e_read=-1"],
    ["layout=way_aligned", "policy=vawa_ug", "pagemap.enabled=true",
     "pagemap.page_bytes=192"],
    ["cache.ways=3"],
    ["timing.min_cycles=0"],
    ["layout=way_aligned", "policy=vawa_ng", "grouping.granularity=3"],
    ["nuca.enabled=true", "nuca.rows=3"],
], ids=["way_groups=0", "num_groups=0", "nuca.rows=0", "ways=abc",
        "line_bytes=3.5", "page_bytes=32", "page_bytes=96", "mu=0",
        "p_metallic=2", "zipf=-1", "read_fraction=1.5", "e_read=-1",
        "pagemap.page_bytes=192", "ways=3", "min_cycles=0", "granularity=3",
        "nuca.rows=3"])
def test_simulate_rejects_malformed_config(tmp_path, capsys, sets):
    argv = ["simulate", "--set", "workload.length=200"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv + ["--out", str(tmp_path / "stats.csv")]) == 1
    err = capsys.readouterr().err
    # The error names the offending key, not an internal failure.
    assert err.startswith("error: ") and sets[-1].split("=")[0] in err


def _count_l1_filter(monkeypatch):
    calls = []
    real = workload.l1_filter

    def counting(records, config):
        calls.append(len(records))
        return real(records, config)

    monkeypatch.setattr(workload, "l1_filter", counting)
    return calls


def _compare_csv(tmp_path, name, argv):
    out = tmp_path / name
    assert main(["compare"] + argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def _rows_on_their_own(monkeypatch):
    """Make compare run every row in a sweep of its own, so each row filters
    its own copy of the raw records and makes its own pass."""
    real = cli.run_sweep
    monkeypatch.setattr(cli, "run_sweep", lambda configs, records: [
        real([cfg], list(records))[0] for cfg in configs])


def test_compare_filters_the_trace_once(tmp_path, monkeypatch):
    argv = ["--recipe", "set-uca", "--set", "l1.enabled=true",
            "--set", "cache.capacity_bytes=65536",
            "--set", "workload.length=4000", "--set", "workload.num_cores=2"]
    calls = _count_l1_filter(monkeypatch)
    shared = _compare_csv(tmp_path, "shared.csv", argv)
    assert calls == [4000]
    _rows_on_their_own(monkeypatch)
    calls.clear()
    assert _compare_csv(tmp_path, "alone.csv", argv) == shared
    assert len(calls) == 4            # each row filters its own copy


def test_compare_gives_each_l1_setting_its_own_stream(tmp_path, monkeypatch):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    common = "cache.capacity_bytes=65536\nworkload.length=4000\n"
    a.write_text(common + "l1.enabled=false\n")
    b.write_text(common + "l1.enabled=true\n")
    calls = _count_l1_filter(monkeypatch)
    shared = _compare_csv(tmp_path, "shared.csv", [str(a), str(b)])
    assert len(calls) == 1
    _rows_on_their_own(monkeypatch)
    assert _compare_csv(tmp_path, "alone.csv", [str(a), str(b)]) == shared
    rows = [line.split(",") for line in shared.decode().splitlines()[1:]]
    assert rows[0][5] != rows[1][5]          # miss rates of the two streams


def test_sweep_releases_the_heap_once_its_streams_are_built(tmp_path,
                                                           monkeypatch):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    common = "cache.capacity_bytes=65536\nworkload.length=2000\n"
    a.write_text(common + "l1.enabled=false\n")
    b.write_text(common + "l1.enabled=true\nlayout=way_aligned\n")
    calls = _counting(monkeypatch, cli, "llc_records", "release_free_heap",
                      "build_latency_maps")
    _compare_csv(tmp_path, "out.csv", [str(a), str(b)])
    assert calls == ["llc_records", "llc_records", "release_free_heap",
                     "build_latency_maps", "build_latency_maps"]


def _rss_anon_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("RssAnon:"))


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="needs /proc/self/status")
def test_release_free_heap_returns_freed_blocks_below_a_live_one():
    import ctypes
    if getattr(ctypes.CDLL(None), "malloc_trim", None) is None:
        pytest.skip("libc has no malloc_trim")
    # 64 KiB blocks come from the heap, not from mmap; the live block
    # allocated after them keeps free() from trimming the heap's top.
    blocks = [bytearray(64 << 10) for _ in range(256)]
    pin = bytearray(64 << 10)
    del blocks
    before = _rss_anon_kb()
    cli.release_free_heap()
    assert before - _rss_anon_kb() > 8 << 10
    del pin


def _counting(monkeypatch, module, *names):
    """Patch each named function of `module` to log its name on each call;
    returns the log."""
    calls = []

    def counting(name):
        real = getattr(module, name)

        def run(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return run

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


@pytest.mark.parametrize("recipe, passes, shuffling", [
    ("way-uca", 3, 0), ("set-uca", 2, 1), ("way-nuca", 3, 0),
    ("set-nuca", 3, 2)])
def test_compare_makes_one_pass_per_stream(tmp_path, monkeypatch, recipe,
                                           passes, shuffling):
    # Rows without page mapping or data shuffling share one LRU pass; each
    # mapped row translates its own stream and each shuffling row runs its
    # own engine.  Pricing every row from a shared pass gives the CSV that
    # giving each row a pass of its own gives.
    argv = ["--recipe", recipe, "--set", "cache.capacity_bytes=65536",
            "--set", "workload.length=3000", "--set", "workload.num_pages=256",
            "--set", "workload.page_bytes=512", "--set", "pagemap.page_bytes=512",
            "--set", "workload.num_cores=4", "--set", "workload.zipf=0.8"]
    count_hits = nuca.count_hits
    calls = []

    def counting(records, geometry, layout, policies, *args):
        calls.append(any(p.shuffle is not None for p in policies))
        return count_hits(records, geometry, layout, policies, *args)

    monkeypatch.setattr(nuca, "count_hits", counting)
    shared = _compare_csv(tmp_path, "shared.csv", argv)
    assert (len(calls), sum(calls)) == (passes, shuffling)
    _rows_on_their_own(monkeypatch)
    calls.clear()
    assert _compare_csv(tmp_path, "alone.csv", argv) == shared
    assert len(calls) == len(cli.RECIPES[recipe])


@pytest.mark.parametrize("sets", [
    ["cache.capacity_bytes=65536", "cnt.seed=7",
     "timing.map_file=no-such-map.txt"],
    ["layout=way_aligned", "nuca.enabled=true", "cnt.seed=7"],
    ["cache.capacity_bytes=65536", "timing.nominal_count=8"],
], ids=["uca-ignores-map-file", "nuca", "nominal-count"])
def test_gen_variation_writes_bank_zero_of_the_simulated_maps(tmp_path, sets):
    out = tmp_path / "map.txt"
    argv = ["gen-variation"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv + ["--out", str(out),
                        "--summary", str(tmp_path / "s.txt")]) == 0
    keys = dict(item.split("=") for item in sets
                if not item.startswith("timing.map_file"))
    cfg = ExperimentConfig.from_keys(
        {k: cli._parse_value(v) for k, v in keys.items()})
    assert out.read_text() == serialize_latency_map(build_latency_maps(cfg)[0])


@pytest.mark.parametrize("sets, golden", [
    (["cnt.seed=3", "cache.capacity_bytes=65536"],
     "groups=8\nmin=6\nmax=7\nmode=6\nfailed=0\nnominal_count=7\n"
     "quantized_spread=1.1667\nprequant_spread=1.6667\nhistogram:\n"
     "6,6\n7,2\n"),
    (["cnt.seed=5", "cnt.mu=3", "cnt.sigma=1.5", "layout=way_aligned",
      "cache.capacity_bytes=16384"],
     "groups=32\nmin=6\nmax=10\nmode=6\nfailed=2\nnominal_count=2\n"
     "quantized_spread=1.6667\nprequant_spread=5.0000\nhistogram:\n"
     "6,21\n10,11\n"),
], ids=["seed3-64k", "failed-groups"])
def test_gen_variation_summary_is_unchanged(tmp_path, monkeypatch, sets,
                                           golden):
    argv = ["gen-variation"]
    for item in sets:
        argv += ["--set", item]
    summary = tmp_path / "s.txt"
    calls = _counting(monkeypatch, timing, "calibrate_nominal_count")
    assert main(argv + ["--out", str(tmp_path / "map.txt"),
                        "--summary", str(summary)]) == 0
    assert summary.read_text() == golden
    assert len(calls) == 1


def test_cli_profile_behind_l1_filter(tmp_path):
    # The same line over and over: exactly one LLC-bound access.
    trace = tmp_path / "trace.txt"
    trace.write_text(serialize_trace([TraceRecord(0, "R", 0x7000)] * 100))
    prof = tmp_path / "prof.csv"
    assert main(["profile", "--set", f"workload.trace={trace}",
                 "--set", "l1.enabled=true", "--out", str(prof)]) == 0
    assert prof.read_text() == "7,1,0:1\n"


def test_cli_profile_honours_count_raw(tmp_path, monkeypatch):
    # Behind the L1 the LLC sees one access; the raw stream has 100, and
    # profiling it needs no filtered stream.
    trace = tmp_path / "trace.txt"
    trace.write_text(serialize_trace([TraceRecord(0, "R", 0x7000)] * 100))
    prof = tmp_path / "prof.csv"
    calls = _counting(monkeypatch, workload, "l1_filter")
    assert main(["profile", "--set", f"workload.trace={trace}",
                 "--set", "l1.enabled=true", "--set", "pagemap.count_raw=true",
                 "--out", str(prof)]) == 0
    assert prof.read_text() == "7,100,0:100\n"
    assert calls == []


WAY_UCA = ["--recipe", "way-uca", "--set", "cache.capacity_bytes=65536",
           "--set", "workload.length=3000", "--set", "workload.page_bytes=512",
           "--set", "pagemap.page_bytes=512"]


def test_compare_profiles_each_stream_once(tmp_path, monkeypatch):
    # The two page-mapped rows of way-uca share the LLC stream and the
    # page size, so they share one profile.
    calls = _counting(monkeypatch, pagemap, "profile_trace")
    shared = _compare_csv(tmp_path, "shared.csv", WAY_UCA)
    assert len(calls) == 1
    _rows_on_their_own(monkeypatch)
    assert _compare_csv(tmp_path, "alone.csv", WAY_UCA) == shared
    assert len(calls) == 3


WAY_NUCA = ["--recipe", "way-nuca", "--set", "workload.length=2000",
            "--set", "workload.num_cores=4"]


@pytest.mark.parametrize("argv", [WAY_UCA, WAY_NUCA],
                         ids=["way-uca", "way-nuca"])
def test_compare_translates_each_mapped_stream_just_before_its_pass(
        tmp_path, monkeypatch, argv):
    # The shared LRU pass runs first; then each page-mapped row translates
    # its stream and hands that stream straight to its own pass, so only
    # one translated stream is alive at a time.
    translate_trace, count_hits = pagemap.translate_trace, nuca.count_hits
    calls = []

    def translating(*args):
        calls.append(("translate", translate_trace(*args)))
        return calls[-1][1]

    def counting(records, *args):
        calls.append(("count", records))
        return count_hits(records, *args)

    monkeypatch.setattr(pagemap, "translate_trace", translating)
    monkeypatch.setattr(nuca, "count_hits", counting)
    _compare_csv(tmp_path, "out.csv", argv)
    assert [name for name, _ in calls] == [
        "count", "translate", "count", "translate", "count"]
    assert calls[2][1] is calls[1][1] and calls[4][1] is calls[3][1]


@pytest.mark.parametrize("argv, banks", [(WAY_UCA, 1), (WAY_NUCA, 8)],
                         ids=["way-uca", "way-nuca"])
def test_compare_samples_latency_maps_once(tmp_path, monkeypatch, argv,
                                           banks):
    # Every row of a recipe reads the same map inputs, so one set of
    # maps serves them all; a row on its own samples its own.
    calls = _counting(monkeypatch, timing, "build_latency_map")
    shared = _compare_csv(tmp_path, "shared.csv", argv)
    assert len(calls) == banks
    _rows_on_their_own(monkeypatch)
    calls.clear()
    assert _compare_csv(tmp_path, "alone.csv", argv) == shared
    assert len(calls) == banks * len(cli.RECIPES[argv[1]])


@pytest.mark.parametrize("key, value", [
    ("cnt.seed", 13), ("cnt.sigma", 1.5), ("timing.max_cycles", 12)])
def test_sweep_keeps_rows_with_different_latency_inputs_apart(key, value):
    # Two rows that differ in one input of the latency maps get maps of
    # their own in a sweep: each row is what it is when run alone.
    configs = [_config(policy="vawa_ug", layout="way_aligned"),
               _config(policy="vawa_ug", layout="way_aligned", **{key: value})]
    swept = run_sweep(configs, cli.load_records(configs[0]))
    alone = [run_experiment(cfg) for cfg in configs]
    assert [out.stats_row() for out in swept] == \
        [out.stats_row() for out in alone]
    assert swept[0].stats_row() != swept[1].stats_row()


def test_set_aligned_page_mapping_charges_each_bank_its_mean_way_latency():
    cfg = _config(policy="vasa_ds", layout="set_aligned",
                  **{"nuca.enabled": True, "workload.num_cores": 4,
                     "workload.length": 2000, "pagemap.enabled": True,
                     "pagemap.page_bytes": 512})
    latmaps = build_latency_maps(cfg)
    records = cli.load_records(cfg)
    _, inventory, _ = cli.build_page_mapping(
        cfg, cli.build_machinery(cfg, latmaps), records, records)
    means = [sum(lm.latencies) / len(lm.latencies) for lm in latmaps]
    assert max(means) > min(means)
    assert all(frame.latency_class == means[frame.bank]
               for frame in inventory.frames)


@pytest.mark.parametrize("sets, sha256", [
    (["workload.length=3000", "workload.num_cores=2", "workload.seed=5"],
     "49f928959ae10ed5c0b9ac8e5ea52d36261a9348ba868b074758b1ce2a1678cc"),
    (["workload.length=3000", "workload.num_cores=4",
      "workload.instr_stream=true", "workload.seed=7"],
     "92bc5131ca9ab2dd0ed5fe0d77498e6133a3711a7278ea3b76a86900a5ce0f0a"),
], ids=["data", "instr-stream"])
def test_gen_trace_bytes_are_pinned(tmp_path, sets, sha256):
    out = tmp_path / "trace.txt"
    argv = ["gen-trace"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# The benchmark's synthetic workloads at seed 1 and their compare CSV
# fingerprints, as perfbench/README.md lists them.
BENCHMARK_CSVS = {
    "way-uca": ({"cache.capacity_bytes": 262144, "workload.num_pages": 2048,
                 "workload.zipf": 0.8, "workload.num_cores": 1,
                 "workload.length": 30000},
                "6fbb9ad24238c8d2a4c413a078279b60edee3a559f1132129c423192b620eefb"),
    "way-nuca": ({"cache.capacity_bytes": 2097152, "workload.num_pages": 4096,
                  "workload.zipf": 1.0, "workload.num_cores": 4,
                  "workload.length": 10000},
                 "f4d7c2eeb4122bc26e5a831b1cc8521cbee9c73ac05b2be2880a29f1b1904719"),
}


@pytest.mark.parametrize("recipe", sorted(BENCHMARK_CSVS))
def test_benchmark_compare_csvs_are_pinned(tmp_path, recipe):
    keys, sha256 = BENCHMARK_CSVS[recipe]
    keys = {**keys, "cache.ways": 8, "workload.page_bytes": 512,
            "pagemap.page_bytes": 512, "l1.enabled": "false", "cnt.seed": 1,
            "workload.seed": 1}
    argv = ["--recipe", recipe]
    for key, value in keys.items():
        argv += ["--set", f"{key}={value}"]
    csv = _compare_csv(tmp_path, "bench.csv", argv)
    assert hashlib.sha256(csv).hexdigest() == sha256


def test_sweep_keeps_the_raw_records_for_a_row_that_profiles_them():
    # A sweep drops the raw records once its LLC streams are built, unless
    # a row profiles the raw stream: that row then maps pages from the
    # raw records, as it does when run alone.
    base = _config(**{"l1.enabled": True, "workload.num_cores": 2,
                      "workload.num_pages": 512, "workload.page_bytes": 512,
                      "pagemap.page_bytes": 512})
    configs = [cfg for _, cfg in recipe_configs(base, "way-uca")]
    raw = dataclasses.replace(configs[-1], pm_count_raw=True)
    swept = run_sweep(configs + [raw], cli.load_records(base))
    alone = run_experiment(raw)
    assert (swept[-1].stats_row(), swept[-1].notes) == \
        (alone.stats_row(), alone.notes)
    assert swept[-1].stats_row() != swept[-2].stats_row()


@pytest.mark.parametrize("recipe, l1, bound", [
    ("way-nuca", False, 58), ("set-uca", False, 27), ("set-uca", True, 64)],
    ids=["way-nuca", "set-uca", "set-uca-l1"])
def test_sweep_peak_memory_per_reference(recipe, l1, bound):
    # The tracemalloc peak of a 100k-reference sweep.  Without the L1 the
    # records are loaded beforehand and held; with it they are loaded
    # under the trace and handed over, so the sweep's release of the raw
    # columns shows.  Measured at 52.8 (way-nuca), 24.8 (set-uca) and 59.0
    # (set-uca with the L1) bytes per reference when these bounds were
    # set; a bound may only get tighter.
    base = ExperimentConfig.from_keys({
        "cache.capacity_bytes": 256 * 1024, "workload.length": 100_000,
        "workload.num_cores": 4, "workload.num_pages": 4096,
        "workload.page_bytes": 512, "pagemap.page_bytes": 512,
        "grouping.num_groups": 16, "workload.seed": 1, "l1.enabled": l1})
    records = None if l1 else cli.load_records(base)
    configs = [cfg for _, cfg in recipe_configs(base, recipe)]
    tracemalloc.start()
    try:
        if l1:
            run_sweep(configs, cli.load_records(base))
        else:
            run_sweep(configs, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / base.wl_length <= bound
