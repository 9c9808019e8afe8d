"""Benchmark of the cnfetcache CLI: host time of `compare --recipe` sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  Each workload is one recipe on one
config.  With `--trace 0` the benchmark times `python -m cnfetcache.cli
compare` children one after another, interleaved with set-up children and
with calibrate.py, until `--seconds` is spent.  It reports medians of the
end-to-end metrics, with each time scaled by the calibration runs around
it.  With `--trace 1` it alternates those compare children with traced
replays (perfbench/replay.py) and reports per-layer metrics in plain host
seconds.  Every run also makes one untimed oracle replay that every compare
CSV is checked against.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A fuller record with the run's
metadata, samples, fingerprints and spans goes to
`.perfbench/results/<workload>-seed<N>-trace<T>.json`.
"""

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# Every seed runs on the same sampled chip: --seed varies the workload only.
CNT_SEED = 1
CHILD_TIMEOUT_S = 150
MIN_REPS = 3
SETUPS_PER_REP = 2
SMOKE_LENGTH = 1500
# The host's speed drifts by up to 2x over minutes when other tenants load
# it.  End-to-end times are therefore scaled to a host on which
# calibrate.py, run just before and after each timed child, takes this long
# (this 2-vCPU machine when lightly loaded).
CALIBRATION_S = 0.3

# Rows of the recipes the workloads use, in `cli.RECIPES` order.  The gate
# counts one operation per row, so a row that goes missing fails.
RECIPE_ROWS = {
    "way-uca": ("baseline", "baseline_pd", "vawa_ug", "vawa_ng", "vawa_ug_pm",
                "vawa_ng_pm"),
    "way-nuca": ("baseline", "vawa_ng", "vawa_ng_pm", "vawa_ng_upm"),
    "set-uca": ("baseline", "baseline_pd", "vasa", "vasa_ds"),
}


@dataclass(frozen=True)
class TraceSpec:
    """A trace file the benchmark writes from its seed before timing."""

    num_pages: int
    page_bytes: int
    zipf: float
    num_cores: int
    read_fraction: float
    core_affinity: float = 0.75
    line_bytes: int = 64


@dataclass(frozen=True)
class Workload:
    recipe: str
    length: int
    keys: dict
    trace: TraceSpec = None
    why: str = ""


WORKLOADS = {
    "way-uca-capacity": Workload(
        recipe="way-uca", length=30_000,
        keys={"cache.capacity_bytes": 262144, "cache.ways": 8,
              "workload.num_pages": 2048, "workload.page_bytes": 512,
              "workload.zipf": 0.8, "workload.num_cores": 1,
              "pagemap.page_bytes": 512, "l1.enabled": False},
        why="1 MB footprint on a 256 KB LLC: per-access engine rows dominate"),
    "way-nuca-upm": Workload(
        recipe="way-nuca", length=10_000,
        keys={"cache.capacity_bytes": 2097152, "cache.ways": 8,
              "workload.num_pages": 4096, "workload.page_bytes": 512,
              "workload.zipf": 1.0, "workload.num_cores": 4,
              "pagemap.page_bytes": 512, "l1.enabled": False},
        why="8-bank NUCA with UPM: O(pages x frames) page mapping dominates"),
    "trace-l1-mixed": Workload(
        recipe="set-uca", length=80_000,
        keys={"cache.capacity_bytes": 262144, "cache.ways": 8,
              "l1.enabled": True},
        trace=TraceSpec(num_pages=1024, page_bytes=512, zipf=1.5,
                        num_cores=4, read_fraction=0.5),
        why="parsed trace behind per-core L1s: parse and L1 filter dominate"),
}

END_TO_END_UNITS = {"wall_s": "s", "acc_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
CSV_VALUES = ("mean_hit_latency", "amat", "miss_rate", "total_energy")
CSV_RATIOS = ("hit_latency_ratio", "amat_ratio", "energy_ratio")


def row_module(recipe, label):
    """Layer that serves a recipe row's accesses."""
    if recipe.endswith("nuca"):
        return "nuca"
    if label.startswith("baseline"):
        return "cache_core"
    return label.split("_")[0]


def per_layer_units():
    units = {
        "cli.import_s": "s", "cli.make_accessor_s": "s", "cli.other_s": "s",
        "trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
        "workload.load_s": "s", "workload.records": "count",
        "workload.l1_filter_s": "s", "workload.l1_calls": "count",
        "workload.l1_pass_ratio": "ratio",
        "timing.latency_maps_s": "s", "timing.groups": "count",
        "grouping.build_s": "s",
        "pagemap.build_s": "s", "pagemap.pages": "count",
        "pagemap.frames": "count", "pagemap.fast_share": "ratio",
    }
    for recipe, labels in RECIPE_ROWS.items():
        for label in labels:
            prefix = f"{row_module(recipe, label)}.{label}"
            units.update({f"{prefix}.s": "s", f"{prefix}.ns_per_acc": "ns",
                          f"{prefix}.accesses": "count",
                          f"{prefix}.miss_rate": "ratio"})
    units["vasa.vasa_ds.shuffle_moves"] = "count"
    return units


PER_LAYER_UNITS = per_layer_units()


# -- inputs ---------------------------------------------------------------


def write_trace(path, spec, length, seed):
    """Zipf page popularity, uniform lines, per-core page affinity."""
    rng = random.Random(seed)
    cum = list(itertools.accumulate((rank + 1) ** -spec.zipf
                                    for rank in range(spec.num_pages)))
    pages = rng.choices(range(spec.num_pages), cum_weights=cum, k=length)
    lines_per_page = spec.page_bytes // spec.line_bytes
    with open(path, "w") as fh:
        for page in pages:
            if rng.random() < spec.core_affinity:
                core = page % spec.num_cores
            else:
                core = rng.randrange(spec.num_cores)
            op = "R" if rng.random() < spec.read_fraction else "W"
            vaddr = (page * spec.page_bytes
                     + rng.randrange(lines_per_page) * spec.line_bytes)
            fh.write(f"{core} {op} D 0x{vaddr:x}\n")


def config_keys(workload, seed, length, trace_path):
    keys = dict(workload.keys)
    keys["cnt.seed"] = CNT_SEED
    if trace_path is None:
        keys["workload.seed"] = seed
        keys["workload.length"] = length
    else:
        keys["workload.trace"] = str(trace_path)
    return keys


# -- children -------------------------------------------------------------


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def spawn(argv, stdout_path, stderr_path):
    """Run one child to completion; wall time and peak RSS from its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            killer.join()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 Path(stderr_path).read_text(errors="replace")[-2000:])


class Runner:
    """Spawns the children of one benchmark run inside a scratch directory."""

    def __init__(self, tmp, config_path, recipe, run_tag):
        self.tmp = tmp
        self.config = str(config_path)
        self.recipe = recipe
        self.run_tag = run_tag
        self.count = 0

    def _paths(self, kind):
        self.count += 1
        base = self.tmp / f"{kind}-{self.count}"
        return base, f"{base}.stdout", f"{base}.stderr"

    def setup(self):
        _, out, err = self._paths("setup")
        return spawn([sys.executable, str(HERE / "replay.py"), "setup",
                      "--config", self.config], out, err)

    def calibrate(self):
        _, out, err = self._paths("calibrate")
        return spawn([sys.executable, str(HERE / "calibrate.py")], out, err)

    def compare(self):
        base, out, err = self._paths("compare")
        csv_path = Path(f"{base}.csv")
        child = spawn([sys.executable, "-m", "cnfetcache.cli", "compare",
                       "--recipe", self.recipe, "--config", self.config,
                       "--out", str(csv_path)], out, err)
        text = csv_path.read_text() if csv_path.is_file() else None
        return child, text

    def replay(self, oracle=False):
        base, out, err = self._paths("oracle" if oracle else "replay")
        json_path = Path(f"{base}.json")
        argv = [sys.executable, str(HERE / "replay.py"), "replay",
                "--config", self.config, "--recipe", self.recipe,
                "--out", str(json_path), "--run-id", f"{self.run_tag}-{self.count}"]
        if oracle:
            argv.append("--oracle")
        child = spawn(argv, out, err)
        data = None
        if child.returncode == 0 and json_path.is_file():
            data = json.loads(json_path.read_text())
        return child, data


# -- correctness gate -----------------------------------------------------


def _finite(text):
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def replay_row_fault(row, oracle):
    """Why a replayed row is wrong, or None."""
    s = row["stats"]
    if s["hits"] + s["misses"] != s["accesses"]:
        return "hits + misses != accesses"
    if s["reads"] + s["writes"] != s["accesses"]:
        return "reads + writes != accesses"
    if not all(_finite(row["stats_row"][k]) for k in CSV_VALUES):
        return "non-finite statistic"
    if oracle and (row["oracle_errors"] or not row["oracle_reads"]):
        return (f"shadow memory: {row['oracle_errors']} stale reads of "
                f"{row['oracle_reads']}")
    return None


def reference_rows(recipe, oracle_replay):
    """Oracle replay rows by label, each with its own fault (or None)."""
    rows = {r["label"]: r for r in (oracle_replay or {}).get("rows", [])}
    ref = {}
    for label in RECIPE_ROWS[recipe]:
        row = rows.get(label)
        fault = ("oracle replay failed" if row is None
                 else replay_row_fault(row, oracle=True))
        ref[label] = (row, fault)
    return ref


def gate_compare(returncode, csv_text, reference):
    """Fault per recipe row of one compare run; None where the row passed."""
    if returncode != 0 or csv_text is None:
        return {label: f"compare exited {returncode}" for label in reference}
    rows = {r.get("label"): r for r in csv.DictReader(io.StringIO(csv_text))}
    faults = {}
    for label, (ref, ref_fault) in reference.items():
        row = rows.get(label)
        if row is None:
            faults[label] = "CSV row missing"
        elif not all(_finite(row.get(k)) for k in CSV_VALUES + CSV_RATIOS):
            faults[label] = "non-finite CSV value"
        elif ref_fault:
            faults[label] = ref_fault
        elif any(row[k] != ref["stats_row"][k] for k in CSV_VALUES):
            faults[label] = "CSV differs from replayed stats_row"
        else:
            faults[label] = None
    return faults


def gate_replay(replay, reference):
    """Fault per recipe row of one traced replay."""
    rows = {r["label"]: r for r in (replay or {}).get("rows", [])}
    faults = {}
    for label, (ref, ref_fault) in reference.items():
        row = rows.get(label)
        if row is None:
            faults[label] = "replay row missing"
        else:
            faults[label] = (replay_row_fault(row, oracle=False) or ref_fault
                             or (None if row["stats_row"] == ref["stats_row"]
                                 else "replay differs from oracle replay"))
    return faults


# -- metrics --------------------------------------------------------------


def layer_metrics(replay, wall, recipe):
    """Per-layer metrics of one traced replay; totals over the recipe's rows."""
    spans = replay["spans"]
    busy = {}
    for s in spans:
        if s["name"] != "row":
            busy[s["name"]] = busy.get(s["name"], 0.0) + s["end"] - s["start"]
    sim = {s["label"]: s["end"] - s["start"] for s in spans
           if s["name"] == "cli.simulate_records"}
    rows = {r["label"]: r for r in replay["rows"]}
    covered = sum(busy.values())
    total = lambda key: sum(r[key] for r in rows.values())
    ratio = lambda a, b: a / b if b else 0.0
    m = {
        "cli.import_s": busy.get("import", 0.0),
        "cli.make_accessor_s": busy.get("cli.make_accessor", 0.0),
        "cli.other_s": wall - covered,
        "trace.wall_s": wall,
        "trace.coverage": covered / wall,
        "workload.load_s": busy.get("cli.load_records", 0.0),
        "workload.records": replay["records"],
        "workload.l1_filter_s": busy.get("workload.l1_filter", 0.0),
        "workload.l1_calls": sum(1 for s in spans
                                 if s["name"] == "workload.l1_filter"),
        "workload.l1_pass_ratio": ratio(total("l1_out"), total("l1_in")),
        "timing.latency_maps_s": busy.get("cli.build_latency_maps", 0.0),
        "timing.groups": total("groups"),
        "grouping.build_s": busy.get("cli.build_machinery", 0.0),
        "pagemap.build_s": busy.get("cli.build_page_mapping", 0.0),
        "pagemap.pages": total("pm_pages"),
        "pagemap.frames": total("pm_frames"),
        "pagemap.fast_share": ratio(total("pm_fast"), total("pm_traffic")),
    }
    # Rows of the other recipes read 0.
    m.update({k: 0 for k in PER_LAYER_UNITS if k not in m})
    for label, row in rows.items():
        prefix = f"{row_module(recipe, label)}.{label}"
        seconds, s = sim[label], row["stats"]
        m[f"{prefix}.s"] = seconds
        m[f"{prefix}.ns_per_acc"] = ratio(seconds * 1e9, s["accesses"])
        m[f"{prefix}.accesses"] = s["accesses"]
        m[f"{prefix}.miss_rate"] = ratio(s["misses"], s["accesses"])
    ds = rows.get("vasa_ds") if recipe == "set-uca" else None
    m["vasa.vasa_ds.shuffle_moves"] = ds["stats"]["shuffle_moves"] if ds else 0
    return m


def paced_median(walls, paces):
    """Median wall time, each scaled to a host where calibrate.py takes
    CALIBRATION_S; `paces` holds the calibration time measured around each."""
    return statistics.median(w * CALIBRATION_S / p for w, p in zip(walls, paces))


def median_metrics(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def with_units(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# -- metadata -------------------------------------------------------------


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(workload_name, workload, seed, seconds, trace, length, oracle):
    return {
        "workload": workload_name,
        "why": workload.why,
        "recipe": workload.recipe,
        "seed": seed,
        "cnt_seed": CNT_SEED,
        "length": length,
        "run_seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": (oracle or {}).get("numpy"),
        "git_commit": git_commit(),
        "trace_spec": asdict(workload.trace) if workload.trace else None,
        "resolved_config": (oracle or {}).get("config"),
    }


# -- one run --------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    record: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    last_csv: str = None


def run_workload(name, seed, seconds, trace, length=None):
    workload = WORKLOADS[name]
    length = workload.length if length is None else length
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        return _run(name, workload, seed, seconds, trace, length, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(name, workload, seed, seconds, trace, length, tmp):
    trace_path = None
    if workload.trace is not None:
        trace_path = tmp / "trace.txt"
        write_trace(trace_path, workload.trace, length, seed)
    config_path = tmp / "workload.cfg"
    keys = config_keys(workload, seed, length, trace_path)
    config_path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    runner = Runner(tmp, config_path, workload.recipe, f"{name}-{seed}")

    # Untimed: the reference replay with the shadow-memory oracle.  It also
    # compiles the package's bytecode before anything is timed.
    oracle_child, oracle = runner.replay(oracle=True)
    if oracle is not None:
        src = (ROOT / "src").resolve()
        if src not in Path(oracle["module_file"]).resolve().parents:
            raise SystemExit(f"perfbench: imported {oracle['module_file']}, "
                             f"not the package under {src}")
    reference = reference_rows(workload.recipe, oracle)

    ops = []

    def gate(kind, child, faults):
        for label, fault in faults.items():
            ops.append({"op": f"{kind}#{reps}{label}", "fault": fault,
                        "stderr": child.stderr if fault else None})

    def calibrate():
        child = runner.calibrate()
        gate("calibrate", child, {"": None if child.returncode == 0 else
                                  f"calibrate exited {child.returncode}"})
        calibration.append(child.wall_s)
        return statistics.mean(calibration[-2:])

    compare_walls, compare_pace, rss, fingerprints = [], [], [], []
    setups, setup_pace, calibration, traced = [], [], [], []
    last_csv = None
    reps = 0
    start = time.perf_counter()
    if not trace:
        calibrate()
    while True:
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed + elapsed / reps > seconds:
            break
        reps += 1
        child, text = runner.compare()
        compare_walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
        if text is not None:
            fingerprints.append(hashlib.sha256(text.encode()).hexdigest())
            last_csv = text
        gate("compare", child, {f":{label}": fault for label, fault in
                                gate_compare(child.returncode, text,
                                             reference).items()})
        if trace:
            child, data = runner.replay()
            gate("replay", child, {f":{label}": fault for label, fault in
                                   gate_replay(data, reference).items()})
            if data is not None:
                traced.append((child.wall_s, data))
            continue
        compare_pace.append(calibrate())
        for _ in range(SETUPS_PER_REP):
            child = runner.setup()
            setups.append(child.wall_s)
            gate("setup", child, {f".{len(setups)}": None if child.returncode == 0
                                  else f"setup exited {child.returncode}"})
        setup_pace.extend([calibrate()] * SETUPS_PER_REP)

    failed = [op for op in ops if op["fault"]]
    fingerprint_ok = len(set(fingerprints)) == 1
    accesses = sum(row["stats"]["accesses"]
                   for row, _ in reference.values() if row)
    if trace:
        layer = median_metrics([layer_metrics(d, w, workload.recipe)
                                for w, d in traced]) if traced else {}
        if layer:
            layer["trace.overhead_s"] = (layer["trace.wall_s"]
                                         - statistics.median(compare_walls))
        metrics = with_units(layer, PER_LAYER_UNITS) if layer else {}
    else:
        wall_s = paced_median(compare_walls, compare_pace)
        metrics = with_units({
            "wall_s": wall_s,
            "acc_per_s": accesses / wall_s,
            "setup_s": paced_median(setups, setup_pace),
            "peak_rss_mb": statistics.median(rss),
        }, END_TO_END_UNITS)
    correct = (not failed and fingerprint_ok and bool(metrics)
               and oracle_child.returncode == 0)
    record = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "metadata": metadata(name, workload, seed, seconds, trace, length,
                             oracle),
        "config_keys": {k: v for k, v in keys.items() if k != "workload.trace"},
        "fingerprints": sorted(set(fingerprints)),
        "faults": failed,
        "oracle_stderr": oracle_child.stderr if oracle_child.returncode else None,
        "samples": {"compare_wall_s": compare_walls, "compare_rss_mb": rss,
                    "setup_s": setups, "calibrate_s": calibration,
                    "compare_calibrate_s": compare_pace,
                    "setup_calibrate_s": setup_pace,
                    "traced_wall_s": [w for w, _ in traced]},
        "spans": [s for _, d in traced for s in d["spans"]],
    }
    return RunResult(correct, len(ops), len(failed), metrics, record,
                     reference, last_csv)


def save_record(name, seed, trace, record):
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def report(name, seed, trace, result):
    rec = result.record
    print(f"== {name} (recipe {rec['metadata']['recipe']}, seed {seed}, "
          f"trace {trace}): {result.attempted} operations, "
          f"{result.failed} failed, {len(rec['samples']['compare_wall_s'])} "
          f"compare runs")
    for fp in rec["fingerprints"]:
        print(f"fingerprint {name} seed={seed} sha256={fp}")
    for f in rec["faults"][:10]:
        print(f"FAILED {f['op']}: {f['fault']}")
    for key, m in result.metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    print(f"record: {save_record(name, seed, trace, rec).relative_to(ROOT)}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


# -- self-test ------------------------------------------------------------


def _check(ok, message):
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def selftest():
    """Smoke runs at a tiny length, then the gate on corrupted CSVs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _check(wanted[0] == END_TO_END_UNITS, "BENCHMARK.json end_to_end != code")
    _check(wanted[1] == PER_LAYER_UNITS, "BENCHMARK.json per_layer != code")
    _check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads != code")
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, seed=1, seconds=0.1, trace=trace,
                               length=SMOKE_LENGTH)
            _check(res.correct and res.failed == 0,
                   f"{name} trace={trace}: {res.record['faults']}")
            got = {k: m["unit"] for k, m in res.metrics.items()}
            _check(got == wanted[trace], f"{name} trace={trace}: metric names "
                   f"or units differ from BENCHMARK.json")
            _check(all(isinstance(m["value"], (int, float))
                       for m in res.metrics.values()),
                   f"{name} trace={trace}: a metric value is not a number")
            print(f"selftest: {name} trace={trace}: {len(got)} metrics, "
                  f"{res.attempted} operations, 0 failed")
        lines = res.last_csv.splitlines(keepends=True)
        header = lines[0].rstrip().split(",")
        nan = lines[1].split(",")
        nan[header.index("amat")] = "nan"
        shifted = lines[1].split(",")
        col = header.index("mean_hit_latency")
        shifted[col] = f"{float(shifted[col]) + 1e-6:.6f}"
        cases = {
            "exit code": (1, res.last_csv),
            "dropped row": (0, "".join(lines[:-1])),
            "nan value": (0, "".join([lines[0], ",".join(nan)] + lines[2:])),
            "changed value": (0, "".join([lines[0], ",".join(shifted)]
                                         + lines[2:])),
        }
        _check(not any(gate_compare(0, res.last_csv, res.reference).values()),
               f"{name}: gate fired on the untouched CSV")
        for case, (code, text) in cases.items():
            fired = [f for f in gate_compare(code, text, res.reference).values()
                     if f]
            _check(fired, f"{name}: gate did not fire on {case}")
            print(f"selftest: {name}: gate fired on {case}: {fired[0]}")
    print("selftest passed")
    return 0


# -- entry ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-run every workload at a tiny length")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cnfetcache" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no cnfetcache sources under {ROOT}/src; "
                         "run from the root of a full checkout\n")
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, args.seed, args.trace, results[name])
    if len(names) == 1:
        res = results[names[0]]
        print(result_line(res.correct, res.attempted, res.failed, res.metrics))
    else:
        print(result_line(
            all(r.correct for r in results.values()),
            sum(r.attempted for r in results.values()),
            sum(r.failed for r in results.values()),
            {f"{n}.{k}": m for n, r in results.items()
             for k, m in r.metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
