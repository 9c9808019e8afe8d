"""Child process of the benchmark: set-up, and the replay of a compare recipe.

    python3 perfbench/replay.py setup  --config CFG
    python3 perfbench/replay.py replay --config CFG --recipe R --out OUT.json
                                       [--oracle] [--run-id ID]

`setup` does what every CLI run does before simulating: import
`cnfetcache.cli`, resolve the config and load the workload.  The parent
times it from spawn to exit.

`replay` runs each row of a `compare` recipe through the public functions
that `cli.run_experiment` composes, in the same order, and records a span
around every call.  Spans are kept in memory and written to OUT.json at
the end, with each row's statistics and layer counts.  With `--oracle`
every access goes through a shadow memory that checks each read returns
the last value written; that replay is never timed.

Run it with the checkout's `src` on PYTHONPATH.
"""

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager

_T0 = time.perf_counter()


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - _T0
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - _T0
            self._open.pop()


def shadow_checked(accessor, line_bytes, row):
    """Wrap an accessor so every read is checked against the last write."""
    mask = ~(line_bytes - 1)
    shadow = {}

    def access(core, addr, write, value):
        result = accessor(core, addr, write, value)
        line = addr & mask
        if write:
            shadow[line] = value
        else:
            row["oracle_reads"] += 1
            if result.value != shadow.get(line, 0):
                row["oracle_errors"] += 1
        return result

    return access


def fast_traffic(profile, inventory, mapping):
    """Profiled traffic placed on minimum-latency-class frames, and in total."""
    fastest = min(f.latency_class for f in inventory.frames)
    total = sum(profile.counts.values())
    fast = sum(profile.counts[page] for page, frame in mapping.items()
               if inventory.frames[frame].latency_class == fastest)
    return fast, total


def replay(args, tracer):
    with tracer.span("import"):
        from cnfetcache import cli, metrics, pagemap, workload
    import numpy

    base = cli.ExperimentConfig.from_keys(cli.parse_config_file(args.config))
    rows = cli.recipe_configs(base, args.recipe)
    with tracer.span("cli.load_records"):
        records = cli.load_records(rows[0][1])
    out_rows = []
    for label, cfg in rows:
        row = {"label": label, "oracle_reads": 0, "oracle_errors": 0,
               "l1_in": 0, "l1_out": 0, "groups": 0, "pm_pages": 0,
               "pm_frames": 0, "pm_fast": 0, "pm_traffic": 0}
        with tracer.span("row", label=label):
            raw = list(records)
            llc = raw
            if cfg.l1_enabled:
                with tracer.span("workload.l1_filter"):
                    llc = workload.l1_filter(raw, workload.L1Config()).records
                row["l1_in"], row["l1_out"] = len(raw), len(llc)
            with tracer.span("cli.build_latency_maps"):
                latmaps = cli.build_latency_maps(cfg)
            row["groups"] = sum(len(lm.latencies) for lm in latmaps)
            with tracer.span("cli.build_machinery"):
                machinery = cli.build_machinery(cfg, latmaps)
            translate_fn = None
            if cfg.pm_enabled:
                with tracer.span("cli.build_page_mapping"):
                    profile, inventory, mapping = cli.build_page_mapping(
                        cfg, machinery, llc, raw)
                page_bytes = cfg.pm_page_bytes
                translate_fn = lambda vaddr: pagemap.translate(vaddr, mapping,
                                                               page_bytes)
            with tracer.span("cli.make_accessor"):
                accessor = cli.make_accessor(cfg, machinery)
            if args.oracle:
                accessor = shadow_checked(accessor, cfg.line_bytes, row)
            stats = metrics.RunStats(memory_latency_cycles=cfg.memory_latency)
            with tracer.span("cli.simulate_records", label=label):
                cli.simulate_records(llc, accessor, stats, translate_fn)
        if cfg.pm_enabled:
            row["pm_pages"] = len(profile.counts)
            row["pm_frames"] = len(inventory.frames)
            row["pm_fast"], row["pm_traffic"] = fast_traffic(profile,
                                                             inventory, mapping)
        row["stats"] = {k: getattr(stats, k) for k in
                        ("accesses", "hits", "misses", "reads", "writes",
                         "shuffle_moves")}
        row["stats_row"] = dict(zip(metrics.CSV_FIELDS, metrics.stats_row(
            stats, cfg.energy_params, cfg.policy, cfg.layout,
            cfg.workload_label())))
        out_rows.append(row)
    return {
        "module_file": sys.modules["cnfetcache"].__file__,
        "numpy": numpy.__version__,
        "records": len(records),
        "config": dataclasses.asdict(base),
        "rows": out_rows,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "replay"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--recipe")
    parser.add_argument("--out")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--run-id", default="replay")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        from cnfetcache import cli
        cfg = cli.ExperimentConfig.from_keys(cli.parse_config_file(args.config))
        if not cli.load_records(cfg):
            sys.exit("setup: workload has no records")
        return 0
    tracer = Tracer(args.run_id)
    result = replay(args, tracer)
    result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
