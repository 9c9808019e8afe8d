"""Experiment driver: config files, pipeline orchestration, and the CLI.

A single flat-key config file describes an experiment end to end
(`cache.ways=8` style, `#` comments, CLI --set overrides).  The pipeline is
variation sampling -> latency map -> grouping -> optional profiling and page
mapping -> one hit-counting pass per distinct LLC stream -> pricing of each
config from its pass -> CSV report.  All randomness is seeded from the
config, so a fixed config reproduces byte-identical reports.

Subcommands: gen-variation, simulate, profile, compare, gen-trace.
"""

import argparse
import ctypes
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import (cache_core, metrics, nuca, pagemap, timing, variation, vasa,
               vawa, workload)
from .cache_core import BankPolicy, PolicyKind
from .timing import CacheGeometry, LayoutKind


class ConfigError(ValueError):
    pass


def _parse_value(raw):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw, 0)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config_file(path):
    keys, lines = {}, {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode()
            except UnicodeEncodeError:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: {key} is already set on "
                                  f"line {lines[key]}")
            keys[key], lines[key] = _parse_value(value), lineno
    return keys


def _int_tuple(value):
    if isinstance(value, str):
        try:
            return tuple(int(x) for x in value.split(",") if x.strip())
        except ValueError:
            raise ConfigError(f"grouping.classes={value!r} is not a "
                              f"comma-separated list of integers") from None
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# The test a config value must pass, and its wording, by its field's type.
_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    int: (_is_int, "an integer"),
    float: (lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v),
            "a finite number"),
    tuple: (lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
            "a tuple of integers"),
}


def _key(key, default=None, *, minimum=None, maximum=None, above=None,
         power_of_two=False):
    """A config field read from `key`.  A numeric value must be at least
    `minimum`, at most `maximum`, greater than `above` and, with
    `power_of_two`, a power of two, where given."""
    metadata = {"key": key, "minimum": minimum, "maximum": maximum,
                "above": above, "power_of_two": power_of_two}
    return field(default=default, metadata=metadata)


def _broken_rule(value, meta):
    """The range rule of a field's metadata that `value` breaks, or None."""
    low, high, above = meta["minimum"], meta["maximum"], meta["above"]
    if low is not None and value < low:
        return f">= {low}"
    if high is not None and value > high:
        return f"<= {high}"
    if above is not None and value <= above:
        return f"> {above}"
    if meta["power_of_two"] and (value < 1 or value & (value - 1)):
        return "a power of two"
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, checked when the config is made: by the
    constructor, `from_keys` or `dataclasses.replace`."""

    capacity_bytes: int = _key("cache.capacity_bytes", 2 * 1024 * 1024,
                               power_of_two=True)
    num_ways: int = _key("cache.ways", 8, power_of_two=True)
    line_bytes: int = _key("cache.line_bytes", 64, power_of_two=True)
    layout: str = _key("layout", "set_aligned")
    policy: str = _key("policy", "baseline")
    mu: float = _key("cnt.mu", 9.0, above=0)
    sigma: float = _key("cnt.sigma", 2.1, minimum=0)
    p_metallic: float = _key("cnt.p_metallic", 0.05, minimum=0, maximum=1)
    p_remove_metallic: float = _key("cnt.p_remove_metallic", 0.999,
                                    minimum=0, maximum=1)
    p_remove_semiconducting: float = _key("cnt.p_remove_semiconducting", 0.05,
                                          minimum=0, maximum=1)
    cnt_seed: int = _key("cnt.seed", 1, minimum=0)
    stages: int = _key("timing.stages", 8, minimum=1)
    min_cycles: int = _key("timing.min_cycles", minimum=1)
    max_cycles: int = _key("timing.max_cycles", minimum=1)
    nominal_count: float = _key("timing.nominal_count", above=0)
    map_file: str = _key("timing.map_file")
    way_groups: int = _key("vasa.way_groups", 4, minimum=1)
    uniform_groups: int = _key("grouping.num_groups", 64, minimum=1)
    classes: tuple = _key("grouping.classes", (6, 7))
    budget: int = _key("grouping.budget", 16, minimum=0)
    granularity: int = _key("grouping.granularity", minimum=1)
    pm_enabled: bool = _key("pagemap.enabled", False)
    pm_page_bytes: int = _key("pagemap.page_bytes", 4096, power_of_two=True)
    pm_unified: bool = _key("pagemap.unified", True)
    pm_count_raw: bool = _key("pagemap.count_raw", False)
    nuca_enabled: bool = _key("nuca.enabled", False)
    nuca_rows: int = _key("nuca.rows", 2, minimum=1)
    nuca_cols: int = _key("nuca.cols", 4, minimum=1)
    nuca_cycles_per_hop: int = _key("nuca.cycles_per_hop", 1, minimum=0)
    nuca_round_trip: int = _key("nuca.round_trip_factor", 2, minimum=0)
    l1_enabled: bool = _key("l1.enabled", False)
    trace_path: str = _key("workload.trace")
    wl_num_pages: int = _key("workload.num_pages", 256, minimum=1)
    wl_zipf: float = _key("workload.zipf", 1.2, minimum=0)
    wl_read_fraction: float = _key("workload.read_fraction", 0.7,
                                   minimum=0, maximum=1)
    wl_length: int = _key("workload.length", 100_000, minimum=0)
    wl_num_cores: int = _key("workload.num_cores", 1, minimum=1)
    wl_instr_stream: bool = _key("workload.instr_stream", False)
    wl_seed: int = _key("workload.seed", 0, minimum=0)
    wl_page_bytes: int = _key("workload.page_bytes", 4096, minimum=1)
    wl_core_affinity: float = _key("workload.core_affinity", 0.75,
                                   minimum=0, maximum=1)
    static_power: float = _key("energy.static_power", 1.0, minimum=0)
    e_read: float = _key("energy.e_read", 1.0, minimum=0)
    e_write: float = _key("energy.e_write", 2.0, minimum=0)
    memory_latency: int = _key("energy.memory_latency", 30, minimum=0)

    @classmethod
    def from_keys(cls, keys):
        values = {}
        for key, value in keys.items():
            attr = cls.KEYMAP.get(key)
            if attr is None:
                raise ConfigError(f"unknown config key {key!r}")
            values[attr] = _int_tuple(value) if attr == "classes" else value
        return cls(**values)

    # -- derived pieces -------------------------------------------------

    @property
    def layout_kind(self):
        try:
            return LayoutKind(self.layout)
        except ValueError:
            raise ConfigError(f"unknown layout {self.layout!r}") from None

    @property
    def policy_kind(self):
        try:
            return PolicyKind(self.policy)
        except ValueError:
            raise ConfigError(f"unknown policy {self.policy!r}") from None

    @property
    def geometry(self):
        return CacheGeometry(self.capacity_bytes, self.num_ways, self.line_bytes)

    @property
    def bank_geometry(self):
        return CacheGeometry(self.capacity_bytes // self.num_banks,
                             self.num_ways, self.line_bytes)

    @property
    def num_banks(self):
        return self.nuca_rows * self.nuca_cols if self.nuca_enabled else 1

    @property
    def cnt_params(self):
        return variation.CntParams(self.mu, self.sigma, self.p_metallic,
                                   self.p_remove_metallic,
                                   self.p_remove_semiconducting)

    @property
    def cycle_range(self):
        lo, hi = timing.DEFAULT_CYCLE_RANGE[self.layout_kind]
        return (self.min_cycles if self.min_cycles is not None else lo,
                self.max_cycles if self.max_cycles is not None else hi)

    @property
    def nominal(self):
        """timing.nominal_count, or the calibrated median group strength."""
        if self.nominal_count is not None:
            return self.nominal_count
        return timing.calibrate_nominal_count(self.cnt_params, self.stages)

    @property
    def energy_params(self):
        return metrics.EnergyParams(self.static_power, self.e_read,
                                    self.e_write)

    @property
    def noc(self):
        """The mesh's `nuca.noc_table` under NUCA, otherwise None."""
        if not self.nuca_enabled:
            return None
        return nuca.noc_table(self.nuca_rows, self.nuca_cols,
                              self.nuca_cycles_per_hop, self.nuca_round_trip)

    @property
    def effective_granularity(self):
        """NG run granularity in sets; under page mapping runs are aligned to
        a whole frame footprint so every frame falls in one latency class."""
        if self.pm_enabled:
            return pagemap.frame_span_sets(self.pm_page_bytes, self.line_bytes,
                                           self.bank_geometry.num_sets)
        return self.granularity if self.granularity is not None else 1

    def workload_label(self):
        # Semicolons, not commas, so that the CSV cell needs no quotes.
        if self.trace_path:
            return self.trace_path
        return (f"synthetic(pages={self.wl_num_pages};zipf={self.wl_zipf};"
                f"len={self.wl_length};cores={self.wl_num_cores};seed={self.wl_seed})")

    @property
    def synthetic_spec(self):
        """Every input of the synthetic workload generator."""
        return workload.SyntheticSpec(self.wl_num_pages, self.wl_zipf,
                                      self.wl_read_fraction, self.wl_length,
                                      self.wl_num_cores, self.wl_instr_stream,
                                      self.wl_seed, self.wl_page_bytes,
                                      self.line_bytes, self.wl_core_affinity)

    def workload_signature(self):
        """Configs with equal signatures load the same raw records."""
        if self.trace_path:
            return ("trace", self.trace_path)
        return ("synthetic", self.synthetic_spec)

    def _check_values(self):
        """Every key holds its field's type and keeps its field's range."""
        for spec in fields(self):
            key, value = spec.metadata["key"], getattr(self, spec.name)
            if value is None and spec.default is None:
                continue
            fits, wording = _TYPES[spec.type]
            if not fits(value):
                raise ConfigError(f"{key}={value!r} must be {wording}")
            rule = _broken_rule(value, spec.metadata)
            if rule:
                raise ConfigError(f"{key} must be {rule}, got {value}")

    def __post_init__(self):
        self._check_values()
        if self.num_banks & (self.num_banks - 1):
            raise ConfigError(f"nuca.rows x nuca.cols = {self.nuca_rows} x "
                              f"{self.nuca_cols} banks must be a power of two")
        if self.nuca_enabled and self.capacity_bytes % self.num_banks != 0:
            raise ConfigError("capacity must divide across banks")
        try:
            geometry = self.geometry
            bank_geometry = self.bank_geometry
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.trace_path and self.wl_page_bytes % self.line_bytes != 0:
            raise ConfigError(f"workload.page_bytes={self.wl_page_bytes} must "
                              f"be a multiple of cache.line_bytes "
                              f"({self.line_bytes})")
        policy = self.policy_kind
        layout = self.layout_kind
        lo, hi = self.cycle_range
        if lo > hi:
            raise ConfigError(f"bad cycle range [{lo},{hi}]")
        if policy in (PolicyKind.VASA, PolicyKind.VASA_DS) and layout is not LayoutKind.SET_ALIGNED:
            raise ConfigError(f"policy {self.policy} requires layout=set_aligned")
        if policy in (PolicyKind.VAWA_UG, PolicyKind.VAWA_NG) and layout is not LayoutKind.WAY_ALIGNED:
            raise ConfigError(f"policy {self.policy} requires layout=way_aligned")
        if self.pm_enabled:
            if policy in (PolicyKind.BASELINE_WORST, PolicyKind.BASELINE_PD):
                raise ConfigError("page mapping requires a variation-aware policy")
            if layout is LayoutKind.SET_ALIGNED and not self.nuca_enabled:
                raise ConfigError("page mapping on a set aligned layout requires NUCA "
                                  "(all sets share one latency)")
            if self.pm_page_bytes % self.line_bytes != 0:
                raise ConfigError("page size must be a multiple of the line size")
            if self.nuca_enabled and self.pm_page_bytes // self.line_bytes > bank_geometry.num_sets:
                raise ConfigError("page footprint exceeds one bank's sets; "
                                  "use smaller pages or larger banks")
        if (policy in (PolicyKind.VASA, PolicyKind.VASA_DS)
                and hi >= 1 << vasa.DELAY_REGISTER_BITS):
            raise ConfigError(f"max_cycles {hi} does not fit the "
                              f"{vasa.DELAY_REGISTER_BITS}-bit delay register")
        if policy is PolicyKind.VASA_DS and geometry.num_ways % self.way_groups != 0:
            raise ConfigError("vasa.way_groups must divide the way count")
        if policy is PolicyKind.VAWA_UG and bank_geometry.num_sets % self.uniform_groups != 0:
            raise ConfigError("grouping.num_groups must divide the set count")
        if policy is PolicyKind.VAWA_NG:
            if sorted(self.classes) != list(self.classes):
                raise ConfigError("grouping.classes must be ascending")
            if any(c >= hi for c in self.classes):
                raise ConfigError("grouping.classes must be below max_cycles")
            if (not self.pm_enabled
                    and bank_geometry.num_sets % self.effective_granularity):
                raise ConfigError(f"grouping.granularity must divide the "
                                  f"{bank_geometry.num_sets} sets of a bank")
        if self.nuca_enabled and self.wl_num_cores > len(self.noc):
            raise ConfigError("more trace cores than cores on the mesh")


ExperimentConfig.KEYMAP = {spec.metadata["key"]: spec.name
                           for spec in fields(ExperimentConfig)}


# -- pipeline ------------------------------------------------------------


def load_records(cfg):
    """The raw reference stream of a config, as a workload.Trace: the
    parsed trace file, or the synthetic workload."""
    if cfg.trace_path:
        num_cores = len(cfg.noc) if cfg.nuca_enabled else None
        # A byte that is not UTF-8 reaches the parser as a surrogate, which
        # it reports with its line number.
        with open(cfg.trace_path, encoding="utf-8",
                  errors="surrogateescape") as fh:
            return workload.parse_trace(fh, num_cores=num_cores)
    return workload.generate_synthetic(cfg.synthetic_spec)


def llc_records(cfg, records):
    """The stream the LLC sees: what the per-core L1s forward when
    l1.enabled, otherwise the raw records."""
    if cfg.l1_enabled:
        return workload.l1_filter(records, workload.L1Config()).records
    return records


def release_free_heap():
    """Return the C heap's free pages to the OS, where libc can (glibc's
    malloc_trim); elsewhere do nothing.

    Whether glibc trims the heap after a large free depends on where its
    surviving blocks happen to lie, which shifts with the length of argv
    or of a path.  Without this call the front end's garbage (trace
    parsing, the L1 filter) stayed resident in some runs and not in
    others, so the peak RSS of one and the same `compare` moved by 2 MB.
    """
    if sys.platform.startswith("linux"):
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        if trim is not None:
            trim(0)


def build_latency_maps(cfg):
    """One latency map per bank: loaded from timing.map_file when given,
    otherwise sampled.  Bank b draws from generator
    `SeedSequence(cnt.seed).spawn(banks)[b]`, the one seeding rule of the
    latency maps."""
    if cfg.map_file:
        if cfg.nuca_enabled:
            raise ConfigError("timing.map_file only supports a single bank; "
                              "NUCA maps are generated from cnt.seed")
        with open(cfg.map_file, encoding="utf-8",
                  errors="surrogateescape") as fh:
            latmap = timing.load_latency_map(fh)
        if latmap.layout is not cfg.layout_kind:
            raise ConfigError(f"map file layout {latmap.layout.value} does "
                              f"not match config layout {cfg.layout}")
        expect = cfg.layout_kind.group_count(cfg.geometry)
        if len(latmap.latencies) != expect:
            raise ConfigError(f"map file has {len(latmap.latencies)} groups, "
                              f"geometry needs {expect}")
        if latmap.geometry is not None and latmap.geometry != cfg.geometry:
            g = latmap.geometry
            raise ConfigError(
                f"map file geometry ({g.capacity_bytes} B, {g.num_ways}-way, "
                f"{g.line_bytes} B lines) does not match the config's "
                f"({cfg.capacity_bytes} B, {cfg.num_ways}-way, "
                f"{cfg.line_bytes} B lines)")
        lo, hi = cfg.cycle_range
        if (latmap.min_cycles, latmap.max_cycles) != (lo, hi):
            raise ConfigError(
                f"map file cycle range {latmap.min_cycles}..{latmap.max_cycles}"
                f" does not match the configured range {lo}..{hi}")
        return [latmap]
    lo, hi = cfg.cycle_range
    nominal = cfg.nominal
    seeds = np.random.SeedSequence(cfg.cnt_seed).spawn(cfg.num_banks)
    return [timing.build_latency_map(cfg.bank_geometry, cfg.layout_kind,
                                     cfg.cnt_params, cfg.stages, lo, hi,
                                     nominal, np.random.default_rng(seq))
            for seq in seeds]


@dataclass
class Machinery:
    """Per-bank policy state built from the latency maps."""

    banks: list            # one cache_core.BankPolicy per bank
    overhead: dict         # bookkeeping-storage report; None for baselines


def build_machinery(cfg, latmaps):
    """Resolve the policy for every bank into a cache_core.BankPolicy: a
    flat hit-latency list, partial disabling's disabled groups and data
    shuffling's way groups.  This is the one place that chooses access
    behaviour by policy."""
    policy = cfg.policy_kind
    overhead = None
    if policy is PolicyKind.BASELINE_WORST:
        worst = max(lm.worst() for lm in latmaps)
        banks = [BankPolicy([worst] * len(lm.latencies)) for lm in latmaps]
    elif policy is PolicyKind.BASELINE_PD:
        banks = [cache_core.partial_disable(lm) for lm in latmaps]
    elif policy is PolicyKind.VASA:
        banks = [BankPolicy(list(lm.latencies)) for lm in latmaps]
        overhead = vasa.overhead_report(cfg.bank_geometry)
    elif policy is PolicyKind.VASA_DS:
        banks = [BankPolicy(list(lm.latencies),
                            shuffle=vasa.WayGroups.from_latency_map(
                                lm, cfg.way_groups))
                 for lm in latmaps]
        overhead = vasa.overhead_report(cfg.bank_geometry)
    elif policy is PolicyKind.VAWA_UG:
        banks = [BankPolicy(vawa.uniform_latencies(lm, cfg.uniform_groups))
                 for lm in latmaps]
        overhead = vawa.overhead_report()
    else:
        built = [vawa.build_nonuniform_groups(lm, cfg.classes, cfg.budget,
                                              cfg.effective_granularity)
                 for lm in latmaps]
        banks = [BankPolicy(latency) for latency, _ in built]
        overhead = vawa.overhead_report(built[0][1])
    return Machinery(banks, overhead)


def build_page_mapping(cfg, machinery, llc_records, raw_records,
                       profiles=None):
    """Profile the workload and assign hot pages to fast frames.  The
    profile counts the raw stream when pagemap.count_raw, else the LLC
    stream.  `profiles` keeps one profile per (stream, page size) across
    the rows of a sweep; a stream is named, as in `run_sweep`, by whether
    it is what the L1s forward.  A set aligned bank charges every set its
    mean way latency."""
    page_bytes = cfg.pm_page_bytes
    profiles = {} if profiles is None else profiles
    key = (cfg.l1_enabled and not cfg.pm_count_raw, page_bytes)
    if key not in profiles:
        profiles[key] = pagemap.profile_trace(
            raw_records if cfg.pm_count_raw else llc_records, page_bytes)
    profile = profiles[key]

    geometry = cfg.bank_geometry
    span = pagemap.frame_span_sets(page_bytes, cfg.line_bytes, geometry.num_sets)
    blocks = cfg.num_banks * (geometry.num_sets // span)
    pages = len(profile.page_ids)
    copies = max(1, -(-pages // blocks))
    num_frames = copies * blocks

    banks = machinery.banks
    if cfg.layout_kind is LayoutKind.WAY_ALIGNED:
        set_latencies = [bank.latency for bank in banks]
    else:
        set_latencies = [[nuca.bank_average_latency(bank.latency)]
                         * geometry.num_sets for bank in banks]
    inventory = pagemap.build_frame_inventory(geometry, page_bytes, num_frames,
                                              set_latencies)

    mapping = pagemap.assign_pages(profile, inventory,
                                   cfg.noc if cfg.pm_unified else None)
    return profile, inventory, mapping


def make_accessor(cfg, machinery):
    """Callable (core_id, addr, write, value) -> AccessResult for the
    configured policy, over a fresh cache instance.  A UCA is the one-bank
    NucaCache with no NoC cost.  Runs go through `run_sweep`; this
    per-access path, with `simulate_records`, is the reference that the
    benchmark's replay and the tests check reads and hit counts against."""
    cache = nuca.NucaCache(cfg.geometry, cfg.noc, cfg.layout_kind,
                           machinery.banks)
    return cache.access


def simulate_records(records, accessor, stats, translate_fn=None):
    seq = 0
    for rec in records:
        addr = rec.vaddr if translate_fn is None else translate_fn(rec.vaddr)
        if rec.op == "W":
            seq += 1
            result = accessor(rec.core_id, addr, True, seq)
        else:
            result = accessor(rec.core_id, addr, False, 0)
        metrics.record_access(stats, result)
    return stats


@dataclass
class ExperimentOutput:
    config: ExperimentConfig
    stats: metrics.RunStats
    notes: list = field(default_factory=list)

    def stats_row(self):
        return metrics.stats_row(self.stats, self.config.energy_params,
                                 self.config.policy, self.config.layout,
                                 self.config.workload_label())


def _notes(cfg, latmaps, machinery):
    notes = []
    if cfg.nuca_enabled:
        averages = [nuca.bank_average_latency(lm.latencies) for lm in latmaps]
        spread = max(averages) - min(averages)
        notes.append("bank_avg_hit_latency=" +
                     ";".join(f"{a:.4f}" for a in averages))
        if spread > 0.25:
            notes.append(f"bank_avg_spread={spread:.4f} (banks differ materially)")
    if machinery.overhead is not None:
        notes.append("overhead: " + " ".join(
            f"{k}={v}" for k, v in sorted(machinery.overhead.items())))
    return notes


def _latency_key(cfg):
    """Rows with equal keys get equal latency maps from
    `build_latency_maps`: every input it reads."""
    return (cfg.map_file, cfg.layout_kind, cfg.geometry, cfg.num_banks,
            cfg.nuca_enabled, cfg.cycle_range, cfg.cnt_params, cfg.cnt_seed,
            cfg.stages, cfg.nominal_count)


def run_sweep(configs, records):
    """Simulate every config over the same raw records.

    Each l1.enabled value gets one LLC stream, each distinct set of
    latency-map inputs one set of maps (no consumer mutates a map) and
    each (profiled stream, page size) one page profile.  The streams are
    built before anything else.  The sweep takes the raw records over:
    unless a row profiles the raw stream (pagemap.count_raw), it drops them
    once the streams are built, so a caller that passes them straight in,
    as `cmd_compare` and `run_experiment` do, frees an L1 run's raw columns
    there.  (CPython 3.11 and later keep no reference to a call's
    arguments in the caller; on 3.10 the records stay until the sweep
    returns.)  The front end's freed temporaries are then handed back to
    the OS (`release_free_heap`), before the latency maps, whose first
    sampling imports `numpy.random`, and before the passes.

    The first loop builds each row and files it under its pass.  Rows of
    one pass read the same stream, untranslated, on the same banks; a row
    with a page mapping or a shuffling bank runs alone.  The second loop
    runs each pass once, translating a mapped stream only there, prices
    the pass's rows from its hit table and drops the table and the
    translated stream before the next pass runs.
    """
    records = workload.as_trace(records)
    streams, latmaps, profiles = {}, {}, {}
    for cfg in configs:
        if cfg.l1_enabled not in streams:
            streams[cfg.l1_enabled] = llc_records(cfg, records)
    if not any(cfg.pm_enabled and cfg.pm_count_raw for cfg in configs):
        records = None
    release_free_heap()
    rows, passes = [], {}
    for position, cfg in enumerate(configs):
        key = _latency_key(cfg)
        if key not in latmaps:
            latmaps[key] = build_latency_maps(cfg)
        machinery = build_machinery(cfg, latmaps[key])
        mapping = None
        if cfg.pm_enabled:
            _, _, mapping = build_page_mapping(
                cfg, machinery, streams[cfg.l1_enabled], records, profiles)
        rows.append((cfg, machinery, mapping,
                     _notes(cfg, latmaps[key], machinery)))
        if mapping is not None or any(bank.shuffle is not None
                                      for bank in machinery.banks):
            pass_key = position
        else:
            pass_key = (cfg.l1_enabled, cfg.geometry, cfg.num_banks,
                        cfg.layout_kind, cfg.nuca_enabled)
        passes.setdefault(pass_key, []).append(position)
    stats = [None] * len(rows)
    for positions in passes.values():
        cfg, machinery, mapping, _ = rows[positions[0]]
        llc = streams[cfg.l1_enabled]
        if mapping is not None:
            llc = pagemap.translate_trace(llc, mapping, cfg.pm_page_bytes)
        table = nuca.count_hits(llc, cfg.geometry, cfg.layout_kind,
                                machinery.banks, cfg.noc)
        for position in positions:
            cfg, machinery, _, _ = rows[position]
            stats[position] = nuca.price(table, machinery.banks,
                                         cfg.memory_latency, cfg.noc)
        del table, llc
    return [ExperimentOutput(cfg, stat, notes)
            for (cfg, _, _, notes), stat in zip(rows, stats)]


def run_experiment(cfg):
    """Simulate one config over the raw records it loads."""
    return run_sweep([cfg], load_records(cfg))[0]


# -- subcommands ----------------------------------------------------------


def _apply_sets(keys, items):
    """Fold `--set key=value` overrides into a key dict."""
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        keys[key.strip()] = _parse_value(value)
    return keys


def _config_from_args(args):
    keys = {}
    if getattr(args, "config", None):
        keys.update(parse_config_file(args.config))
    _apply_sets(keys, getattr(args, "set", None))
    return ExperimentConfig.from_keys(keys)


def cmd_gen_variation(args):
    """Write bank 0 of the latency maps `simulate` samples from this config
    (timing.map_file is ignored), and summarize its distribution."""
    cfg = _config_from_args(args)
    nominal = cfg.nominal
    latmap = build_latency_maps(replace(cfg, map_file=None,
                                        nominal_count=nominal))[0]
    with open(args.out, "w") as fh:
        fh.write(timing.serialize_latency_map(latmap))
    hist = Counter(latmap.latencies)
    mode = min(c for c in hist if hist[c] == max(hist.values()))
    lines = [
        f"groups={len(latmap.latencies)}",
        f"min={latmap.best()}",
        f"max={latmap.worst()}",
        f"mode={mode}",
        f"failed={latmap.strengths.count(0)}",
        f"nominal_count={nominal}",
        f"quantized_spread={latmap.worst() / latmap.best():.4f}",
    ]
    ratios = timing.delay_ratios(latmap.strengths, nominal)
    if ratios:
        lines.append(f"prequant_spread={max(ratios) / min(ratios):.4f}")
    lines += ["histogram:"] + [f"{c},{hist[c]}" for c in sorted(hist)]
    summary = "\n".join(lines) + "\n"
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(summary)
    else:
        sys.stdout.write(summary)
    return 0


def cmd_simulate(args):
    cfg = _config_from_args(args)
    out = run_experiment(cfg)
    csv_text = metrics.write_stats_csv([out.stats_row()])
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    with open(args.out + ".hist.csv", "w") as fh:
        fh.write(metrics.write_histogram_csv(out.stats))
    for note in out.notes:
        sys.stdout.write(note + "\n")
    sys.stdout.write(csv_text)
    return 0


def cmd_profile(args):
    cfg = _config_from_args(args)
    records = load_records(cfg)
    if not cfg.pm_count_raw:
        records = llc_records(cfg, records)
    text = pagemap.serialize_profile(
        pagemap.profile_trace(records, cfg.pm_page_bytes))
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0


def cmd_gen_trace(args):
    cfg = _config_from_args(args)
    records = load_records(cfg)
    with open(args.out, "w") as fh:
        workload.serialize_trace(records, fh)
    return 0


RECIPES = {
    "set-uca": [
        ("baseline", {"policy": "baseline", "pm_enabled": False}),
        ("baseline_pd", {"policy": "baseline_pd", "pm_enabled": False}),
        ("vasa", {"policy": "vasa", "pm_enabled": False}),
        ("vasa_ds", {"policy": "vasa_ds", "pm_enabled": False}),
    ],
    "way-uca": [
        ("baseline", {"policy": "baseline", "pm_enabled": False}),
        ("baseline_pd", {"policy": "baseline_pd", "pm_enabled": False}),
        ("vawa_ug", {"policy": "vawa_ug", "pm_enabled": False}),
        ("vawa_ng", {"policy": "vawa_ng", "pm_enabled": False}),
        ("vawa_ug_pm", {"policy": "vawa_ug", "pm_enabled": True}),
        ("vawa_ng_pm", {"policy": "vawa_ng", "pm_enabled": True}),
    ],
    "set-nuca": [
        ("baseline", {"policy": "baseline", "pm_enabled": False}),
        ("vasa", {"policy": "vasa", "pm_enabled": False}),
        ("vasa_ds", {"policy": "vasa_ds", "pm_enabled": False}),
        ("vasa_ds_pm", {"policy": "vasa_ds", "pm_enabled": True}),
    ],
    "way-nuca": [
        ("baseline", {"policy": "baseline", "pm_enabled": False}),
        ("vawa_ng", {"policy": "vawa_ng", "pm_enabled": False}),
        ("vawa_ng_pm", {"policy": "vawa_ng", "pm_enabled": True,
                        "pm_unified": False}),
        ("vawa_ng_upm", {"policy": "vawa_ng", "pm_enabled": True,
                         "pm_unified": True}),
    ],
}


def recipe_configs(base, recipe):
    if recipe not in RECIPES:
        raise ConfigError(f"unknown recipe {recipe!r}; choose from {sorted(RECIPES)}")
    expected_layout = "set_aligned" if recipe.startswith("set") else "way_aligned"
    want_nuca = recipe.endswith("nuca")
    return [(label, replace(base, layout=expected_layout,
                            nuca_enabled=want_nuca, **overrides))
            for label, overrides in RECIPES[recipe]]


def cmd_compare(args):
    if args.recipe:
        if args.configs:
            raise ConfigError(f"compare --recipe would ignore config files "
                              f"{' '.join(args.configs)}; use --config")
        base = _config_from_args(args)
        labelled = recipe_configs(base, args.recipe)
    else:
        if len(args.configs) < 2:
            raise ConfigError("compare needs --recipe or at least two config files")
        if args.config:
            raise ConfigError(f"compare of config files would ignore "
                              f"--config {args.config}")
        labelled = []
        for path in args.configs:
            keys = _apply_sets(parse_config_file(path), args.set)
            labelled.append((path, ExperimentConfig.from_keys(keys)))
    configs = [cfg for _, cfg in labelled]
    sig = configs[0].workload_signature()
    for label, cfg in labelled[1:]:
        if cfg.workload_signature() != sig:
            raise ConfigError(f"config {label!r} uses a different workload")

    # Every row loads the same records; a NUCA row, if there is one, also
    # checks the trace's cores against the mesh (every mesh has the same
    # four cores).
    outputs = run_sweep(configs, load_records(
        min(configs, key=lambda cfg: not cfg.nuca_enabled)))
    rows = []
    baseline = None
    header = ["label", "policy", "pm", "mean_hit_latency", "amat", "miss_rate",
              "total_energy", "hit_latency_ratio", "amat_ratio", "energy_ratio"]
    for (label, cfg), out in zip(labelled, outputs):
        stats = out.stats
        static, dynamic = metrics.energy(stats, cfg.energy_params)
        rec = {
            "label": label,
            "policy": cfg.policy,
            "pm": ("upm" if cfg.pm_enabled and cfg.pm_unified and cfg.nuca_enabled
                   else "pm" if cfg.pm_enabled else "-"),
            "mean_hit_latency": stats.mean_hit_latency,
            "amat": metrics.amat(stats),
            "miss_rate": stats.llc_miss_rate,
            "total_energy": static + dynamic,
        }
        baseline = baseline or rec
        for col, ratio in (("mean_hit_latency", "hit_latency_ratio"),
                           ("amat", "amat_ratio"),
                           ("total_energy", "energy_ratio")):
            rec[ratio] = rec[col] / baseline[col] if baseline[col] else 1.0
        rows.append(rec)

    text = metrics.csv_text([header] + [
        [rec[h] if isinstance(rec[h], str) else f"{rec[h]:.6f}" for h in header]
        for rec in rows])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cnfetcache",
        description="Trace-driven simulator for CNFET LLCs under process variation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")

    p = sub.add_parser("gen-variation", help="sample and serialize a latency map")
    common(p)
    p.add_argument("--out", required=True, help="latency map output path")
    p.add_argument("--summary", help="write the distribution summary here "
                                     "instead of stdout")
    p.set_defaults(func=cmd_gen_variation)

    p = sub.add_parser("simulate", help="run one experiment, write a stats CSV")
    common(p)
    p.add_argument("--out", required=True, help="stats CSV path "
                                                "(histogram goes to <out>.hist.csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("profile", help="dump per-page access counts")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compare", help="run several configs on one workload "
                                       "and emit normalized columns")
    common(p)
    p.add_argument("--recipe", choices=sorted(RECIPES),
                   help="built-in policy sweep sharing the base config")
    p.add_argument("configs", nargs="*", help="config files (first is the baseline)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-trace", help="write a synthetic trace file")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
