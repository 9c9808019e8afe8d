"""Latency, miss-rate, AMAT, and energy accounting for a simulation run.

Runtime for the static-energy term is the total LLC service time: the sum
of all hit latencies plus the memory penalty for every miss.  Energy is
reported in normalized units; dynamic energy charges each read, each write,
and each block relocation performed by data shuffling as one extra write.
"""

import csv
import io
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class EnergyParams:
    static_power_units_per_cycle: float = 1.0
    e_read_units: float = 1.0
    e_write_units: float = 2.0

    def __post_init__(self):
        if min(self.static_power_units_per_cycle, self.e_read_units,
               self.e_write_units) < 0:
            raise ValueError("energy parameters must be non-negative")


@dataclass
class RunStats:
    """The counts of one run; every total follows from them.

    A hit costs its histogram latency (hit latency plus, in NUCA, the NoC
    round trip).  A miss costs memory_latency_cycles and nothing else: no
    NoC trip and no hit latency, whatever the bank or the policy, and a
    request that partial disabling sends straight to memory is priced the
    same way.
    """

    memory_latency_cycles: int = 30
    accesses: int = 0
    writes: int = 0
    shuffle_moves: int = 0
    hit_latency_histogram: Counter = field(default_factory=Counter)

    @property
    def hits(self):
        return sum(self.hit_latency_histogram.values())

    @property
    def misses(self):
        return self.accesses - self.hits

    @property
    def reads(self):
        return self.accesses - self.writes

    @property
    def total_llc_cycles(self):
        return (sum(c * n for c, n in self.hit_latency_histogram.items())
                + self.misses * self.memory_latency_cycles)

    @property
    def llc_miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def mean_hit_latency(self):
        return (sum(c * n for c, n in self.hit_latency_histogram.items()) / self.hits
                if self.hits else 0.0)


def record_access(stats, result):
    """Count one AccessResult; a hit lands in the histogram at its cost."""
    stats.accesses += 1
    if result.write:
        stats.writes += 1
    stats.shuffle_moves += result.shuffle_moves
    if result.hit:
        stats.hit_latency_histogram[result.latency_cycles] += 1
    return stats


def amat(stats):
    """Average memory access time: mean hit latency + miss_rate * memory penalty."""
    if stats.accesses == 0:
        raise ValueError("no accesses recorded")
    return (stats.mean_hit_latency
            + stats.llc_miss_rate * stats.memory_latency_cycles)


def energy(stats, params):
    """(static, dynamic) energy in normalized units."""
    static = stats.total_llc_cycles * params.static_power_units_per_cycle
    dynamic = (params.e_read_units * stats.reads
               + params.e_write_units * (stats.writes + stats.shuffle_moves))
    return static, dynamic


CSV_FIELDS = ["policy", "layout", "workload", "accesses", "hits", "misses",
              "miss_rate", "mean_hit_latency", "amat", "total_llc_cycles",
              "shuffle_moves", "reads", "writes", "static_energy",
              "dynamic_energy", "total_energy"]


def stats_row(stats, params, policy, layout, workload):
    """One CSV row of all run statistics, deterministically formatted."""
    static, dynamic = energy(stats, params)
    values = {
        "policy": policy,
        "layout": layout,
        "workload": workload,
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "miss_rate": f"{stats.llc_miss_rate:.6f}",
        "mean_hit_latency": f"{stats.mean_hit_latency:.6f}",
        "amat": f"{amat(stats):.6f}" if stats.accesses else "",
        "total_llc_cycles": stats.total_llc_cycles,
        "shuffle_moves": stats.shuffle_moves,
        "reads": stats.reads,
        "writes": stats.writes,
        "static_energy": f"{static:.6f}",
        "dynamic_energy": f"{dynamic:.6f}",
        "total_energy": f"{static + dynamic:.6f}",
    }
    return [str(values[f]) for f in CSV_FIELDS]


def csv_text(rows):
    """The rows as CSV text, one line each; a cell holding a comma, a double
    quote or a newline is quoted, every other cell is written as it is.  The
    writer quotes no carriage return but the line terminator's, so a row
    with a cell holding one is written with every cell quoted."""
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        carriage = any(isinstance(cell, str) and "\r" in cell for cell in row)
        (quoted if carriage else plain).writerow(row)
    return out.getvalue()


def write_stats_csv(rows):
    return csv_text([CSV_FIELDS, *rows])


def write_histogram_csv(stats):
    hist = stats.hit_latency_histogram
    return csv_text([("cycles", "count"),
                     *((c, hist[c]) for c in sorted(hist))])
