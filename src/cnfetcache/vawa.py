"""Variation-aware way aligned cache: per-set latency classes and grouping.

A way aligned layout gives every cache set its own latency, but a delay
register per set is too expensive.  Two compressions are provided: uniform
grouping (evenly sized groups clocked at their slowest member) and
non-uniform grouping, which spends a fixed register budget recording only
the (start,end) index runs of the low-latency classes and leaves every
uncovered set at the worst timing.  A set is charged the latency of the
first (fastest) class whose runs contain it.  Both build a flat per-set
latency list once; NG also returns its runs for the register accounting.
"""

# Register-file sizes of the two grouping schemes as modeled for the
# overhead report (4096-set reference configuration).
UNIFORM_GROUPING_REGISTER_BYTES = 224
NONUNIFORM_GROUPING_REGISTER_BYTES = 194
# Register count figure commonly quoted for a two-class table; the
# budget-derived count is reported alongside it.
REPORTED_INDEX_REGISTERS = 128


def uniform_latencies(latmap, num_groups):
    """Evenly partition the sets; each set is charged its group's slowest set."""
    num_sets = len(latmap.latencies)
    if num_groups < 1 or num_sets % num_groups != 0:
        raise ValueError("num_groups must divide the set count")
    per = num_sets // num_groups
    out = []
    for g in range(num_groups):
        out += [max(latmap.latencies[g * per:(g + 1) * per])] * per
    return out


def _qualifying_runs(latencies, max_latency, granularity, out, worst):
    """Maximal runs of consecutive granularity-aligned blocks whose sets all
    have latency <= max_latency and are still at `worst` in `out` (not
    covered by a faster class)."""
    num_blocks = len(latencies) // granularity
    ok = []
    for b in range(num_blocks):
        block = range(b * granularity, (b + 1) * granularity)
        ok.append(all(latencies[s] <= max_latency and out[s] == worst
                      for s in block))
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
    """Cover the fastest set runs within a per-class register budget.

    Classes are processed fastest first; a class-M run may contain any set
    with latency <= M that no faster class already covers.  Of all maximal
    qualifying runs the budget_per_class longest are kept (ties by lower
    start index).  Uncovered sets default to the map's worst latency.
    Returns the per-set latency list and, per class, its chosen inclusive
    (start, end) runs in ascending order.
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
    out = [worst] * num_sets
    runs_per_class = []
    for cycles in classes:
        runs = _qualifying_runs(latencies, cycles, granularity, out, worst)
        runs.sort(key=lambda r: (-(r[1] - r[0] + 1), r[0]))
        chosen = sorted(runs[:budget_per_class])
        for a, b in chosen:
            out[a:b + 1] = [cycles] * (b - a + 1)
        runs_per_class.append(chosen)
    return out, runs_per_class


def overhead_report(runs_per_class=None):
    """Register sizes of both groupings; given NG's runs, also the index
    registers they occupy (a start and an end per run)."""
    report = {
        "uniform_register_bytes": UNIFORM_GROUPING_REGISTER_BYTES,
        "nonuniform_register_bytes": NONUNIFORM_GROUPING_REGISTER_BYTES,
        "reported_index_registers": REPORTED_INDEX_REGISTERS,
    }
    if runs_per_class is not None:
        report["index_registers_used"] = sum(2 * len(runs)
                                             for runs in runs_per_class)
    return report
