from collections import Counter
from dataclasses import fields

import pytest

from cnfetcache.cache_core import AccessResult
from cnfetcache.metrics import (EnergyParams, RunStats, amat, energy,
                                record_access, stats_row,
                                write_histogram_csv, write_stats_csv)

PARAMS = EnergyParams()


def _hit(latency, write=False, moves=0):
    return AccessResult(hit=True, way=0, latency_cycles=latency, write=write,
                        shuffle_moves=moves)


def _miss(write=False, moves=0):
    return AccessResult(hit=False, latency_cycles=6, write=write,
                        shuffle_moves=moves)


def test_record_hit_updates_histogram():
    stats = RunStats()
    record_access(stats, _hit(6))
    assert stats.hits == 1 and stats.hit_latency_histogram[6] == 1
    assert stats.total_llc_cycles == 6


def test_record_miss_adds_memory_penalty():
    stats = RunStats(memory_latency_cycles=30)
    record_access(stats, _miss())
    assert stats.misses == 1 and stats.total_llc_cycles == 30


def test_shuffle_moves_accumulate():
    stats = RunStats()
    record_access(stats, _hit(6, moves=2))
    record_access(stats, _miss(moves=4))
    assert stats.shuffle_moves == 6


def test_histogram_mass_equals_hits():
    stats = RunStats()
    for latency in (6, 6, 7, 12):
        record_access(stats, _hit(latency))
    record_access(stats, _miss())
    assert sum(stats.hit_latency_histogram.values()) == stats.hits == 4
    assert stats.hits + stats.misses == stats.accesses


def test_amat_all_hits():
    stats = RunStats()
    for _ in range(5):
        record_access(stats, _hit(6))
    assert amat(stats) == 6.0


def test_amat_all_misses_at_least_memory():
    stats = RunStats(memory_latency_cycles=30)
    record_access(stats, _miss())
    assert amat(stats) >= 30


def test_amat_mixed_formula():
    stats = RunStats(memory_latency_cycles=30)
    record_access(stats, _hit(6))
    record_access(stats, _miss())
    assert amat(stats) == 6 + 0.5 * 30


def test_totals_follow_from_the_counts():
    # A memory latency other than the default 30: AMAT and the cycle total
    # read the stats' own.
    stats = RunStats(memory_latency_cycles=50, accesses=5, writes=2,
                     hit_latency_histogram=Counter({6: 2, 9: 1}))
    assert [f.name for f in fields(RunStats)] == [
        "memory_latency_cycles", "accesses", "writes", "shuffle_moves",
        "hit_latency_histogram"]
    assert (stats.hits, stats.misses, stats.reads) == (3, 2, 3)
    assert stats.total_llc_cycles == 6 * 2 + 9 + 2 * 50 == 121
    assert stats.mean_hit_latency == 7.0 and stats.llc_miss_rate == 0.4
    assert amat(stats) == 7 + 0.4 * 50 == 27.0
    assert energy(stats, PARAMS) == (121.0, 3 * 1.0 + 2 * 2.0)


def test_amat_rejects_empty():
    with pytest.raises(ValueError):
        amat(RunStats())


def test_energy_zero_accesses():
    stats = RunStats()
    static, dynamic = energy(stats, PARAMS)
    assert dynamic == 0.0 and static == 0.0


def test_shuffles_charged_as_writes():
    stats = RunStats()
    record_access(stats, _hit(6, moves=10))
    params = EnergyParams(e_read_units=0.0, e_write_units=2.0)
    _, dynamic = energy(stats, params)
    assert dynamic == 20.0


def test_shorter_runtime_lowers_static_energy():
    fast, slow = RunStats(), RunStats()
    record_access(fast, _hit(6))
    record_access(slow, _hit(12))
    assert energy(fast, PARAMS)[0] < energy(slow, PARAMS)[0]


def test_energy_decomposition_exact():
    stats = RunStats()
    for i in range(100):
        record_access(stats, _hit(6 + i % 3, write=i % 2 == 0, moves=i % 4))
    static, dynamic = energy(stats, PARAMS)
    total = static + dynamic
    assert total == static + dynamic
    expected_dynamic = (PARAMS.e_read_units * stats.reads
                        + PARAMS.e_write_units * (stats.writes
                                                  + stats.shuffle_moves))
    assert dynamic == expected_dynamic


def test_amat_monotone_in_hit_latency():
    # Pointwise lowering a hit latency never increases AMAT.
    base = RunStats()
    lower = RunStats()
    seq = [6, 8, 12, 7, 9]
    for latency in seq:
        record_access(base, _hit(latency))
        record_access(lower, _hit(latency - 1))
        record_access(base, _miss())
        record_access(lower, _miss())
    assert amat(lower) <= amat(base)


def test_csv_shapes():
    stats = RunStats()
    record_access(stats, _hit(6))
    record_access(stats, _miss(write=True))
    row = stats_row(stats, PARAMS, "vasa", "set_aligned", "wl")
    text = write_stats_csv([row])
    lines = text.strip().split("\n")
    assert lines[0].startswith("policy,layout,workload,accesses")
    assert lines[1].split(",")[0] == "vasa"
    hist = write_histogram_csv(stats)
    assert hist == "cycles,count\n6,1\n"


def test_csv_rows_have_fixed_column_count():
    import csv as csv_mod
    import io as io_mod
    stats = RunStats()
    record_access(stats, _hit(6))
    row = stats_row(stats, PARAMS, "vasa",
                    "set_aligned", "synthetic(pages=8;zipf=1.2;seed=0)")
    text = write_stats_csv([row])
    parsed = list(csv_mod.reader(io_mod.StringIO(text)))
    assert len(parsed[0]) == len(parsed[1])
