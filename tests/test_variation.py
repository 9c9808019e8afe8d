import numpy as np
import pytest

from cnfetcache.variation import (CntParams, draw_raw_counts,
                                  sample_group_strengths, surviving_counts)

TABLE_PARAMS = CntParams(mu=9.0, sigma=2.1, p_metallic=0.05,
                         p_remove_metallic=0.999,
                         p_remove_semiconducting=0.05, seed=11)


def test_zero_variance_gives_constant_count():
    params = CntParams(mu=9.0, sigma=0.0)
    rng = np.random.default_rng(0)
    assert np.all(draw_raw_counts(params, 50, rng) == 9)


def test_raw_count_mean_matches_distribution():
    # Sample mean of Normal(9, 2.1) rounded/clamped stays within 9 +/- 0.05
    # at a million draws (clamping at 0 is negligible 4+ sigma out).
    rng = np.random.default_rng(1)
    counts = draw_raw_counts(TABLE_PARAMS, 1_000_000, rng)
    assert abs(counts.mean() - 9.0) < 0.05


def test_rounding_and_clamping_forced():
    params = CntParams(mu=0.5, sigma=0.1)
    rng = np.random.default_rng(2)
    counts = draw_raw_counts(params, 10_000, rng)
    assert set(np.unique(counts)) <= {0, 1}


def test_effective_count_empty_and_lossless():
    rng = np.random.default_rng(3)
    assert np.all(surviving_counts([0, 0, 0], TABLE_PARAMS, rng) == 0)
    lossless = CntParams(mu=9.0, sigma=0.0, p_metallic=0.0,
                         p_remove_metallic=0.0, p_remove_semiconducting=0.0)
    assert np.all(surviving_counts([9, 4, 0], lossless, rng) == [9, 4, 0])


def test_effective_count_monte_carlo_mean():
    # Analytic oracle: each CNT survives with
    # q = p_m*(1-p_rm) + (1-p_m)*(1-p_rs) = 0.05*0.001 + 0.95*0.95 = 0.90255,
    # so E[survivors | raw=9] = 9*q = 8.12295.
    q = 0.05 * 0.001 + 0.95 * 0.95
    assert abs(9 * q - 8.12295) < 1e-9
    rng = np.random.default_rng(4)
    raw = np.full(1_000_000, 9, dtype=np.int64)
    survivors = surviving_counts(raw, TABLE_PARAMS, rng)
    assert abs(survivors.mean() - 8.1225) < 0.02


def test_effective_never_exceeds_raw():
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 30, size=5000)
    survivors = surviving_counts(raw, TABLE_PARAMS, rng)
    assert np.all(survivors <= raw)
    assert np.all(survivors >= 0)


def test_group_strengths_unvaried():
    params = CntParams(mu=9.0, sigma=0.0, p_metallic=0.0,
                       p_remove_metallic=0.0, p_remove_semiconducting=0.0)
    assert sample_group_strengths(params, 4, 8) == [9, 9, 9, 9]


def test_group_strengths_deterministic_under_seed():
    a = sample_group_strengths(TABLE_PARAMS, 2, 8)
    b = sample_group_strengths(TABLE_PARAMS, 2, 8)
    assert a == b
    many = sample_group_strengths(TABLE_PARAMS, 64, 8)
    assert many == sample_group_strengths(TABLE_PARAMS, 64, 8)


def test_group_strengths_rejects_zero_groups():
    with pytest.raises(ValueError):
        sample_group_strengths(TABLE_PARAMS, 0, 8)


def test_failed_fraction_negligible_at_table_params():
    counts = sample_group_strengths(TABLE_PARAMS, 4096, 8)
    assert all(type(c) is int and c >= 0 for c in counts)
    assert counts.count(0) / 4096 < 0.001


def test_within_group_correlation():
    # With removals off, every stage of a group sees the shared raw count, so
    # the min equals it; across groups the counts differ with sigma=2.1.
    params = CntParams(mu=9.0, sigma=2.1, p_metallic=0.0,
                       p_remove_metallic=0.0, p_remove_semiconducting=0.0,
                       seed=6)
    rng = np.random.default_rng(6)
    raw = draw_raw_counts(params, 64, rng)
    counts = sample_group_strengths(params, 64, 8, np.random.default_rng(6))
    assert counts == list(raw)
    assert len(set(counts)) >= 2


def test_removal_probability_monotonicity():
    # Raising the semiconducting removal probability cannot raise the mean
    # effective count; checked at Monte Carlo level with 3-SE tolerance.
    trials = 100_000
    means = []
    ses = []
    for p_rs in (0.05, 0.20, 0.50):
        params = CntParams(mu=9.0, sigma=2.1, p_remove_semiconducting=p_rs,
                           seed=7)
        eff = np.array(sample_group_strengths(params, trials, 4), dtype=float)
        means.append(eff.mean())
        ses.append(eff.std() / np.sqrt(trials))
    assert means[1] <= means[0] + 3 * (ses[0] + ses[1])
    assert means[2] <= means[1] + 3 * (ses[1] + ses[2])
    assert means[2] < means[0]


def test_params_validation():
    with pytest.raises(ValueError):
        CntParams(mu=-1.0)
    with pytest.raises(ValueError):
        CntParams(p_metallic=1.5)
    with pytest.raises(ValueError):
        CntParams(sigma=-0.1)
