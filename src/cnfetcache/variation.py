"""Monte Carlo model of CNT counts and drive strength for aligned CNFET groups.

Nanotube growth is spatially correlated along the growth direction: every
CNFET on the same track sees essentially the same tube count, while tracks
are independent of each other.  A "group" here is one such track (a cache
way in a set aligned layout, a cache set in a way aligned layout).  Each
group draws a single raw CNT count, then each series stage on its read
critical path independently loses tubes to metallic-CNT removal and
accidental semiconducting-CNT removal.  The group's usable drive strength
is the weakest stage.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CntParams:
    """CNT count distribution and removal probabilities for one process corner."""

    mu: float = 9.0
    sigma: float = 2.1
    p_metallic: float = 0.05
    p_remove_metallic: float = 0.999
    p_remove_semiconducting: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("p_metallic", "p_remove_metallic",
                     "p_remove_semiconducting"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0,1]")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def survival_probability(self):
        """Probability that a single CNT ends up conducting after processing."""
        return (self.p_metallic * (1.0 - self.p_remove_metallic)
                + (1.0 - self.p_metallic) * (1.0 - self.p_remove_semiconducting))


def draw_raw_counts(params, n, rng):
    """Vectorized raw CNT counts for n independent tracks."""
    if params.sigma == 0:
        return np.full(n, round(params.mu), dtype=np.int64)
    x = rng.normal(params.mu, params.sigma, size=n)
    return np.maximum(np.rint(x), 0).astype(np.int64)


def surviving_counts(raw_counts, params, rng):
    """Surviving conducting CNTs out of each raw count after processing.

    Each CNT is independently metallic with p_metallic.  Metallic tubes are
    targeted for removal and survive with 1 - p_remove_metallic;
    semiconducting tubes are accidentally removed with p_remove_semiconducting.
    """
    raw = np.asarray(raw_counts, dtype=np.int64)
    metallic = rng.binomial(raw, params.p_metallic)
    kept_m = rng.binomial(metallic, 1.0 - params.p_remove_metallic)
    kept_s = rng.binomial(raw - metallic, 1.0 - params.p_remove_semiconducting)
    return kept_m + kept_s


def sample_group_strengths(params, num_groups, stages_per_group, rng=None):
    """Sample the drive strength of num_groups independent aligned groups:
    each group's effective CNT count as an int, 0 meaning the group failed.

    One raw count is shared by all CNFETs of a group (full correlation along
    the growth direction); each of stages_per_group critical-path stages then
    loses CNTs independently, and the group strength is the minimum stage.
    With rng=None a fresh generator is seeded from params.seed, so identical
    arguments always produce identical output.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")
    if stages_per_group < 1:
        raise ValueError("stages_per_group must be >= 1")
    if rng is None:
        rng = np.random.default_rng(params.seed)
    raw = draw_raw_counts(params, num_groups, rng)
    # stages x groups matrix of per-stage survivors; each column shares raw.
    stage_counts = np.empty((stages_per_group, num_groups), dtype=np.int64)
    for s in range(stages_per_group):
        stage_counts[s] = surviving_counts(raw, params, rng)
    return stage_counts.min(axis=0).tolist()
