"""Generative sampler: determinism, stream isolation, distributional checks."""

import math

import numpy as np
import pytest

from pwsurv import (
    ModelKind,
    ModelSpec,
    SimConfig,
    model_survival,
    ptm_survival,
    simulate_cohort,
    zt_poisson_mean,
)
from pwsurv.models import _latent_count

from cohorts import default_spec, recovery_spec


class TestSimConfig:
    def test_validation(self):
        m = ModelSpec.zero_truncated(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SimConfig(model=m, n=0, horizon=1.0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(model=m, n=5, horizon=0.0, seed=0)

    def test_ptm_requires_finite_horizon(self):
        m = ModelSpec.promotion_time(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SimConfig(model=m, n=5, horizon=math.inf, seed=0)
        # fine for the zero-truncated kind: every subject fails eventually
        zt = ModelSpec.zero_truncated(1.0, 1.0, 1.0)
        SimConfig(model=zt, n=5, horizon=math.inf, seed=0)


def latent_counts(kind: ModelKind, theta: float, n: int, seed: int) -> np.ndarray:
    """One column of n latent counts, drawn as simulate_cohort draws M."""
    rng = np.random.default_rng(seed)
    return _latent_count(kind, theta, rng.random(n), rng)


class TestLatentCountSampler:
    def test_truncated_draws_never_zero(self):
        # theta near zero is the stress case: the untruncated mass at zero
        # would be about 0.95
        draws = latent_counts(ModelKind.ZERO_TRUNCATED, 0.05, 10**6, seed=1)
        assert draws.min() >= 1

    def test_truncated_mean_matches_closed_form(self):
        draws = latent_counts(ModelKind.ZERO_TRUNCATED, 1.4644, 10**5, seed=2)
        assert np.mean(draws) == pytest.approx(zt_poisson_mean(1.4644), abs=0.02)
        assert np.mean(draws) == pytest.approx(1.9048, abs=0.02)

    @pytest.mark.parametrize("theta", [5000.0, 20000.0])
    def test_truncated_mean_beyond_exp_overflow(self, theta):
        # e^theta overflows a double for theta above about 709
        n = 2000
        draws = latent_counts(ModelKind.ZERO_TRUNCATED, theta, n, seed=4)
        se = math.sqrt(theta / n)  # the variance is theta to within e^-theta
        assert abs(np.mean(draws) - zt_poisson_mean(theta)) < 4.0 * se

    def test_poisson_zero_fraction(self):
        theta = 3.0614
        draws = latent_counts(ModelKind.PROMOTION_TIME, theta, 10**5, seed=3)
        assert np.mean(draws == 0) == pytest.approx(math.exp(-theta), abs=0.005)


class TestSimulateCohort:
    def test_deterministic_given_seed(self):
        m = ModelSpec.promotion_time(0.8, 1.2, 10.0)
        cfg = SimConfig(model=m, n=50, horizon=24.0, seed=123)
        assert simulate_cohort(cfg) == simulate_cohort(cfg)

    def test_single_subject_deterministic(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        cfg = SimConfig(model=m, n=1, horizon=math.inf, seed=7)
        assert simulate_cohort(cfg) == simulate_cohort(cfg)

    @pytest.mark.parametrize(
        "m",
        [
            ModelSpec.promotion_time(0.8, 1.2, 10.0),
            ModelSpec.zero_truncated(2.0, 1.2, 10.0),
            ModelSpec.zero_truncated(5000.0, 1.2, 10.0),
        ],
        ids=["ptm", "zt-theta-2", "zt-theta-5000"],
    )
    def test_per_subject_streams_are_prefix_stable(self, m):
        # subject i's record depends only on (seed, i), not on cohort size
        small = simulate_cohort(SimConfig(model=m, n=20, horizon=24.0, seed=11))
        large = simulate_cohort(SimConfig(model=m, n=500, horizon=24.0, seed=11))
        assert large[:20] == small

    @pytest.mark.parametrize(
        "m, horizon, seed, rows",
        [
            (
                ModelSpec.zero_truncated(1.4644, 1.3, 0.2), math.inf, 5,
                [(0.5502992398389178, 1), (0.23462814616457714, 1), (0.16667966708082474, 1),
                 (0.10957441914048034, 1), (0.01735966142763376, 1)],
            ),
            (
                ModelSpec.promotion_time(0.8, 1.2, 10.0), 24.0, 2,
                [(4.769604256955072, 1), (17.2965483478584, 1), (1.5622348001353412, 1),
                 (24.0, 0), (24.0, 0)],
            ),
        ],
        ids=["zt", "ptm"],
    )
    def test_stream_layout_is_pinned(self, m, horizon, seed, rows):
        # a change to the streams or the order they are read in redraws every
        # value; the tolerance only admits last-digit libm differences
        recs = simulate_cohort(SimConfig(model=m, n=5, horizon=horizon, seed=seed))
        assert recs.flags.tolist() == [d for _, d in rows]
        assert recs.times.tolist() == pytest.approx([t for t, _ in rows], rel=1e-12)

    def test_different_seeds_differ(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        a = simulate_cohort(SimConfig(model=m, n=100, horizon=math.inf, seed=0))
        b = simulate_cohort(SimConfig(model=m, n=100, horizon=math.inf, seed=1))
        assert a != b

    def test_cohort_label_attached(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        recs = simulate_cohort(SimConfig(model=m, n=5, horizon=math.inf, seed=0), cohort="x")
        assert all(r.cohort == "x" for r in recs)

    def test_zt_with_infinite_horizon_is_fully_observed(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        recs = simulate_cohort(SimConfig(model=m, n=500, horizon=math.inf, seed=4))
        assert all(r.event == 1 for r in recs)
        assert all(r.time > 0.0 for r in recs)

    def test_censoring_clamps_time_to_horizon(self):
        m = ModelSpec.promotion_time(0.8, 1.2, 10.0)
        recs = simulate_cohort(SimConfig(model=m, n=500, horizon=5.0, seed=4))
        for r in recs:
            if r.event == 0:
                assert r.time == 5.0
            else:
                assert 0.0 < r.time <= 5.0

    def test_tiny_theta_ptm_is_mostly_cured(self):
        m = ModelSpec.promotion_time(0.01, 1.2, 10.0)
        recs = simulate_cohort(SimConfig(model=m, n=300, horizon=24.0, seed=5))
        censored = sum(1 for r in recs if r.event == 0)
        assert censored > 280


class TestDistributionalConsistency:
    def test_zt_empirical_survival_matches_closed_form(self):
        m = default_spec("2006")
        n = 20000
        recs = simulate_cohort(SimConfig(model=m, n=n, horizon=math.inf, seed=0))
        times = np.array([r.time for r in recs])
        grid = np.linspace(0.02, 0.6, 80)
        emp = np.array([(times > t).mean() for t in grid])
        model = model_survival(grid, m)
        assert np.max(np.abs(emp - model)) < 1.63 / math.sqrt(n)

    def test_ptm_empirical_survival_matches_closed_form(self):
        m = recovery_spec("2009")
        n = 20000
        recs = simulate_cohort(SimConfig(model=m, n=n, horizon=24.0, seed=0))
        times = np.array([r.time for r in recs])
        # all censoring sits at the horizon, so below it the empirical
        # survivor function is exact
        grid = np.linspace(0.5, 23.5, 80)
        emp = np.array([(times > t).mean() for t in grid])
        model = ptm_survival(grid, m)
        assert np.max(np.abs(emp - model)) < 1.63 / math.sqrt(n)

    def test_censored_fraction_matches_model_survival_at_horizon(self):
        m = recovery_spec("2010")
        n = 20000
        recs = simulate_cohort(SimConfig(model=m, n=n, horizon=24.0, seed=1))
        frac = sum(1 for r in recs if r.event == 0) / n
        p = ptm_survival(24.0, m)
        assert abs(frac - p) < 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_nonrecovered_fraction_anchor_2007(self):
        # the 2007 recovery cohort leaves about 78.057% unrecovered at 24
        m = recovery_spec("2007")
        recs = simulate_cohort(SimConfig(model=m, n=20000, horizon=24.0, seed=2))
        frac = sum(1 for r in recs if r.event == 0) / len(recs)
        assert frac == pytest.approx(0.78057, abs=0.01)
