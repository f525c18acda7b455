"""Weibull kernels, the latent count's Poisson laws and the zt mean against independent oracles and frozen values."""

import math

import numpy as np
import pytest
import scipy.stats as st

from pwsurv import (
    LatentCountParams,
    ModelKind,
    ModelSpec,
    WeibullParams,
    ptm_survival,
    weibull_pdf,
    zt_poisson_mean,
)
from pwsurv.models import _latent_count

PARAM_SETS = [(1.0, 2.0), (2.5, 3.1), (0.7, 10.0), (2.7082, 0.2223), (1.0647, 81.3458)]
GRID = np.array([1e-6, 0.05, 0.31, 1.0, 1.7, 4.0, 11.0, 60.0])


class TestWeibullParams:
    @pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf)])
    def test_rejects_bad_values(self, shape, scale):
        with pytest.raises(ValueError):
            WeibullParams(shape=shape, scale=scale)


class TestLatentCountParams:
    def test_zero_allowed(self):
        assert LatentCountParams(0.0).theta == 0.0

    @pytest.mark.parametrize("theta", [-0.1, np.nan, np.inf])
    def test_rejects_bad_values(self, theta):
        with pytest.raises(ValueError):
            LatentCountParams(theta)


class TestWeibullKernels:
    @pytest.mark.parametrize("shape,scale", PARAM_SETS)
    def test_pdf_matches_reference_implementation(self, shape, scale):
        p = WeibullParams(shape, scale)
        expected = st.weibull_min.pdf(GRID, shape, scale=scale)
        np.testing.assert_allclose(weibull_pdf(GRID, p), expected, rtol=1e-12)

    @pytest.mark.parametrize("shape,scale", PARAM_SETS)
    def test_cdf_and_survival_match_reference(self, shape, scale):
        # the Weibull CDF F enters every model through the ptm survival exp(-theta F)
        m = ModelSpec.promotion_time(1.0, shape, scale)
        expected = np.exp(-st.weibull_min.cdf(GRID, shape, scale=scale))
        np.testing.assert_allclose(ptm_survival(GRID, m), expected, rtol=1e-13)

    def test_frozen_point_values(self):
        # exp(-1)/2 and two high-precision reference evaluations
        assert weibull_pdf(2.0, WeibullParams(1.0, 2.0)) == pytest.approx(0.18393972058572116, rel=1e-14)
        assert weibull_pdf(1.7, WeibullParams(2.5, 3.1)) == pytest.approx(0.2621152284373468, rel=1e-14)
        m = ModelSpec.promotion_time(1.0, 2.5, 3.1)
        assert ptm_survival(1.7, m) == pytest.approx(np.exp(-0.199644198610279), rel=1e-14)

    def test_cdf_is_accurate_for_tiny_arguments(self):
        # naive 1 - exp(-x) would lose all digits of F at x ~ 1e-18 and give
        # a survival of exactly 1; theta F = 1e-3 keeps them visible
        m = ModelSpec.promotion_time(1e15, 1.0, 1.0)
        assert ptm_survival(1e-18, m) == pytest.approx(np.exp(-1e-3), rel=1e-12)

    def test_origin_conventions(self):
        assert weibull_pdf(0.0, WeibullParams(2.0, 3.0)) == 0.0
        assert weibull_pdf(0.0, WeibullParams(1.0, 4.0)) == pytest.approx(0.25)
        assert weibull_pdf(0.0, WeibullParams(0.5, 1.0)) == np.inf
        assert ptm_survival(0.0, ModelSpec.promotion_time(1.0, 2.0, 3.0)) == 1.0

    def test_far_tail_is_zero_not_nan(self):
        # polynomial factor overflows long before this point
        p = WeibullParams(50.0, 1.0)
        assert weibull_pdf(1e12, p) == 0.0

    def test_scalar_in_scalar_out(self):
        p = WeibullParams(2.0, 3.0)
        assert isinstance(weibull_pdf(1.0, p), float)
        assert isinstance(weibull_pdf(np.array([1.0, 2.0]), p), np.ndarray)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            weibull_pdf(-1.0, WeibullParams(2.0, 3.0))
        with pytest.raises(ValueError):
            weibull_pdf(np.array([1.0, -0.5]), WeibullParams(2.0, 3.0))


def assert_draws_follow(kind: ModelKind, theta: float, cdf, seed: int) -> None:
    """10^5 latent counts, drawn as simulate_cohort draws M, against a count CDF.

    The bound is Kolmogorov's 1% point, which is conservative for a discrete law.
    """
    n = 10**5
    rng = np.random.default_rng(seed)
    draws = _latent_count(kind, theta, rng.random(n), rng)
    m = np.arange(draws.max() + 1)
    empirical = np.cumsum(np.bincount(draws)) / n
    assert np.max(np.abs(empirical - cdf(m))) < 1.63 / math.sqrt(n)


class TestPoissonKernels:
    @pytest.mark.parametrize("theta", [0.05, 0.3677, 1.4644, 3.0614, 20.0])
    def test_poisson_pmf_matches_reference(self, theta):
        # promotion-time M is Poisson(theta)
        assert_draws_follow(ModelKind.PROMOTION_TIME, theta, lambda m: st.poisson.cdf(m, theta), seed=10)

    @pytest.mark.parametrize("theta", [0.05, 0.9736, 2.9149, 15.0])
    def test_zt_pmf_is_conditional_poisson(self, theta):
        # zero-truncated M is Poisson(theta) conditioned on M >= 1
        cured = math.exp(-theta)

        def cdf(m):
            return (st.poisson.cdf(m, theta) - cured) / (1.0 - cured)

        assert_draws_follow(ModelKind.ZERO_TRUNCATED, theta, cdf, seed=11)

    def test_zt_pmf_frozen_value(self):
        # the zt mass at one is e^-theta times the zt mean; at theta = ln 2 it is exactly ln 2
        theta = math.log(2.0)
        assert math.exp(-theta) * zt_poisson_mean(theta) == pytest.approx(theta, rel=1e-14)

    @pytest.mark.parametrize("theta", [0.0, -1.0, np.nan])
    def test_theta_validation(self, theta):
        with pytest.raises(ValueError):
            zt_poisson_mean(theta)


class TestZtPoissonMean:
    @pytest.mark.parametrize("theta", [0.01, 0.3677, 0.9736, 1.1361, 1.4644, 2.9149, 8.0])
    def test_matches_series_sum(self, theta):
        m = np.arange(1, 400)
        series = float(np.sum(m * st.poisson.pmf(m, theta))) / -np.expm1(-theta)
        assert zt_poisson_mean(theta) == pytest.approx(series, rel=1e-12)

    def test_exceeds_theta_and_one(self):
        for theta in (0.05, 0.5, 1.0, 3.0, 10.0):
            mean = zt_poisson_mean(theta)
            assert mean > theta
            assert mean > 1.0

    def test_small_theta_limit(self):
        # mean -> 1 + theta/2 as theta -> 0
        assert zt_poisson_mean(1e-8) == pytest.approx(1.0 + 5e-9, abs=1e-12)

    def test_large_theta_approaches_theta(self):
        assert zt_poisson_mean(800.0) == pytest.approx(800.0, rel=1e-15)

