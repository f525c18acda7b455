"""Weibull and Poisson kernels against independent oracles and frozen values."""

import numpy as np
import pytest
import scipy.stats as st

from pwsurv import (
    LatentCountParams,
    WeibullParams,
    poisson_pmf,
    weibull_cdf,
    weibull_pdf,
    weibull_survival,
    zt_poisson_mean,
    zt_poisson_pmf,
)

PARAM_SETS = [(1.0, 2.0), (2.5, 3.1), (0.7, 10.0), (2.7082, 0.2223), (1.0647, 81.3458)]
GRID = np.array([1e-6, 0.05, 0.31, 1.0, 1.7, 4.0, 11.0, 60.0])


class TestWeibullParams:
    @pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf)])
    def test_rejects_bad_values(self, shape, scale):
        with pytest.raises(ValueError):
            WeibullParams(shape=shape, scale=scale)

    def test_from_rate_inverts_scale(self):
        p = WeibullParams.from_rate(shape=2.0, rate=0.25)
        assert p.scale == pytest.approx(4.0)
        assert p.shape == 2.0


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
        p = WeibullParams(shape, scale)
        np.testing.assert_allclose(weibull_cdf(GRID, p), st.weibull_min.cdf(GRID, shape, scale=scale), rtol=1e-13)
        np.testing.assert_allclose(weibull_survival(GRID, p), st.weibull_min.sf(GRID, shape, scale=scale), rtol=1e-13)

    def test_frozen_point_values(self):
        # exp(-1)/2 and two high-precision reference evaluations
        assert weibull_pdf(2.0, WeibullParams(1.0, 2.0)) == pytest.approx(0.18393972058572116, rel=1e-14)
        assert weibull_pdf(1.7, WeibullParams(2.5, 3.1)) == pytest.approx(0.2621152284373468, rel=1e-14)
        assert weibull_cdf(1.7, WeibullParams(2.5, 3.1)) == pytest.approx(0.199644198610279, rel=1e-14)

    def test_cdf_is_accurate_for_tiny_arguments(self):
        # naive 1 - exp(-x) would lose all digits at x ~ 1e-18
        p = WeibullParams(1.0, 1.0)
        assert weibull_cdf(1e-18, p) == pytest.approx(1e-18, rel=1e-12)

    def test_origin_conventions(self):
        assert weibull_pdf(0.0, WeibullParams(2.0, 3.0)) == 0.0
        assert weibull_pdf(0.0, WeibullParams(1.0, 4.0)) == pytest.approx(0.25)
        assert weibull_pdf(0.0, WeibullParams(0.5, 1.0)) == np.inf
        assert weibull_cdf(0.0, WeibullParams(2.0, 3.0)) == 0.0
        assert weibull_survival(0.0, WeibullParams(2.0, 3.0)) == 1.0

    def test_far_tail_is_zero_not_nan(self):
        # polynomial factor overflows long before this point
        p = WeibullParams(50.0, 1.0)
        assert weibull_pdf(1e12, p) == 0.0
        assert weibull_survival(1e12, p) == 0.0

    def test_scalar_in_scalar_out(self):
        p = WeibullParams(2.0, 3.0)
        assert isinstance(weibull_pdf(1.0, p), float)
        assert isinstance(weibull_pdf(np.array([1.0, 2.0]), p), np.ndarray)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            weibull_pdf(-1.0, WeibullParams(2.0, 3.0))
        with pytest.raises(ValueError):
            weibull_cdf(np.array([1.0, -0.5]), WeibullParams(2.0, 3.0))

    @pytest.mark.parametrize("shape,scale", PARAM_SETS)
    def test_cdf_survival_complementarity(self, shape, scale):
        p = WeibullParams(shape, scale)
        np.testing.assert_allclose(weibull_cdf(GRID, p) + weibull_survival(GRID, p), 1.0, rtol=1e-14)


class TestPoissonKernels:
    @pytest.mark.parametrize("theta", [0.05, 0.3677, 1.4644, 3.0614, 20.0])
    def test_poisson_pmf_matches_reference(self, theta):
        m = np.arange(0, 60)
        np.testing.assert_allclose(poisson_pmf(m, theta), st.poisson.pmf(m, theta), rtol=1e-12)

    @pytest.mark.parametrize("theta", [0.05, 0.9736, 2.9149, 15.0])
    def test_zt_pmf_is_conditional_poisson(self, theta):
        m = np.arange(1, 80)
        expected = st.poisson.pmf(m, theta) / -np.expm1(-theta)
        np.testing.assert_allclose(zt_poisson_pmf(m, theta), expected, rtol=1e-12)
        assert zt_poisson_pmf(m, theta).sum() == pytest.approx(1.0, abs=1e-10)

    def test_zt_pmf_frozen_value(self):
        # at theta = ln 2 the mass at one is exactly ln 2
        assert zt_poisson_pmf(1, np.log(2.0)) == pytest.approx(0.6931471805599453, rel=1e-14)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_pmf(1.5, 1.0)
        with pytest.raises(ValueError):
            zt_poisson_pmf(0, 1.0)

    @pytest.mark.parametrize("theta", [0.0, -1.0, np.nan])
    def test_theta_validation(self, theta):
        with pytest.raises(ValueError):
            poisson_pmf(1, theta)
        with pytest.raises(ValueError):
            zt_poisson_pmf(1, theta)
        with pytest.raises(ValueError):
            zt_poisson_mean(theta)


class TestZtPoissonMean:
    @pytest.mark.parametrize("theta", [0.01, 0.3677, 0.9736, 1.1361, 1.4644, 2.9149, 8.0])
    def test_matches_series_sum(self, theta):
        m = np.arange(1, 400)
        series = float(np.sum(m * zt_poisson_pmf(m, theta)))
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

