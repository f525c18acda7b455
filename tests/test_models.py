"""Model density/survival identities, normalization and loss-metric anchors."""

import numpy as np
import pytest
from scipy.integrate import quad

from pwsurv import (
    ModelKind,
    ModelSpec,
    cure_fraction,
    elgd_at_horizon,
    model_density,
    model_survival,
    ptm_density,
    ptm_survival,
    weibull_pdf,
    ztpw_density,
)

from cohorts import DEFAULT_FITS, RECOVERY_FITS, default_spec, recovery_spec

ZT_SPECS = [default_spec(c) for c in sorted(DEFAULT_FITS)]
PTM_SPECS = [recovery_spec(c) for c in sorted(RECOVERY_FITS)]


def grid_for(m: ModelSpec, n: int = 50) -> np.ndarray:
    # covers the bulk of the distribution plus a deep-tail point
    scale = m.weibull.scale
    return np.concatenate((np.linspace(scale * 0.02, scale * 3.0, n - 1), [scale * 8.0]))


class TestModelSpec:
    def test_zero_truncated_requires_positive_theta(self):
        with pytest.raises(ValueError):
            ModelSpec.zero_truncated(0.0, 1.0, 1.0)

    def test_promotion_time_allows_zero_theta(self):
        m = ModelSpec.promotion_time(0.0, 1.0, 1.0)
        assert cure_fraction(m) == 1.0

    def test_params_order(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        assert m.params() == (2.0, 1.5, 3.0)

    def test_kind_dispatch_guard(self):
        zt = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        ptm = ModelSpec.promotion_time(2.0, 1.5, 3.0)
        with pytest.raises(ValueError):
            ztpw_density(1.0, ptm)
        with pytest.raises(ValueError):
            ptm_survival(1.0, zt)

    def test_model_dispatchers_route_by_kind(self):
        zt = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        ptm = ModelSpec.promotion_time(0.8, 1.2, 10.0)
        assert model_density(1.3, zt) == ztpw_density(1.3, zt)
        assert model_density(1.3, ptm) == ptm_density(1.3, ptm)
        assert model_survival(1.3, ptm) == ptm_survival(1.3, ptm)


class TestZeroTruncatedModel:
    @pytest.mark.parametrize("m", ZT_SPECS, ids=sorted(DEFAULT_FITS))
    def test_density_integrates_to_one(self, m):
        total, err = quad(lambda t: ztpw_density(t, m), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("m", ZT_SPECS, ids=sorted(DEFAULT_FITS))
    def test_density_is_negative_survival_slope(self, m):
        for t in grid_for(m)[:-1]:
            h = 1e-6 * max(1.0, t)
            slope = (model_survival(t + h, m) - model_survival(t - h, m)) / (2.0 * h)
            assert ztpw_density(t, m) == pytest.approx(-slope, rel=1e-5, abs=1e-12)

    def test_survival_boundary_values(self):
        m = ModelSpec.zero_truncated(2.9149, 2.7082, 0.2223)
        assert model_survival(0.0, m) == pytest.approx(1.0, rel=1e-14)
        assert model_survival(1e9, m) == 0.0

    def test_frozen_reference_points(self):
        m = ModelSpec.zero_truncated(2.9149, 2.7082, 0.2223)
        assert model_survival(0.2223, m) == pytest.approx(0.11017304021115465, rel=1e-13)
        assert ztpw_density(0.2223, m) == pytest.approx(2.188055182394875, rel=1e-13)

    def test_reduces_to_weibull_as_theta_vanishes(self):
        # conditioned on one cause, the observable is the Weibull time itself
        m = ModelSpec.zero_truncated(1e-10, 1.5, 3.0)
        w = m.weibull
        for t in (0.5, 1.0, 4.0):
            assert ztpw_density(t, m) == pytest.approx(weibull_pdf(t, w), rel=1e-8)

    def test_large_theta_branch_is_finite_and_normalized(self):
        m = ModelSpec.zero_truncated(800.0, 1.5, 3.0)
        s = model_survival(np.array([0.001, 0.01, 0.1]), m)
        assert np.all(np.isfinite(s))
        assert np.all(np.diff(s) < 0)
        total, _ = quad(lambda t: ztpw_density(t, m), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("m", ZT_SPECS, ids=sorted(DEFAULT_FITS))
    def test_survival_monotone_from_one_to_zero(self, m):
        g = grid_for(m)
        s = model_survival(g, m)
        assert np.all(np.diff(s) <= 0)
        assert s[0] < 1.0 and s[-1] >= 0.0

    @pytest.mark.parametrize("m", ZT_SPECS, ids=sorted(DEFAULT_FITS))
    def test_is_promotion_time_conditioned_on_an_event(self, m):
        # truncating the latent count at zero is the same as conditioning the
        # untruncated model on eventual failure
        theta, shape, scale = m.params()
        twin = ModelSpec.promotion_time(theta, shape, scale)
        g = grid_for(m)
        cured = cure_fraction(twin)
        conditioned = (ptm_survival(g, twin) - cured) / (1.0 - cured)
        np.testing.assert_allclose(
            model_survival(g, m), conditioned, rtol=1e-12, atol=1e-14
        )


class TestPromotionTimeModel:
    @pytest.mark.parametrize("m", PTM_SPECS, ids=sorted(RECOVERY_FITS))
    def test_density_mass_is_one_minus_cure_fraction(self, m):
        theta = m.theta.theta
        total, err = quad(lambda t: ptm_density(t, m), 0.0, np.inf, limit=200)
        assert total == pytest.approx(-np.expm1(-theta), abs=1e-6)

    @pytest.mark.parametrize("m", PTM_SPECS, ids=sorted(RECOVERY_FITS))
    def test_density_is_negative_survival_slope(self, m):
        for t in grid_for(m)[:-1]:
            h = 1e-6 * max(1.0, t)
            slope = (ptm_survival(t + h, m) - ptm_survival(t - h, m)) / (2.0 * h)
            assert ptm_density(t, m) == pytest.approx(-slope, rel=1e-5, abs=1e-12)

    @pytest.mark.parametrize("m", PTM_SPECS, ids=sorted(RECOVERY_FITS))
    def test_hazard_is_theta_times_weibull_density(self, m):
        theta = m.theta.theta
        g = grid_for(m)
        hazard = ptm_density(g, m) / ptm_survival(g, m)
        np.testing.assert_allclose(hazard, theta * weibull_pdf(g, m.weibull), rtol=1e-9)

    def test_survival_plateaus_at_cure_fraction(self):
        m = recovery_spec("2010")
        assert ptm_survival(1e9, m) == pytest.approx(cure_fraction(m), rel=1e-12)
        assert cure_fraction(m) == pytest.approx(0.04682209837518602, rel=1e-13)

    def test_frozen_reference_points(self):
        m = recovery_spec("2010")
        assert ptm_survival(24.0, m) == pytest.approx(0.4816520461232449, rel=1e-13)
        assert ptm_density(24.0, m) == pytest.approx(0.013578254562352571, rel=1e-13)

    def test_cure_fraction_2007(self):
        assert cure_fraction(recovery_spec("2007")) == pytest.approx(0.7511874934414792, rel=1e-13)


class TestElgd:
    def test_matches_survival_at_horizon(self):
        m = recovery_spec("2009")
        assert elgd_at_horizon(m, 24.0) == pytest.approx(ptm_survival(24.0, m), rel=1e-14)

    def test_approaches_cure_fraction_at_long_horizons(self):
        m = recovery_spec("2008")
        assert elgd_at_horizon(m, 1e9) == pytest.approx(cure_fraction(m), rel=1e-12)

    def test_horizon_validation(self):
        m = recovery_spec("2008")
        with pytest.raises(ValueError):
            elgd_at_horizon(m, 0.0)
        with pytest.raises(ValueError):
            elgd_at_horizon(m, -3.0)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            elgd_at_horizon(default_spec("2006"), 24.0)

    def test_decreases_with_horizon(self):
        m = recovery_spec("2011")
        values = [elgd_at_horizon(m, h) for h in (6.0, 12.0, 24.0, 48.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
