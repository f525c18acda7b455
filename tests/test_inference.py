"""Likelihoods, the Newton fit, and Wald inference."""

import inspect
import itertools
import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pwsurv import (
    EventTable,
    FitResult,
    LatentCountParams,
    ModelKind,
    ModelSpec,
    NoEventsError,
    SimConfig,
    SingularInformationError,
    WeibullParams,
    elgd_at_horizon,
    fit_mle,
    loglik_ptm,
    loglik_zt,
    model_density,
    model_survival,
    ptm_density,
    ptm_survival,
    simulate_cohort,
    wald_summary,
    ztpw_density,
)
from pwsurv.inference import (
    _GRADIENT_TOL,
    _SERIES_CUTOFF,
    PARAM_NAMES,
    Z_95,
    _ascent_direction,
    _collapse,
    _format_p_value,
    _initial_params,
    _loglik_derivatives,
    _newton_maximize,
    _ptm_loglik,
    _ptm_score,
    _wald_from_information,
    _zt_loglik,
    _zt_score,
)
from pwsurv.models import _latent_count, _weibull_terms
from pwsurv.report import fit_report_dict

from cohorts import DEFAULT_FITS, HORIZON, RECOVERY_FITS, all_specs, estimates, recovery_spec


def events(times):
    return EventTable(times, np.ones(len(times), dtype=int))


def mixed(pairs):
    times, flags = zip(*pairs)
    return EventTable(times, flags)


PIN_THETAS = [1e-8, 1e-3, 2.0, 50.0, 710.0]
PIN_TIMES = [0.01, 1.7, 6.0]

ZT_TOY = events([0.8, 2.5, 4.0, 1.2])
PTM_TOY = mixed([(3.0, 1), (24.0, 0), (7.5, 1), (24.0, 0), (1.1, 1)])
PTM_TOY_10 = mixed(
    [(0.7, 1), (1.9, 1), (3.2, 0), (4.4, 1), (6.0, 0),
     (7.5, 1), (9.1, 0), (11.6, 1), (14.0, 0), (18.3, 1)]
)


class TestLoglik:
    def test_zt_matches_high_precision_oracle(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        assert loglik_zt(ZT_TOY, m) == pytest.approx(-6.5164433610541411, abs=1e-10)
        m2 = ModelSpec.zero_truncated(1.0, 2.0, 1.0)
        five = events([0.4, 0.9, 1.3, 1.8, 2.5])
        assert loglik_zt(five, m2) == pytest.approx(-9.1234822281357237, abs=1e-10)

    def test_ptm_matches_high_precision_oracle(self):
        m = ModelSpec.promotion_time(0.8, 1.2, 10.0)
        assert loglik_ptm(PTM_TOY, m) == pytest.approx(-10.921527064324223, abs=1e-10)
        m2 = ModelSpec.promotion_time(0.5, 1.3, 5.0)
        assert loglik_ptm(PTM_TOY_10, m2) == pytest.approx(-27.020379047585868, abs=1e-10)

    # The kernel's sums against the model functions, compared as values: the
    # log of a survival near 1 has few correct digits even when the value is right.
    def test_zt_single_record_is_log_density(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        assert loglik_zt(events([1.7]), m) == pytest.approx(np.log(ztpw_density(1.7, m)), rel=1e-14)
        for theta, t in itertools.product(PIN_THETAS, PIN_TIMES):
            m = ModelSpec.zero_truncated(theta, 1.5, 3.0)
            got = np.exp(loglik_zt(events([t]), m))
            assert got == pytest.approx(ztpw_density(t, m), rel=1e-12), (theta, t)

    def test_ptm_single_records(self):
        m = ModelSpec.promotion_time(0.8, 1.2, 10.0)
        # censored record contributes -theta * F(tau)
        assert loglik_ptm(mixed([(6.0, 0)]), m) == pytest.approx(-0.33460641971530735, rel=1e-13)
        assert loglik_ptm(mixed([(6.0, 1)]), m) == pytest.approx(np.log(ptm_density(6.0, m)), rel=1e-13)
        for theta, t in itertools.product(PIN_THETAS, PIN_TIMES):
            m = ModelSpec.promotion_time(theta, 1.2, 10.0)
            censored = np.exp(loglik_ptm(mixed([(t, 0)]), m))
            assert censored == pytest.approx(ptm_survival(t, m), rel=1e-12), (theta, t)
            event = np.exp(loglik_ptm(mixed([(t, 1)]), m))
            assert event == pytest.approx(ptm_density(t, m), rel=1e-12), (theta, t)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loglik_zt(ZT_TOY, ModelSpec.promotion_time(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            loglik_ptm(PTM_TOY, ModelSpec.zero_truncated(1.0, 1.0, 1.0))

    def test_zt_rejects_censored_and_empty(self):
        m = ModelSpec.zero_truncated(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            loglik_zt(mixed([(1.0, 1), (2.0, 0)]), m)
        with pytest.raises(ValueError):
            loglik_zt(EventTable([], []), m)

    def test_ptm_rejects_empty(self):
        with pytest.raises(ValueError):
            loglik_ptm(EventTable([], []), ModelSpec.promotion_time(1.0, 1.0, 1.0))

    def test_permutation_leaves_loglik_nearly_unchanged(self):
        rng = np.random.default_rng(3)
        times = rng.weibull(1.5, 300) * 4.0 + 0.01
        m = ModelSpec.zero_truncated(1.7, 1.4, 4.2)
        base = loglik_zt(events(times), m)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(times)
            assert loglik_zt(events(perm), m) == pytest.approx(base, abs=1e-10)


def central_differences(fun, p, rel_step=1e-6):
    """Central differences of fun along each p[j], stacked on the last axis.

    The gradient of a scalar function; the Jacobian [i, j] = d fun_i / d p_j
    of a vector function.
    """
    cols = []
    for j in range(p.size):
        h = rel_step * max(1.0, abs(p[j]))
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        cols.append((fun(pp) - fun(pm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def random_problem(kind, seed):
    rng = np.random.default_rng(200 + seed)
    if kind is ModelKind.ZERO_TRUNCATED:
        times = rng.weibull(1.3, 60) * 3.0 + 0.05
        flags = np.ones(60)
        p = np.array([rng.uniform(0.3, 4.0), rng.uniform(0.6, 3.0), rng.uniform(0.5, 6.0)])
    else:
        times = rng.weibull(1.3, 60) * 8.0 + 0.05
        flags = (rng.random(60) < 0.6).astype(float)
        flags[0] = 1.0
        p = np.array([rng.uniform(0.2, 3.0), rng.uniform(0.6, 3.0), rng.uniform(2.0, 20.0)])
    return times, flags, p


def assert_hessian_matches_score_differences(kind, times, flags, p):
    pairs, _ = _collapse(times, flags)
    _, _, hess = _loglik_derivatives(kind, *pairs, p)
    fd = central_differences(lambda q: _loglik_derivatives(kind, *pairs, q)[1], p)
    np.testing.assert_array_equal(hess, hess.T)
    np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-6)


class TestScores:
    @pytest.mark.parametrize("seed", range(4))
    def test_zt_score_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        times = rng.weibull(1.3, 60) * 3.0 + 0.05
        p = np.array([rng.uniform(0.3, 4.0), rng.uniform(0.6, 3.0), rng.uniform(0.5, 6.0)])
        analytic = _zt_score(times, *p)
        fd = central_differences(lambda q: _zt_loglik(times, *q), p)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_ptm_score_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        times = rng.weibull(1.3, 60) * 8.0 + 0.05
        flags = (rng.random(60) < 0.6).astype(int)
        flags[0] = 1
        p = np.array([rng.uniform(0.2, 3.0), rng.uniform(0.6, 3.0), rng.uniform(2.0, 20.0)])
        analytic = _ptm_score(times, flags, *p)
        fd = central_differences(lambda q: _ptm_loglik(times, flags, *q), p)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_hessian_matches_finite_differences(self, kind, seed):
        assert_hessian_matches_score_differences(kind, *random_problem(kind, seed))

    def test_zt_hessian_at_theta_one_half(self):
        times, flags, _ = random_problem(ModelKind.ZERO_TRUNCATED, 0)
        p = np.array([0.5, 1.4, 2.0])
        assert_hessian_matches_score_differences(ModelKind.ZERO_TRUNCATED, times, flags, p)

    def test_zt_theta_information_is_smooth_through_zero(self):
        # -d2l/dtheta2 = n (1/theta^2 - e^-theta / (1 - e^-theta)^2), whose closed
        # form cancels to nothing as theta -> 0; its limit is n/12
        times, flags, _ = random_problem(ModelKind.ZERO_TRUNCATED, 1)
        n = times.size
        below = _SERIES_CUTOFF * (1.0 - 1e-9)
        above = _SERIES_CUTOFF * (1.0 + 1e-9)
        info = {}
        for theta in (1e-11, below, above, 0.5):
            _, _, hess = _loglik_derivatives(
                ModelKind.ZERO_TRUNCATED, *_collapse(times, flags)[0], (theta, 1.4, 2.0)
            )
            assert np.all(np.isfinite(hess))
            info[theta] = -hess[0, 0]
        assert info[1e-11] == pytest.approx(n / 12.0, rel=1e-12)
        assert info[above] == pytest.approx(info[below], rel=1e-8)
        assert info[below] == pytest.approx(n / 12.0, rel=1e-6)
        assert 0.0 < info[0.5] < n / 12.0


class TestCollapsedPairs:
    @staticmethod
    def monthly(kind, seed=3):
        # whole months, with censorings tied to each other and to event times
        rng = np.random.default_rng(seed)
        times = np.ceil(rng.weibull(1.2, 600) * 10.0)
        if kind is ModelKind.ZERO_TRUNCATED:
            return times, np.ones(times.size, dtype=np.int64)
        flags = (rng.random(times.size) < 0.6).astype(np.int64)
        times[flags == 0] = rng.choice([6.0, 12.0, 24.0], size=int(np.sum(flags == 0)))
        return times, flags

    def test_pairs_count_records_in_first_appearance_order(self):
        times, flags = self.monthly(ModelKind.PROMOTION_TIME)
        (t, d, counts), _ = _collapse(times, flags)
        pairs = list(zip(times.tolist(), flags.tolist()))
        assert list(zip(t.tolist(), d.tolist())) == list(dict.fromkeys(pairs))
        assert counts.tolist() == [pairs.count(p) for p in zip(t.tolist(), d.tolist())]

    def test_public_logliks_equal_the_kernel_helpers(self):
        p = (0.9, 1.3, 8.0)
        times, flags = self.monthly(ModelKind.ZERO_TRUNCATED)
        recs = EventTable(times, flags)
        assert loglik_zt(recs, ModelSpec.zero_truncated(*p)) == _zt_loglik(times, *p)
        times, flags = self.monthly(ModelKind.PROMOTION_TIME)
        recs = EventTable(times, flags)
        assert loglik_ptm(recs, ModelSpec.promotion_time(*p)) == _ptm_loglik(times, flags, *p)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_weighted_kernel_matches_expanded_records(self, kind):
        times, flags = self.monthly(kind)
        pairs, _ = _collapse(times, flags)
        assert pairs[0].size < times.size / 10
        p = (0.9, 1.3, 8.0)
        collapsed = _loglik_derivatives(kind, *pairs, p)
        expanded = _loglik_derivatives(kind, times, flags, np.ones(times.size), p)
        for a, b in zip(collapsed, expanded):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


def model_terms_loglik(kind, pairs, params):
    """Sum of counts * (log model_density at the events, log model_survival at the censorings)."""
    times, flags, counts = pairs
    spec = ModelSpec(kind, LatentCountParams(params[0]), WeibullParams(*params[1:]))
    event = flags == 1
    terms = np.empty(times.size)
    terms[event] = np.log(model_density(times[event], spec))
    terms[~event] = np.log(model_survival(times[~event], spec))
    return float(np.sum(terms if counts is None else counts * terms))


def no_cure_loglik(pairs, shape, rate):
    """Log-likelihood of the Weibull with cumulative hazard rate * t^shape and no cured fraction."""
    times, flags, counts = pairs
    terms = flags * (math.log(shape * rate) + (shape - 1.0) * np.log(times)) - rate * times**shape
    return float(np.sum(terms if counts is None else counts * terms))


class TestKernelIsTheModelTerms:
    # the kernel's value is the counts-weighted sum of the models' per-record log terms, from
    # theta near 0, through the zt series cutoff, to the no-cure limit theta -> inf
    THETAS = [1e-11, _SERIES_CUTOFF * (1.0 - 1e-9), _SERIES_CUTOFF * (1.0 + 1e-9), 1e13, 1e15, 1e17]

    @pytest.fixture(scope="class", params=all_specs(), ids=[label for label, _ in all_specs()])
    def cohort(self, request):
        _, spec = request.param
        horizon = math.inf if spec.kind is ModelKind.ZERO_TRUNCATED else HORIZON
        recs = simulate_cohort(SimConfig(model=spec, n=2000, horizon=horizon, seed=1077))
        return spec, _collapse(recs.times, recs.flags)[0]

    def test_at_the_reference_fit(self, cohort):
        spec, pairs = cohort
        ll = _loglik_derivatives(spec.kind, *pairs, spec.params())[0]
        assert ll == pytest.approx(model_terms_loglik(spec.kind, pairs, spec.params()), rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS, ids=["1e-11", "below-cutoff", "above-cutoff", "1e13", "1e15", "1e17"])
    def test_across_theta(self, cohort, theta):
        spec, pairs = cohort
        theta0, shape, scale0 = spec.params()
        # past theta = 1e13 the scale grows with theta so that theta * scale^-shape stays fixed
        scale = scale0 * (theta / theta0) ** (1.0 / shape) if theta >= 1e13 else scale0
        params = (theta, shape, scale)
        ll = _loglik_derivatives(spec.kind, *pairs, params)[0]
        assert ll == pytest.approx(model_terms_loglik(spec.kind, pairs, params), rel=1e-12)
        if theta >= 1e13:
            assert ll == pytest.approx(no_cure_loglik(pairs, shape, theta0 * scale0**-shape), rel=1e-9)

    def test_where_t_over_scale_overflows(self):
        # 1.7e308 / 0.5 is past the largest double, but log z = log t - log scale is finite
        theta, shape, scale = 1.0, 0.001, 0.5
        times = np.array([0.5, 1.5, 2.5, 1.7e308])
        pairs, _ = _collapse(times, np.ones(times.size))
        kind, params = ModelKind.ZERO_TRUNCATED, (theta, shape, scale)
        ll = _loglik_derivatives(kind, *pairs, params)[0]
        expected = 0.0
        for t in times:
            logz = math.log(t) - math.log(scale)
            w = math.exp(shape * logz)
            lead = math.log(theta / -math.expm1(-theta))
            expected += lead + theta * math.expm1(-w) + math.log(shape / scale) + (shape - 1.0) * logz - w
        assert ll == pytest.approx(expected, rel=1e-12)
        assert ll == pytest.approx(model_terms_loglik(kind, pairs, params), rel=1e-12)

    def test_zt_survival_is_not_evaluated_on_all_event_records(self):
        # a zt fit has no censored records; its survival, and the g(theta S) it divides for, is never needed
        times, flags, p = random_problem(ModelKind.ZERO_TRUNCATED, 0)
        pairs, _ = _collapse(times, flags)
        with patch("numpy.divide", side_effect=AssertionError("survival branch reached")):
            _loglik_derivatives(ModelKind.ZERO_TRUNCATED, *pairs, p)


def no_cure_supremum(times, flags):
    """Supremum of the promotion-time loglik as theta -> inf: the no-cure Weibull fit, by scipy.

    Profiles out the rate, D / sum t^shape, and maximizes over log shape.
    """
    event = flags == 1
    n_events = float(np.sum(event))
    top = float(np.max(times))
    logz = np.log(times / top)  # t^shape = top^shape z^shape, so sum z^shape cannot overflow

    def negative(u):
        shape = math.exp(u)
        rate = n_events / float(np.sum(np.exp(shape * logz)))  # of z^shape
        return -(n_events * math.log(shape * rate) + (shape - 1.0) * float(np.sum(logz[event])) - n_events)

    best = minimize_scalar(negative, bracket=(-1.0, 1.0), tol=1e-12)
    return -best.fun - n_events * math.log(top)  # back from z = t / top to t


class TestRunawayFits:
    # recovery-2010 cohorts whose likelihood rises toward the no-cure limit (theta and
    # the scale growing together) instead of to an interior maximum
    RUNAWAY = {1001, 1004, 1035, 1039, 1077, 1088, 1128, 1138, 1149, 1150, 1166, 1195, 1198}

    def test_no_fit_passes_the_no_cure_supremum_or_converges_on_the_way(self):
        spec = recovery_spec("2010")
        outcomes = {}
        for seed in range(1000, 1200):
            recs = simulate_cohort(SimConfig(model=spec, n=2000, horizon=HORIZON, seed=seed))
            try:
                fit = fit_mle(recs, ModelKind.PROMOTION_TIME)
            except SingularInformationError as err:
                assert "parameter 'theta' is not identified" in str(err)
                outcomes[seed] = "failed"
                continue
            supremum = no_cure_supremum(recs.times, recs.flags)
            if fit.converged:
                # Wald rows only at an interior maximum, which lies above the no-cure limit
                assert fit.loglik > supremum, seed
                continue
            outcomes[seed] = "not converged"
            assert np.all(np.isnan(fit.se))
            assert fit.loglik <= supremum + 1e-6, seed
        assert set(outcomes) == self.RUNAWAY
        assert outcomes[1077] == "not converged" and outcomes[1039] == "failed"

    def test_seed_1077_ends_at_the_no_cure_limit(self):
        # theta-hat grows without bound toward the no-cure limit, so the value must not cancel at large theta
        recs = simulate_cohort(SimConfig(model=recovery_spec("2010"), n=2000, horizon=HORIZON, seed=1077))
        fit = fit_mle(recs, ModelKind.PROMOTION_TIME)
        assert not fit.converged
        assert fit.loglik == pytest.approx(no_cure_supremum(recs.times, recs.flags), abs=1e-6)
        assert fit.loglik == pytest.approx(-4646.30358, abs=1e-5)


class TestFitMle:
    def test_recovers_zt_parameters_within_three_se(self):
        truth = estimates(DEFAULT_FITS, "2006")
        m = ModelSpec.zero_truncated(*truth)
        recs = simulate_cohort(SimConfig(model=m, n=20000, horizon=math.inf, seed=42))
        fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        assert fit.converged
        for est, se, true in zip(fit.estimates, fit.se, truth):
            assert abs(est - true) < 3.0 * se

    def test_recovers_ptm_parameters_and_loss_metric(self):
        truth = estimates(RECOVERY_FITS, "2010")
        m = ModelSpec.promotion_time(*truth)
        recs = simulate_cohort(SimConfig(model=m, n=20000, horizon=24.0, seed=3))
        fit = fit_mle(recs, ModelKind.PROMOTION_TIME)
        assert fit.converged
        for est, se, true in zip(fit.estimates, fit.se, truth):
            assert abs(est - true) < 3.0 * se
        censored_frac = np.count_nonzero(recs.flags == 0) / len(recs)
        assert abs(elgd_at_horizon(fit.model, 24.0) - censored_frac) < 0.01

    def test_converged_fit_satisfies_wald_identities(self):
        m = ModelSpec.promotion_time(0.9, 1.3, 9.0)
        recs = simulate_cohort(SimConfig(model=m, n=3000, horizon=30.0, seed=5))
        fit = fit_mle(recs, ModelKind.PROMOTION_TIME)
        assert fit.converged
        assert np.all(fit.se > 0.0)
        np.testing.assert_allclose(fit.ci_low, fit.estimates - Z_95 * fit.se, rtol=1e-14)
        np.testing.assert_allclose(fit.ci_high, fit.estimates + Z_95 * fit.se, rtol=1e-14)
        assert np.all(fit.ci_low < fit.estimates) and np.all(fit.estimates < fit.ci_high)
        assert fit.gradient_norm < _GRADIENT_TOL
        cov = fit.cov
        np.testing.assert_allclose(cov, cov.T, rtol=1e-12)

    def test_objective_trace_is_monotone_up_to_noise(self):
        m = ModelSpec.zero_truncated(1.5, 2.2, 0.4)
        recs = simulate_cohort(SimConfig(model=m, n=2000, horizon=math.inf, seed=9))
        fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        trace = np.array(fit.objective_trace)
        floor = -1e-8 * (1.0 + np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= floor)
        assert fit.loglik == trace[-1]

    def test_final_loglik_is_the_best_seen_up_to_noise(self):
        # every step on this cohort is inside the noise allowance; an allowance measured from
        # the current loglik instead of the best one lets the fit drift 0.11 below its peak
        m = ModelSpec.zero_truncated(1.0, 0.01, 1.0)
        recs = simulate_cohort(SimConfig(model=m, n=10000, horizon=math.inf, seed=0))
        fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        best = max(fit.objective_trace)
        assert fit.loglik >= best - 1e-9 * (1.0 + abs(best))

    def test_fit_is_deterministic(self):
        m = ModelSpec.promotion_time(0.6, 1.2, 7.0)
        recs = simulate_cohort(SimConfig(model=m, n=1000, horizon=20.0, seed=3))
        a = fit_mle(recs, ModelKind.PROMOTION_TIME)
        b = fit_mle(recs, ModelKind.PROMOTION_TIME)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.se, b.se)
        assert a.loglik == b.loglik

    def test_permuting_records_changes_nothing_material(self):
        m = ModelSpec.zero_truncated(1.8, 1.5, 2.0)
        recs = simulate_cohort(SimConfig(model=m, n=500, horizon=math.inf, seed=21))
        fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        order = np.random.default_rng(0).permutation(len(recs))
        shuffled = EventTable(recs.times[order], recs.flags[order])
        fit2 = fit_mle(shuffled, ModelKind.ZERO_TRUNCATED)
        np.testing.assert_allclose(fit2.estimates, fit.estimates, atol=1e-10)
        assert fit2.loglik == pytest.approx(fit.loglik, abs=1e-10)

    def test_explicit_start_reaches_same_optimum(self):
        m = ModelSpec.zero_truncated(1.5, 2.0, 0.5)
        recs = simulate_cohort(SimConfig(model=m, n=1500, horizon=math.inf, seed=17))
        default_fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        pairs = _collapse(recs.times, recs.flags)[0]
        with np.errstate(all="ignore"):
            estimates, loglik, _, _, converged, _, _ = _newton_maximize(
                ModelKind.ZERO_TRUNCATED, pairs, np.array([0.4, 1.1, 1.9]), 200
            )
        assert converged
        assert loglik == pytest.approx(default_fit.loglik, abs=1e-7)
        np.testing.assert_allclose(estimates, default_fit.estimates, rtol=1e-4)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize(
        "kind, model, horizon, seed",
        [
            (ModelKind.ZERO_TRUNCATED, ModelSpec.zero_truncated(1.5, 2.0, 0.5), math.inf, 17),
            (ModelKind.PROMOTION_TIME, ModelSpec.promotion_time(0.8, 1.2, 10.0), 24.0, 5),
        ],
        ids=["zt", "ptm"],
    )
    def test_scaled_truth_start_reaches_the_default_optimum(self, kind, model, horizon, seed, factor):
        # every parameter halved or doubled from the truth: the optimum is the default fit's
        recs = simulate_cohort(SimConfig(model=model, n=1500, horizon=horizon, seed=seed))
        default_fit = fit_mle(recs, kind)
        pairs = _collapse(recs.times, recs.flags)[0]
        with np.errstate(all="ignore"):
            estimates, loglik, _, _, converged, _, _ = _newton_maximize(
                kind, pairs, factor * np.array(model.params()), 200
            )
        assert converged
        assert loglik == pytest.approx(default_fit.loglik, abs=1e-7)
        np.testing.assert_allclose(estimates, default_fit.estimates, rtol=1e-4)

    def test_the_start_is_not_a_keyword(self):
        # the start always comes from the data; max_iterations is the one keyword
        params = inspect.signature(fit_mle).parameters
        assert list(params) == ["data", "kind", "max_iterations"]
        assert params["max_iterations"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["max_iterations"].default == 200
        with pytest.raises(TypeError):
            fit_mle(ZT_TOY, ModelKind.ZERO_TRUNCATED, initial=(1.0, 1.0, 1.0))

    def test_fitted_loglik_not_below_truth(self):
        truth = (1.2, 1.6, 3.0)
        m = ModelSpec.zero_truncated(*truth)
        recs = simulate_cohort(SimConfig(model=m, n=800, horizon=math.inf, seed=2))
        fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        assert fit.loglik >= loglik_zt(recs, m) - 1e-9

    def test_iteration_budget_exhaustion_is_reported(self):
        m = ModelSpec.zero_truncated(2.0, 1.5, 3.0)
        recs = simulate_cohort(SimConfig(model=m, n=300, horizon=math.inf, seed=1))
        fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED, max_iterations=1)
        assert not fit.converged
        assert fit.iterations <= 1
        assert np.all(np.isnan(fit.se))
        with pytest.raises(ValueError):
            wald_summary(fit)

    def test_censored_record_past_the_doubles_fits_as_a_large_one(self):
        # at 1.5e308 w is infinite at the start; S w = 0 * inf must not make the score NaN
        cohort = [(0.5, 1), (1.5, 1), (2.5, 1), (3.5, 0)]
        huge = fit_mle(mixed(cohort + [(1.5e308, 0)]), ModelKind.PROMOTION_TIME)
        large = fit_mle(mixed(cohort + [(1e6, 0)]), ModelKind.PROMOTION_TIME)
        assert huge.converged and large.converged
        np.testing.assert_array_equal(huge.estimates, large.estimates)
        assert huge.loglik == large.loglik

    def test_no_events_error(self):
        # checked before the distinct event times, so it keeps its own type
        recs = mixed([(24.0, 0), (24.0, 0), (24.0, 0)])
        with pytest.raises(NoEventsError):
            fit_mle(recs, ModelKind.PROMOTION_TIME)

    @pytest.mark.parametrize(
        "kind, recs",
        [
            (ModelKind.ZERO_TRUNCATED, events([1.0, 1.0, 1.0])),
            (ModelKind.PROMOTION_TIME, mixed([(1.0, 1), (1.0, 1), (24.0, 0), (24.0, 0)])),
        ],
    )
    @pytest.mark.parametrize("start", [{}], ids=["default"])
    def test_one_distinct_event_time_rejected(self, kind, recs, start):
        # the likelihood rises without bound as the shape grows
        with pytest.raises(ValueError, match="needs at least two distinct event times"):
            fit_mle(recs, kind, **start)

    def test_zt_rejects_censored_records(self):
        with pytest.raises(ValueError):
            fit_mle(mixed([(1.0, 1), (2.0, 0)]), ModelKind.ZERO_TRUNCATED)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_mle(EventTable([], []), ModelKind.ZERO_TRUNCATED)

    @pytest.mark.parametrize("kind", ["zt", "ptm", None])
    def test_kind_is_checked_before_the_records_are_grouped(self, kind):
        with patch("pwsurv.inference._collapse", side_effect=AssertionError("_collapse reached")):
            with pytest.raises(ValueError, match=f"^kind must be a ModelKind, got {kind!r}$"):
                fit_mle(PTM_TOY_10, kind)

    def test_negative_max_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations must be nonnegative, got -3"):
            fit_mle(ZT_TOY, ModelKind.ZERO_TRUNCATED, max_iterations=-3)

    @pytest.mark.parametrize("cap", [True, 0.5, 2.5, math.nan, np.float64(3.0), "5"], ids=repr)
    def test_non_integer_max_iterations_rejected(self, cap):
        with pytest.raises(ValueError) as info:
            fit_mle(ZT_TOY, ModelKind.ZERO_TRUNCATED, max_iterations=cap)
        assert str(info.value) == f"max_iterations must be an integer, got {cap!r}"

    def test_numpy_integer_max_iterations_accepted(self):
        fit = fit_mle(ZT_TOY, ModelKind.ZERO_TRUNCATED, max_iterations=np.int64(200))
        assert fit.converged and fit.iterations == fit_mle(ZT_TOY, ModelKind.ZERO_TRUNCATED).iterations


class TestPosteriorLatentCount:
    """θ's score equation at the MLE, read as an identity on the posterior mean of M.

    Given an event at t, M - 1 ~ Poisson(θ·S(t)); given a promotion-time record
    censored at c, M ~ Poisson(θ·S(c)), with S the fitted Weibull survival. At a
    converged fit the cohort mean of E[M | record] is θ̂ (ptm) or θ̂/(1 - e^{-θ̂}) (zt).
    At the true parameters, E[M | record] is calibrated against the simulated M.
    """

    @pytest.mark.parametrize("n", [2000, 20000])
    @pytest.mark.parametrize("label, spec", all_specs(), ids=[label for label, _ in all_specs()])
    def test_mean_posterior_count_is_the_latent_mean(self, label, spec, n):
        horizon = math.inf if spec.kind is ModelKind.ZERO_TRUNCATED else HORIZON
        recs = simulate_cohort(SimConfig(model=spec, n=n, horizon=horizon, seed=3))
        fit = fit_mle(recs, spec.kind)
        assert fit.converged
        theta, shape, scale = fit.estimates
        survival = np.exp(-((recs.times / scale) ** shape))
        posterior_mean = np.mean(recs.flags + theta * survival)
        latent_mean = theta / -math.expm1(-theta) if spec.kind is ModelKind.ZERO_TRUNCATED else theta
        assert posterior_mean == pytest.approx(latent_mean, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("label, spec", all_specs(), ids=[label for label, _ in all_specs()])
    def test_posterior_count_is_calibrated(self, label, spec):
        n, seed = 20000, 3
        horizon = math.inf if spec.kind is ModelKind.ZERO_TRUNCATED else HORIZON
        recs = simulate_cohort(SimConfig(model=spec, n=n, horizon=horizon, seed=seed))
        theta, shape, scale = spec.params()
        # each subject's M, redrawn from the streams simulate_cohort reads
        uniforms, counts, _ = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
        m = _latent_count(spec.kind, theta, uniforms.random(n), counts)
        assert not recs.flags[m == 0].any()  # a cured subject is censored
        expected = recs.flags + theta * np.exp(-((recs.times / scale) ** shape))
        gap = m - expected
        # the whole cohort, then five equal-count bins by rank of E[M | record]
        for part in [gap, *np.array_split(gap[np.argsort(expected, kind="stable")], 5)]:
            se = part.std(ddof=1) / math.sqrt(part.size)
            assert abs(part.mean()) <= 3 * se


# The start rule as three functions, kept as the reference the one rule in
# _initial_params must reproduce bit for bit.

def _reference_plot_fit(t, y):
    (slope, intercept), _, rank, _, _ = np.polyfit(np.log(t), y, 1, full=True)
    if rank == 2 and np.isfinite(slope) and slope > 0.0:
        scale = float(np.exp(-intercept / slope))
        if np.isfinite(scale) and scale > 0.0:
            return float(slope), scale
    return None


def _reference_km_start(curve, times):
    keep = (curve.survival > 0.0) & (curve.survival < 1.0)
    if np.count_nonzero(keep) >= 2:
        fit = _reference_plot_fit(curve.times[keep], np.log(-np.log(curve.survival[keep])))
        if fit is not None:
            return fit
    return 1.0, float(np.mean(times))


def _reference_ptm_start(curve, times):
    keep = curve.survival > 0.0
    cum = -np.log(curve.survival[keep])
    t = curve.times[keep]
    if t.size >= 2 and cum[-1] > 0.0:
        frac = cum / cum[-1]
        mid = (frac > 0.01) & (frac < 0.99)
        if np.count_nonzero(mid) >= 2:
            fit = _reference_plot_fit(t[mid], np.log(-np.log1p(-frac[mid])))
            if fit is not None:
                return fit
    return _reference_km_start(curve, times)


def _reference_start(kind, curve, times, flags):
    if kind is ModelKind.ZERO_TRUNCATED:
        return np.array([1.0, *_reference_km_start(curve, times)])
    shape0, scale0 = _reference_ptm_start(curve, times)
    w = _weibull_terms(times, shape0, scale0)[1]
    theta0 = min(max(float(np.sum(flags) / np.sum(-np.expm1(-w))), 1e-3), 1e3)
    return np.array([theta0, shape0, scale0])


class TestStartRule:
    @staticmethod
    def start(recs, kind):
        """The rule's start and the reference's, on the curve fit_mle builds."""
        times, flags = recs.times, recs.flags
        _, curve = _collapse(times, flags)
        return _initial_params(kind, curve, times, flags), _reference_start(kind, curve, times, flags), curve

    def test_zt_km_plot(self):
        m = ModelSpec.zero_truncated(1.5, 2.0, 0.5)
        recs = simulate_cohort(SimConfig(model=m, n=1000, horizon=math.inf, seed=3))
        start, reference, _ = self.start(recs, ModelKind.ZERO_TRUNCATED)
        np.testing.assert_array_equal(start, reference)
        assert start[0] == 1.0 and tuple(start[1:]) != (1.0, float(np.mean(recs.times)))

    def test_ptm_plateau_plot(self):
        recs = simulate_cohort(SimConfig(model=ModelSpec.promotion_time(0.8, 1.2, 10.0), n=1000, horizon=24.0, seed=2))
        start, reference, curve = self.start(recs, ModelKind.PROMOTION_TIME)
        np.testing.assert_array_equal(start, reference)
        # the plateau plot qualified: its start differs from the plain KM plot's
        assert tuple(start[1:]) != _reference_km_start(curve, recs.times)

    def test_ptm_with_events_in_two_months_falls_back_to_the_km_plot(self):
        # the rescaled curve is 1 at the last month, so only one point lies inside (0.01, 0.99)
        recs = mixed([(1.0, 1)] * 3 + [(2.0, 1)] * 5 + [(24.0, 0)] * 12)
        start, reference, curve = self.start(recs, ModelKind.PROMOTION_TIME)
        np.testing.assert_array_equal(start, reference)
        assert tuple(start[1:]) == _reference_km_start(curve, recs.times) != (1.0, float(np.mean(recs.times)))

    def test_zt_with_two_event_times_falls_back_to_shape_one_and_the_mean_time(self):
        # S is 1/3 then 0, so the KM plot keeps one point
        recs = events([1.0, 1.0, 2.0])
        start, reference, _ = self.start(recs, ModelKind.ZERO_TRUNCATED)
        np.testing.assert_array_equal(start, reference)
        np.testing.assert_array_equal(start, [1.0, 1.0, 4.0 / 3.0])

    def test_rank_deficient_plot_does_not_qualify(self):
        # four distinct times with one log: np.polyfit reports the plot's line as rank deficient
        recs = events([1e15, 1e15 + 0.125, 1e15 + 0.25, 1e15 + 0.375, 1e15, 1e15 + 0.125, 1e15 + 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start, reference, _ = self.start(recs, ModelKind.ZERO_TRUNCATED)
            fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        np.testing.assert_array_equal(start, reference)
        np.testing.assert_array_equal(start, [1.0, 1.0, float(np.mean(recs.times))])
        assert not fit.converged and fit.iterations == 200

    # pytest's filter makes a RuntimeWarning an error, so the start values that overflow must warn nothing
    def test_zt_start_whose_mean_time_overflows_fails_as_not_finite(self):
        with pytest.raises(ValueError, match="^log-likelihood is not finite at the starting point$"):
            fit_mle(events([1e308, 1e308, 1.7e308]), ModelKind.ZERO_TRUNCATED)

    def test_ptm_start_whose_profile_sum_overflows_is_fit(self):
        # the KM plot qualifies with a scale near 1e-300, so (t / scale) ** shape overflows at t = 1
        fit = fit_mle(mixed([(1e-300, 1), (2e-300, 1), (3e-300, 0), (1.0, 0)]), ModelKind.PROMOTION_TIME)
        assert np.isfinite(fit.loglik) and fit.iterations > 0


def _reference_direction(hess, g):
    """The ridge rule as a Cholesky attempt per shift, kept as the reference for the eigenvalue rule."""
    if np.all(np.isfinite(hess)):
        eye = np.eye(g.size)
        ridge = 1e-3 * max(1.0, float(np.max(np.abs(np.diag(hess)))))
        for lam in [0.0] + [ridge * 4.0**k for k in range(60)]:
            shifted = hess - lam * eye
            try:
                np.linalg.cholesky(-shifted)
                return np.linalg.solve(shifted, -g)
            except np.linalg.LinAlgError:
                pass
    return g / float(np.max(np.abs(g)))


class TestRidgeRule:
    G = np.array([0.3, -1.2, 0.7])

    def test_negative_definite_hessian_takes_the_newton_step(self):
        hess = np.array([[-4.0, 1.0, 0.5], [1.0, -3.0, 0.2], [0.5, 0.2, -2.0]])
        assert np.linalg.eigvalsh(hess)[-1] < 0.0
        np.testing.assert_array_equal(_ascent_direction(hess, self.G), np.linalg.solve(hess, -self.G))

    @pytest.mark.parametrize(
        "hess, ridge, k",
        [
            # ridge = 1e-3 * max |diag| = 2e-3; 2e-3 * 4^3 = 0.128 <= 0.5 < 2e-3 * 4^4
            (np.diag([-1.0, -2.0, 0.5]), 2e-3, 4),
            # a top eigenvalue of exactly 0 is not negative: the first shift, with ridge floored at 1e-3
            (np.diag([-1.0, -0.5, 0.0]), 1e-3, 0),
            # ridge = 30; 30 * 4^4 = 7680 <= 3e4 < 30 * 4^5
            (np.diag([-1.0, -0.5, 3e4]), 30.0, 5),
            # the last shift: ridge floored at 1e-3; 1e-3 * 4^58 <= 1e32 < 1e-3 * 4^59
            (np.array([[-0.01, 0.0, 0.0], [0.0, -0.01, 1e32], [0.0, 1e32, -0.01]]), 1e-3, 59),
        ],
    )
    def test_shift_is_the_least_ridge_power_above_the_top_eigenvalue(self, hess, ridge, k):
        lam = ridge * 4.0**k
        top = np.linalg.eigvalsh(hess)[-1]
        assert top < lam and (k == 0 or lam / 4.0 <= top)
        expected = np.linalg.solve(hess - lam * np.eye(3), -self.G)
        np.testing.assert_array_equal(_ascent_direction(hess, self.G), expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_hessian_takes_the_normalized_gradient_step(self, bad):
        hess = np.diag([-1.0, -1.0, -1.0])
        hess[0, 2] = hess[2, 0] = bad
        np.testing.assert_array_equal(_ascent_direction(hess, self.G), self.G / 1.2)

    def test_failed_solve_takes_the_normalized_gradient_step(self):
        hess = np.diag([-1.0, -2.0, -3.0])
        with patch("numpy.linalg.solve", side_effect=np.linalg.LinAlgError("singular matrix")):
            np.testing.assert_array_equal(_ascent_direction(hess, self.G), self.G / 1.2)

    def test_top_eigenvalue_beyond_the_last_shift_takes_the_normalized_gradient_step(self):
        # ridge = 1e-3 * 1e-2 floored at 1e-3; the last shift is 1e-3 * 4^59, about 3.3e32
        hess = np.array([[-0.01, 0.0, 0.0], [0.0, -0.01, 1e33], [0.0, 1e33, -0.01]])
        np.testing.assert_array_equal(_ascent_direction(hess, self.G), self.G / 1.2)

    def test_matches_the_cholesky_rule_on_random_matrices(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 2000:
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            magnitudes = 10.0 ** rng.uniform(-4.0, 4.0, 3)
            signs = rng.choice([-1.0, 1.0], 3, p=[0.7, 0.3])
            hess = (q * (signs * magnitudes)) @ q.T
            hess = (hess + hess.T) / 2.0
            if np.linalg.cond(hess) > 1e8:
                continue
            g = rng.standard_normal(3)
            np.testing.assert_array_equal(_ascent_direction(hess, g), _reference_direction(hess, g))
            checked += 1


@pytest.fixture(scope="module")
def fit():
    m = ModelSpec.promotion_time(0.9, 1.3, 9.0)
    recs = simulate_cohort(SimConfig(model=m, n=2000, horizon=30.0, seed=8))
    return fit_mle(recs, ModelKind.PROMOTION_TIME)


class TestWaldSummary:

    def test_rows_are_ordered_and_consistent(self, fit):
        rows = wald_summary(fit)
        assert [r["parameter"] for r in rows] == list(PARAM_NAMES)
        for row, est, se, lo, hi in zip(rows, fit.estimates, fit.se, fit.ci_low, fit.ci_high):
            assert list(row) == ["parameter", "estimate", "se", "ci_low", "ci_high", "p_value", "p_text"]
            assert row["estimate"] == est
            assert row["se"] == se
            assert row["ci_low"] == lo
            assert row["ci_high"] == hi
            z = est / se
            assert row["p_value"] == pytest.approx(math.erfc(abs(z) / math.sqrt(2.0)), rel=1e-12)
            assert row["p_text"] == _format_p_value(row["p_value"])

    def test_rows_take_the_fits_p_values(self):
        # the p-values are the ones fit_mle stored, not recomputed from estimate / se
        ones = np.ones(3)
        f = FitResult(
            model=ModelSpec.promotion_time(1.0, 1.0, 1.0),
            se=ones,
            ci_low=ones,
            ci_high=ones,
            p_value=np.full(3, 0.5),
            loglik=-1.0,
            converged=True,
            iterations=1,
            gradient_norm=0.0,
        )
        assert [row["p_value"] for row in wald_summary(f)] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_rows_are_the_reports_rows(self, kind):
        m = ModelSpec(kind, LatentCountParams(0.9), WeibullParams(1.3, 9.0))
        horizon = math.inf if kind is ModelKind.ZERO_TRUNCATED else 30.0
        recs = simulate_cohort(SimConfig(model=m, n=800, horizon=horizon, seed=4))
        fit = fit_mle(recs, kind)
        assert fit.converged
        assert wald_summary(fit) == fit_report_dict("c", fit, 24.0)["parameters"]

    def test_far_tail_renders_as_below_threshold(self):
        # z = 43.7 is far beyond any printable tail mass
        z = 43.7
        p = math.erfc(z / math.sqrt(2.0))
        assert _format_p_value(p) == "< 0.0001"

    def test_p_value_rendering_boundary(self):
        assert _format_p_value(0.5) == "0.5000"
        assert _format_p_value(1e-4) == "0.0001"
        assert _format_p_value(9.9e-5) == "< 0.0001"


class TestSingularInformation:
    def test_error_names_offending_parameter(self):
        info = np.diag([4.0, 0.0, 9.0])
        with pytest.raises(SingularInformationError, match="shape"):
            _wald_from_information(info)

    def test_non_finite_information(self):
        info = np.diag([4.0, 1.0, np.inf])
        with pytest.raises(SingularInformationError, match="scale"):
            _wald_from_information(info)

    def test_healthy_information_passes(self):
        cov, se = _wald_from_information(np.diag([4.0, 16.0, 25.0]))
        np.testing.assert_allclose(se, [0.5, 0.25, 0.2])

    def test_indefinite_information_is_rejected(self):
        # a saddle point: the inverse has a positive diagonal, but one eigenvalue is -3
        info = np.array([[-1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.all(np.diag(np.linalg.inv(info)) > 0.0)
        with pytest.raises(
            SingularInformationError,
            match=r"^observed information is not positive definite; parameter '(theta|shape)' is not identified$",
        ):
            _wald_from_information(info)

    def test_non_finite_off_diagonal_names_its_row(self):
        info = np.diag([4.0, 1.0, 9.0])
        info[1, 2] = info[2, 1] = np.nan
        with pytest.raises(SingularInformationError, match="^observed information is not finite for parameter 'shape'$"):
            _wald_from_information(info)

    def test_is_a_value_error(self):
        assert issubclass(SingularInformationError, ValueError)
