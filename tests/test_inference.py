"""Likelihoods, the Newton fit, and Wald inference."""

import itertools
import math

import numpy as np
import pytest

from pwsurv import (
    EventRecord,
    FitResult,
    ModelKind,
    ModelSpec,
    NoEventsError,
    SimConfig,
    SingularInformationError,
    elgd_at_horizon,
    fit_mle,
    format_p_value,
    loglik_ptm,
    loglik_zt,
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
    _collapse,
    _loglik_derivatives,
    _ptm_loglik,
    _ptm_score,
    _wald_from_information,
    _zt_loglik,
    _zt_score,
)

from cohorts import DEFAULT_FITS, RECOVERY_FITS, estimates


def events(times):
    return [EventRecord(t, 1) for t in times]


def mixed(pairs):
    return [EventRecord(t, d) for t, d in pairs]


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
        assert loglik_ptm([EventRecord(6.0, 0)], m) == pytest.approx(-0.33460641971530735, rel=1e-13)
        assert loglik_ptm([EventRecord(6.0, 1)], m) == pytest.approx(np.log(ptm_density(6.0, m)), rel=1e-13)
        for theta, t in itertools.product(PIN_THETAS, PIN_TIMES):
            m = ModelSpec.promotion_time(theta, 1.2, 10.0)
            censored = np.exp(loglik_ptm([EventRecord(t, 0)], m))
            assert censored == pytest.approx(ptm_survival(t, m), rel=1e-12), (theta, t)
            event = np.exp(loglik_ptm([EventRecord(t, 1)], m))
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
            loglik_zt([], m)

    def test_ptm_rejects_empty(self):
        with pytest.raises(ValueError):
            loglik_ptm([], ModelSpec.promotion_time(1.0, 1.0, 1.0))

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
    pairs = _collapse(times, flags)
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
                ModelKind.ZERO_TRUNCATED, *_collapse(times, flags), (theta, 1.4, 2.0)
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
        t, d, counts = _collapse(times, flags)
        pairs = list(zip(times.tolist(), flags.tolist()))
        assert list(zip(t.tolist(), d.tolist())) == list(dict.fromkeys(pairs))
        assert counts.tolist() == [pairs.count(p) for p in zip(t.tolist(), d.tolist())]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_weighted_kernel_matches_expanded_records(self, kind):
        times, flags = self.monthly(kind)
        pairs = _collapse(times, flags)
        assert pairs[0].size < times.size / 10
        p = (0.9, 1.3, 8.0)
        collapsed = _loglik_derivatives(kind, *pairs, p)
        expanded = _loglik_derivatives(kind, times, flags, np.ones(times.size), p)
        for a, b in zip(collapsed, expanded):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


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
        censored_frac = sum(1 for r in recs if r.event == 0) / len(recs)
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
        shuffled = list(recs)
        np.random.default_rng(0).shuffle(shuffled)
        fit2 = fit_mle(shuffled, ModelKind.ZERO_TRUNCATED)
        np.testing.assert_allclose(fit2.estimates, fit.estimates, atol=1e-10)
        assert fit2.loglik == pytest.approx(fit.loglik, abs=1e-10)

    def test_explicit_start_reaches_same_optimum(self):
        m = ModelSpec.zero_truncated(1.5, 2.0, 0.5)
        recs = simulate_cohort(SimConfig(model=m, n=1500, horizon=math.inf, seed=17))
        default_fit = fit_mle(recs, ModelKind.ZERO_TRUNCATED)
        moved = fit_mle(recs, ModelKind.ZERO_TRUNCATED, initial=(0.4, 1.1, 1.9))
        assert moved.converged
        assert moved.loglik == pytest.approx(default_fit.loglik, abs=1e-7)
        np.testing.assert_allclose(moved.estimates, default_fit.estimates, rtol=1e-4)

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
    @pytest.mark.parametrize("start", [{}, {"initial": (1.0, 1.0, 1.0)}], ids=["default", "initial"])
    def test_one_distinct_event_time_rejected(self, kind, recs, start):
        # the likelihood rises without bound as the shape grows
        with pytest.raises(ValueError, match="needs at least two distinct event times"):
            fit_mle(recs, kind, **start)

    def test_zt_rejects_censored_records(self):
        with pytest.raises(ValueError):
            fit_mle(mixed([(1.0, 1), (2.0, 0)]), ModelKind.ZERO_TRUNCATED)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_mle([], ModelKind.ZERO_TRUNCATED)

    def test_bad_initial_rejected(self):
        with pytest.raises(ValueError):
            fit_mle(ZT_TOY, ModelKind.ZERO_TRUNCATED, initial=(-1.0, 1.0, 1.0))

    @pytest.mark.parametrize("initial", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_wrong_length_initial_names_the_parameters(self, initial):
        with pytest.raises(ValueError, match=r"three positive finite numbers \(theta, shape, scale\)"):
            fit_mle(ZT_TOY, ModelKind.ZERO_TRUNCATED, initial=initial)


@pytest.fixture(scope="module")
def fit():
    m = ModelSpec.promotion_time(0.9, 1.3, 9.0)
    recs = simulate_cohort(SimConfig(model=m, n=2000, horizon=30.0, seed=8))
    return fit_mle(recs, ModelKind.PROMOTION_TIME)


class TestWaldSummary:

    def test_rows_are_ordered_and_consistent(self, fit):
        rows = wald_summary(fit)
        assert [r.parameter for r in rows] == list(PARAM_NAMES)
        for row, est, se, lo, hi in zip(rows, fit.estimates, fit.se, fit.ci_low, fit.ci_high):
            assert row.estimate == est
            assert row.se == se
            assert row.ci_low == lo
            assert row.ci_high == hi
            z = est / se
            assert row.p_value == pytest.approx(math.erfc(abs(z) / math.sqrt(2.0)), rel=1e-12)

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
        assert [row.p_value for row in wald_summary(f)] == [0.5, 0.5, 0.5]

    def test_far_tail_renders_as_below_threshold(self):
        # z = 43.7 is far beyond any printable tail mass
        z = 43.7
        p = math.erfc(z / math.sqrt(2.0))
        assert format_p_value(p) == "< 0.0001"

    def test_p_value_rendering_boundary(self):
        assert format_p_value(0.5) == "0.5000"
        assert format_p_value(1e-4) == "0.0001"
        assert format_p_value(9.9e-5) == "< 0.0001"


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
