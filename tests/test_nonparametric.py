"""Product-limit estimator against exhaustive hand-computed oracles."""

import numpy as np
import pytest

from pwsurv import EventTable, kaplan_meier
from pwsurv.nonparametric import _collapse


def records(times, flags, cohort=""):
    return EventTable(times, flags, cohort)


# every censoring pattern of three distinct times (1, 2, 3):
# flags -> (event times, survival values), worked by hand from the
# product-limit formula S(t) = prod (1 - d_i / n_i)
THREE_RECORD_ORACLE = {
    (1, 1, 1): ((1.0, 2.0, 3.0), (2 / 3, 1 / 3, 0.0)),
    (1, 1, 0): ((1.0, 2.0), (2 / 3, 1 / 3)),
    (1, 0, 1): ((1.0, 3.0), (2 / 3, 0.0)),
    (0, 1, 1): ((2.0, 3.0), (1 / 2, 0.0)),
    (1, 0, 0): ((1.0,), (2 / 3,)),
    (0, 1, 0): ((2.0,), (1 / 2,)),
    (0, 0, 1): ((3.0,), (0.0,)),
    (0, 0, 0): ((), ()),
}


class TestThreeRecordOracle:
    @pytest.mark.parametrize("flags", sorted(THREE_RECORD_ORACLE), ids=lambda f: "".join(map(str, f)))
    def test_all_censoring_patterns(self, flags):
        expected_times, expected_surv = THREE_RECORD_ORACLE[flags]
        curve = kaplan_meier(records((1.0, 2.0, 3.0), flags))
        np.testing.assert_array_equal(curve.times, expected_times)
        np.testing.assert_allclose(curve.survival, expected_surv, rtol=1e-15)

    def test_at_risk_and_event_counts(self):
        curve = kaplan_meier(records((1.0, 2.0, 3.0), (1, 1, 1)))
        np.testing.assert_array_equal(curve.at_risk, [3, 2, 1])
        np.testing.assert_array_equal(curve.events, [1, 1, 1])

    def test_censoring_at_event_time_stays_at_risk(self):
        # subject censored at 2 counts in the risk set for the event at 2
        curve = kaplan_meier(records((2.0, 2.0, 3.0), (1, 0, 1)))
        np.testing.assert_array_equal(curve.times, [2.0, 3.0])
        np.testing.assert_allclose(curve.survival, [2 / 3, 0.0])
        np.testing.assert_array_equal(curve.at_risk, [3, 1])

    def test_tied_events_counted_together(self):
        curve = kaplan_meier(records((2.0, 2.0, 2.0), (1, 1, 0)))
        np.testing.assert_array_equal(curve.times, [2.0])
        np.testing.assert_allclose(curve.survival, [1 / 3])
        np.testing.assert_array_equal(curve.events, [2])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kaplan_meier(records((), ()))


class TestEcdfIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complement_equals_empirical_cdf_when_uncensored(self, seed):
        rng = np.random.default_rng(seed)
        times = rng.weibull(1.4, size=200) * 7.0
        curve = kaplan_meier(records(times, np.ones(times.size, dtype=int)))
        for t in times:
            ecdf = np.mean(times <= t)
            assert 1.0 - curve.survival_at(t) == pytest.approx(ecdf, abs=1e-12)


class TestSurvivalLookup:
    def test_step_function_semantics(self):
        curve = kaplan_meier(records((1.0, 2.0, 3.0), (1, 1, 1)))
        assert curve.survival_at(0.5) == 1.0
        assert curve.survival_at(1.0) == pytest.approx(2 / 3)
        assert curve.survival_at(1.7) == pytest.approx(2 / 3)
        assert curve.survival_at(2.0) == pytest.approx(1 / 3)
        assert curve.survival_at(2.9) == pytest.approx(1 / 3)
        assert curve.survival_at(50.0) == 0.0

    def test_vectorized_lookup(self):
        curve = kaplan_meier(records((1.0, 2.0, 3.0), (1, 1, 1)))
        out = curve.survival_at(np.array([0.0, 1.0, 1.5, 3.5]))
        np.testing.assert_allclose(out, [1.0, 2 / 3, 2 / 3, 0.0])

    def test_nan_time_raises(self):
        # not the last step, 0.375, that a sorted search would give
        curve = kaplan_meier(records((1.0, 2.0, 3.0, 4.0), (1, 0, 1, 0)))
        with pytest.raises(ValueError, match="NaN"):
            curve.survival_at(np.nan)
        with pytest.raises(ValueError, match="NaN"):
            curve.survival_at(np.array([1.0, np.nan]))

    def test_all_censored_curve_is_flat_one(self):
        curve = kaplan_meier(records((1.0, 2.0, 3.0), (0, 0, 0)))
        assert curve.survival_at(10.0) == 1.0


def textbook_curve(times, flags):
    """The product-limit formula with its own grouping: event times by np.unique,
    at-risk counts by searchsorted on the sorted times."""
    event_times, deaths = np.unique(times[flags == 1], return_counts=True)
    at_risk = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    return event_times, np.cumprod(1.0 - deaths / at_risk), at_risk, deaths


def oracle_cohort(shape, seed):
    rng = np.random.default_rng(seed)
    n = 200
    if shape == "untied":
        times = rng.weibull(1.3, n) * 5.0
        return times, (rng.random(n) < 0.7).astype(np.int64)
    if shape == "monthly":
        # whole months, so censorings tie with each other and with events
        times = np.ceil(rng.weibull(1.2, n) * 10.0)
        return times, (rng.random(n) < 0.6).astype(np.int64)
    if shape == "all censored":
        return np.ceil(rng.weibull(1.2, n) * 10.0), np.zeros(n, dtype=np.int64)
    if shape == "one event time":
        # every event at one time, censorings before, at and after it
        flags = (rng.random(n) < 0.5).astype(np.int64)
        times = np.ceil(rng.random(n) * 6.0)
        times[flags == 1] = 3.0
        return times, flags
    assert shape == "single record"
    return rng.random(1) + 0.5, rng.integers(0, 2, 1)


ORACLE_SHAPES = ["untied", "monthly", "all censored", "one event time", "single record"]


class TestOneGrouping:
    """kaplan_meier and the curve the fit starts from group the records the same way."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_matches_textbook_formula_and_fit_curve(self, shape, seed):
        times, flags = oracle_cohort(shape, seed)
        curve = kaplan_meier(EventTable(times, flags))
        want_times, want_survival, want_at_risk, want_events = textbook_curve(times, flags)
        np.testing.assert_array_equal(curve.times, want_times)
        np.testing.assert_array_equal(curve.at_risk, want_at_risk)
        np.testing.assert_array_equal(curve.events, want_events)
        # bit for bit: the same integers divided in the same order
        assert curve.survival.tobytes() == want_survival.tobytes()

        _, fit_curve = _collapse(times, flags)
        for name in ("times", "survival", "at_risk", "events"):
            np.testing.assert_array_equal(getattr(fit_curve, name), getattr(curve, name))
            assert getattr(fit_curve, name).dtype == getattr(curve, name).dtype
