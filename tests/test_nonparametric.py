"""Product-limit estimator against exhaustive hand-computed oracles."""

import numpy as np
import pytest

from pwsurv import EventRecord, kaplan_meier


def records(times, flags, cohort=""):
    return [EventRecord(t, d, cohort) for t, d in zip(times, flags)]


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
            kaplan_meier([])


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

    def test_all_censored_curve_is_flat_one(self):
        curve = kaplan_meier(records((1.0, 2.0, 3.0), (0, 0, 0)))
        assert curve.survival_at(10.0) == 1.0
