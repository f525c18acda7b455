"""Hand-computed cases for the benchmark's reference computations.

    python3 -m pytest bench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

E = math.e


@pytest.mark.parametrize(
    "times, events, want_t, want_s, want_risk",
    [
        ([1, 2, 3], [1, 1, 1], [1, 2, 3], [2 / 3, 1 / 3, 0.0], [3, 2, 1]),
        ([1, 2, 3], [1, 0, 1], [1, 3], [2 / 3, 0.0], [3, 1]),
        ([1, 2, 3], [0, 1, 1], [2, 3], [1 / 2, 0.0], [2, 1]),
        ([1, 2, 3], [1, 1, 0], [1, 2], [2 / 3, 1 / 3], [3, 2]),
        ([3, 1, 2], [0, 1, 1], [1, 2], [2 / 3, 1 / 3], [3, 2]),
        # an event tied with a censoring: the censored record is still at risk
        ([2, 2, 3], [1, 0, 1], [2, 3], [2 / 3, 0.0], [3, 1]),
        ([2, 2, 2], [1, 1, 0], [2], [1 / 3], [3]),
    ],
)
def test_product_limit_three_records(times, events, want_t, want_s, want_risk):
    t, s, risk, deaths = ref.product_limit(times, events)
    np.testing.assert_array_equal(t, want_t)
    np.testing.assert_allclose(s, want_s, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(risk, want_risk)
    assert deaths.sum() == sum(events)


def test_product_limit_all_censored_is_empty():
    t, s, risk, deaths = ref.product_limit([1.0, 2.0, 3.0], [0, 0, 0])
    assert t.size == s.size == risk.size == deaths.size == 0


def test_step_value_is_right_continuous():
    t, s, _, _ = ref.product_limit([1, 2, 3], [1, 0, 1])
    assert ref.step_value(t, s, 0.5) == 1.0
    assert ref.step_value(t, s, 1.0) == pytest.approx(2 / 3)
    assert ref.step_value(t, s, 2.9) == pytest.approx(2 / 3)
    assert ref.step_value(t, s, 3.0) == 0.0


def test_zt_loglik_by_hand():
    # theta = shape = scale = 1, t = 1: log f = -1 and S = 1/e.
    one = math.log(1.0) - 1.0 + math.exp(-1.0) - math.log(E - 1.0)
    assert ref.zt_loglik([1.0], 1.0, 1.0, 1.0) == pytest.approx(one, rel=1e-14)
    # theta = 2, shape = 2, scale = 2, t = 1: z = 1/2, log f = log(1) + log(1/2) - 1/4.
    two = math.log(2.0) + math.log(0.5) - 0.25 + 2.0 * math.exp(-0.25) - math.log(E**2 - 1.0)
    assert ref.zt_loglik([1.0, 1.0], 2.0, 2.0, 2.0) == pytest.approx(2 * two, rel=1e-14)


def test_zt_loglik_is_smooth_through_theta_zero():
    # theta -> 0 leaves one latent cause: the plain Weibull log-likelihood
    t = [0.5, 1.0, 2.0]
    weibull = float(np.sum(ref.weibull_logpdf(t, 1.5, 1.2)))
    for theta in (-1e-9, 0.0, 1e-9):
        assert ref.zt_loglik(t, theta, 1.5, 1.2) == pytest.approx(weibull, rel=1e-8)


def test_ptm_loglik_by_hand():
    # theta = 1/2, shape = scale = 1: an event at 1 and a censoring at 2.
    event = math.log(0.5) - 1.0 - 0.5 * (1.0 - math.exp(-1.0))
    censored = -0.5 * (1.0 - math.exp(-2.0))
    got = ref.ptm_loglik([1.0, 2.0], [1, 0], 0.5, 1.0, 1.0)
    assert got == pytest.approx(event + censored, rel=1e-14)


def test_model_survival_by_hand():
    assert ref.zt_survival(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        (math.exp(math.exp(-1.0)) - 1.0) / (E - 1.0), rel=1e-14
    )
    assert ref.ptm_survival(1.0, 0.5, 1.0, 1.0) == pytest.approx(
        math.exp(-0.5 * (1.0 - math.exp(-1.0))), rel=1e-14
    )
    # limits: zt starts at 1 and falls to 0; ptm falls to the cure fraction exp(-theta)
    assert ref.zt_survival(0.0, 2.0, 1.5, 3.0) == 1.0
    assert ref.zt_cdf(1e6, 2.0, 1.5, 3.0) == 1.0
    assert ref.ptm_survival(1e6, 0.7, 1.5, 3.0) == pytest.approx(math.exp(-0.7), rel=1e-14)
    t = np.array([0.1, 1.0, 4.0])
    np.testing.assert_allclose(ref.zt_cdf(t, 2.0, 1.5, 3.0) + ref.zt_survival(t, 2.0, 1.5, 3.0), 1.0)


def test_ptm_conditional_cdf_spans_zero_to_one():
    assert ref.ptm_conditional_cdf(0.0, 0.8, 1.2, 20.0, 24.0) == 0.0
    assert ref.ptm_conditional_cdf(24.0, 0.8, 1.2, 20.0, 24.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_zt_loglik_is_the_log_of_the_cdf_derivative(t):
    theta, shape, scale, h = 1.7, 1.3, 1.1, 1e-6
    slope = (ref.zt_cdf(t + h, theta, shape, scale) - ref.zt_cdf(t - h, theta, shape, scale)) / (2 * h)
    assert math.exp(ref.zt_loglik([t], theta, shape, scale)) == pytest.approx(slope, rel=1e-7)


def test_fd_information_of_a_quadratic():
    a = np.array([0.5, 2.0, 30.0])
    hess = np.array([[4.0, 1.0, 0.2], [1.0, 3.0, -0.5], [0.2, -0.5, 2.0]])

    def loglik(x):
        d = x - a
        return -0.5 * d @ hess @ d

    np.testing.assert_allclose(ref.fd_information(loglik, a), hess, rtol=1e-6)


def test_fd_information_of_poisson_rates():
    # sum of c log x - x: information c / x^2 on the diagonal, 0 elsewhere;
    # central differences err by about (h/x)^2, 2e-6 at x = 0.2
    c = np.array([3.0, 40.0, 7.0])
    x = np.array([0.2, 5.0, 80.0])

    def loglik(v):
        return float(np.sum(c * np.log(v) - v))

    np.testing.assert_allclose(ref.fd_information(loglik, x), np.diag(c / x**2), rtol=1e-5, atol=1e-9)
