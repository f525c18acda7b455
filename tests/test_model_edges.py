"""Model density and survival at the edges of the parameter and time range.

Both kinds are compared with 50-digit mpmath evaluations of the defining
formulas, wherever the true value is a normal double: theta from 1e-8 to
1e4 (past exp overflow near 709), shapes from 0.01 to 20, scales from 1e-9
to 1e9 and times from the least subnormal to the largest double, where
t/scale leaves the doubles. At t = 0 and t = inf, on the same grid, both
kinds take their exact limits.
"""

import functools
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from mpmath import mp

from pwsurv import (
    LatentCountParams,
    ModelKind,
    ModelSpec,
    WeibullParams,
    model_density,
    model_survival,
)

THETAS = [1e-8, 1e-3, 0.5, 50.0, 700.0, 701.0, 710.0, 1e4]
SHAPES = [0.01, 0.3, 1.0, 1.5, 8.0, 20.0]
SCALE = 3.0
SCALES = [1e-9, SCALE, 1e9]
TINY, HUGE = sys.float_info.min, sys.float_info.max
# every decade from 1e-300 to 1e300, a fine grid around SCALE, and the ends of the doubles
TIMES = np.unique(np.concatenate((np.logspace(-300, 300, 601), SCALE * np.logspace(-2, 1, 181), [5e-324, HUGE])))


@functools.lru_cache(maxsize=None)
def weibull_reference(shape, scale):
    """50-digit Weibull survival, cdf and density at every time in TIMES."""
    with mp.workdps(50):
        a, b = mp.mpf(shape), mp.mpf(scale)
        rows = []
        for t in TIMES:
            z = mp.mpf(t) / b
            w = z**a
            rows.append((mp.exp(-w), -mp.expm1(-w), a / b * z ** (a - 1) * mp.exp(-w)))
        return rows


@functools.lru_cache(maxsize=None)
def reference(theta, shape, scale):
    """50-digit (density, survival) of each kind at every time in TIMES, as doubles."""
    values = {kind: ([], []) for kind in ModelKind}
    with mp.workdps(50):
        th = mp.mpf(theta)
        zt_norm = -mp.expm1(-th)
        for surv, cdf, f in weibull_reference(shape, scale):
            decay = mp.exp(-th * cdf)
            ptm_density = th * decay * f
            values[ModelKind.PROMOTION_TIME][0].append(ptm_density)
            values[ModelKind.PROMOTION_TIME][1].append(decay)
            values[ModelKind.ZERO_TRUNCATED][0].append(ptm_density / zt_norm)
            values[ModelKind.ZERO_TRUNCATED][1].append(-mp.expm1(-th * surv) / zt_norm * decay)
    # an mpf beyond the double range rounds to 0 or inf, which the checks skip
    return {kind: tuple(np.array(v, dtype=float) for v in pair) for kind, pair in values.items()}


def assert_matches(got, expected, label):
    """got equals expected to 1e-12 relative wherever expected is a normal double."""
    normal = (expected >= TINY) & (expected <= HUGE)
    err = np.abs(got[normal] / expected[normal] - 1.0)
    if err.size and err.max() > 1e-12:
        i = np.flatnonzero(normal)[np.argmax(err)]
        raise AssertionError(f"{label} at t = {TIMES[i]!r}: {got[i]!r}, reference {expected[i]!r}")


@pytest.mark.parametrize("kind", list(ModelKind), ids=[k.value for k in ModelKind])
@pytest.mark.parametrize("shape", SHAPES)
def test_matches_high_precision_reference(kind, shape):
    for scale, theta in itertools.product(SCALES, THETAS):
        m = ModelSpec(kind, LatentCountParams(theta), WeibullParams(shape, scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            density, survival = model_density(TIMES, m), model_survival(TIMES, m)
        ref_density, ref_survival = reference(theta, shape, scale)[kind]
        label = f"scale={scale} theta={theta}"
        assert_matches(density, ref_density, f"density {label}")
        assert_matches(survival, ref_survival, f"survival {label}")
        # the zt log terms cancel near t = 0 only up to rounding
        assert survival.max() <= 1.0, f"survival {label}: {survival.max()!r}"


@pytest.mark.parametrize("theta", [701.0, 710.0, 1e4])
def test_zero_truncated_survival_reaches_zero(theta):
    m = ModelSpec.zero_truncated(theta, 1.5, SCALE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model_survival(1e300, m) == 0.0


def test_promotion_time_without_causes_is_all_cured():
    t = np.array([0.0, 1e-300, 1.0, SCALE, 1e300, np.inf])
    for shape in SHAPES:
        m = ModelSpec.promotion_time(0.0, shape, SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(model_density(t, m), 0.0, err_msg=f"shape={shape}")
            np.testing.assert_array_equal(model_survival(t, m), 1.0, err_msg=f"shape={shape}")


def lead(kind, theta):
    """a(theta): theta (ptm) or theta / (1 - e^-theta) (zt)."""
    return theta if kind is ModelKind.PROMOTION_TIME else theta / -math.expm1(-theta)


def close(got, expected):
    return math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("kind", list(ModelKind), ids=[k.value for k in ModelKind])
@pytest.mark.parametrize("shape", SHAPES)
def test_limits_at_zero_and_infinity(kind, shape):
    for scale, theta in itertools.product(SCALES, THETAS):
        m = ModelSpec(kind, LatentCountParams(theta), WeibullParams(shape, scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (f0, f_inf), (s0, s_inf) = model_density([0.0, math.inf], m), model_survival([0.0, math.inf], m)
        label = f"scale={scale} theta={theta}"
        assert s0 <= 1.0 and close(s0, 1.0), label
        if shape > 1.0:
            assert f0 == 0.0, label
        elif shape == 1.0:
            assert close(f0, lead(kind, theta) / scale), label
        else:
            assert f0 == math.inf, label
        assert f_inf == 0.0, label
        if kind is ModelKind.ZERO_TRUNCATED:
            assert s_inf == 0.0, label
        else:
            assert close(s_inf, math.exp(-theta)), label
