"""Reference computations for checking pwsurv outputs, written from the model
formulas alone. Nothing here imports pwsurv.

Weibull base: F(t) = 1 - exp(-(t/scale)^shape), S = 1 - F, density f.
Zero-truncated (zt) model:   S_zt(t)  = (exp(theta S(t)) - 1) / (exp(theta) - 1)
                              f_zt(t)  = theta f(t) exp(theta S(t)) / (exp(theta) - 1)
Promotion-time (ptm) model:  S_ptm(t) = exp(-theta F(t))
                              f_ptm(t) = theta f(t) exp(-theta F(t))
"""

from __future__ import annotations

import math

import numpy as np


def weibull_cdf(t, shape: float, scale: float) -> np.ndarray:
    return -np.expm1(-((np.asarray(t, dtype=float) / scale) ** shape))


def weibull_logpdf(t, shape: float, scale: float) -> np.ndarray:
    z = np.asarray(t, dtype=float) / scale
    return math.log(shape / scale) + (shape - 1.0) * np.log(z) - z**shape


def zt_survival(t, theta: float, shape: float, scale: float) -> np.ndarray:
    surv = 1.0 - weibull_cdf(t, shape, scale)
    return np.expm1(theta * surv) / math.expm1(theta)


def zt_cdf(t, theta: float, shape: float, scale: float) -> np.ndarray:
    """1 - S_zt(t), written as a difference of expm1 terms to keep small values exact."""
    surv = 1.0 - weibull_cdf(t, shape, scale)
    return (math.expm1(theta) - np.expm1(theta * surv)) / math.expm1(theta)


def ptm_survival(t, theta: float, shape: float, scale: float) -> np.ndarray:
    return np.exp(-theta * weibull_cdf(t, shape, scale))


def ptm_conditional_cdf(t, theta: float, shape: float, scale: float, horizon: float) -> np.ndarray:
    """CDF of a ptm event time given that the event falls at or before the horizon."""
    return -np.expm1(-theta * weibull_cdf(t, shape, scale)) / -math.expm1(
        -theta * float(weibull_cdf(horizon, shape, scale))
    )


def zt_loglik(times, theta: float, shape: float, scale: float) -> float:
    """Sum of log f_zt over fully observed times.

    The normaliser theta / (exp(theta) - 1) is written as 1 / exprel(theta),
    which is smooth through theta = 0, so that the curvature of a fit whose
    theta estimate sits at the boundary 0 can still be differenced.
    """
    t = np.asarray(times, dtype=float)
    surv = 1.0 - weibull_cdf(t, shape, scale)
    exprel = math.expm1(theta) / theta if theta != 0.0 else 1.0
    per_record = weibull_logpdf(t, shape, scale) + theta * surv
    return float(np.sum(per_record)) - t.size * math.log(exprel)


def ptm_loglik(times, events, theta: float, shape: float, scale: float) -> float:
    """Events add log f_ptm(t), censorings log S_ptm(t)."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(events) == 1
    log_density = math.log(theta) + weibull_logpdf(t[d], shape, scale)
    return float(np.sum(log_density)) - theta * float(np.sum(weibull_cdf(t, shape, scale)))


def product_limit(times, events):
    """Kaplan-Meier curve from one sort and counts per distinct time.

    Returns (event_times, survival just after each, number at risk just
    before each, events at each). A censoring tied with an event is still at
    risk at that time: events come before censorings at ties.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(events).astype(np.int64)
    if t.size == 0:
        raise ValueError("product_limit needs at least one record")
    distinct, inverse, counts = np.unique(t, return_inverse=True, return_counts=True)
    deaths = np.bincount(inverse, weights=d, minlength=distinct.size).astype(np.int64)
    at_risk = t.size - np.concatenate(([0], np.cumsum(counts)[:-1]))
    has_event = deaths > 0
    factors = 1.0 - deaths[has_event] / at_risk[has_event]
    return distinct[has_event], np.cumprod(factors), at_risk[has_event], deaths[has_event]


def step_value(curve_times, curve_survival, t: float) -> float:
    """Right-continuous step lookup of a product-limit curve (1 before the first step)."""
    k = int(np.searchsorted(curve_times, t, side="right"))
    return 1.0 if k == 0 else float(curve_survival[k - 1])


def fd_information(loglik, x, rel_step: float = 3e-4) -> np.ndarray:
    """Observed information -d2 loglik / dx2 by central second differences.

    Steps are relative to max(|x|, 1), so that a coordinate near 0 (a small
    theta) is not differenced on a step so short that rounding swamps the
    curvature; loglik must be defined a step either side of x.
    """
    x = np.asarray(x, dtype=float)
    k = x.size
    h = rel_step * np.maximum(np.abs(x), 1.0)
    f0 = loglik(x)
    info = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        info[i, i] = -(loglik(x + ei) - 2.0 * f0 + loglik(x - ei)) / h[i] ** 2
        for j in range(i):
            ej = np.zeros(k)
            ej[j] = h[j]
            mixed = (
                loglik(x + ei + ej) - loglik(x + ei - ej) - loglik(x - ei + ej) + loglik(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            info[i, j] = info[j, i] = -mixed
    return info
