"""Elementary probability kernels: Weibull event times and Poisson risk counts.

Functions accept a scalar or numpy array for the time/count argument and
return a matching scalar or array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeibullParams",
    "LatentCountParams",
    "weibull_pdf",
    "weibull_cdf",
    "weibull_survival",
    "poisson_pmf",
    "zt_poisson_pmf",
    "zt_poisson_mean",
]


@dataclass(frozen=True)
class WeibullParams:
    """Weibull shape/scale pair under F(t) = 1 - exp(-(t/scale)^shape)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.shape) and self.shape > 0.0):
            raise ValueError(f"shape must be a positive finite number, got {self.shape!r}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be a positive finite number, got {self.scale!r}")

    @classmethod
    def from_rate(cls, shape: float, rate: float) -> "WeibullParams":
        """Convert from the rate convention F(t) = 1 - exp(-(rate*t)^shape)."""
        return cls(shape=shape, scale=1.0 / rate)


@dataclass(frozen=True)
class LatentCountParams:
    """Poisson intensity for the latent number of competing risk causes.

    theta = 0 is the degenerate all-cured case and is only meaningful for the
    promotion-time model; the zero-truncated model needs theta > 0, which is
    enforced where the model is assembled.
    """

    theta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.theta) and self.theta >= 0.0):
            raise ValueError(f"theta must be a nonnegative finite number, got {self.theta!r}")


# log Gamma, elementwise over count arrays
_gammaln = np.vectorize(math.lgamma, otypes=[float])


def _as_time(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("time must be nonnegative")
    return arr


def _ret(values: np.ndarray, arr: np.ndarray):
    return float(values) if arr.ndim == 0 else values


def _as_count(m, minimum: int) -> np.ndarray:
    arr = np.asarray(m)
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ValueError(f"count must be integer valued, got {m!r}")
        arr = arr.astype(int)
    if np.any(arr < minimum):
        raise ValueError(f"count must be >= {minimum}, got {m!r}")
    return arr


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not (np.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be a positive finite number, got {theta!r}")
    return theta


def _zt_mean(theta):
    # the zero-truncated normalizer theta / (1 - exp(-theta)), unchecked
    return theta / -np.expm1(-theta)


def _weibull_log_terms(arr: np.ndarray, p: WeibullParams) -> tuple[np.ndarray, np.ndarray]:
    """log f and w = (t/scale)^shape; log f's power term is 0 at shape 1, and log f is -inf at w = inf."""
    z = arr / p.scale
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        power = (p.shape - 1.0) * np.log(z) if p.shape != 1.0 else 0.0
        w = z**p.shape
        log_f = np.log(p.shape / p.scale) + power - w
    return np.where(w < np.inf, log_f, -np.inf), w


def weibull_pdf(t, p: WeibullParams):
    """Density (shape/scale) * (t/scale)^(shape-1) * exp(-(t/scale)^shape)."""
    arr = _as_time(t)
    return _ret(np.exp(_weibull_log_terms(arr, p)[0]), arr)


def weibull_cdf(t, p: WeibullParams):
    """F(t) = 1 - exp(-(t/scale)^shape)."""
    arr = _as_time(t)
    return _ret(-np.expm1(-_weibull_log_terms(arr, p)[1]), arr)


def weibull_survival(t, p: WeibullParams):
    """S(t) = exp(-(t/scale)^shape), the complement of weibull_cdf."""
    arr = _as_time(t)
    return _ret(np.exp(-_weibull_log_terms(arr, p)[1]), arr)


def poisson_pmf(m, theta: float):
    """P(M = m) = theta^m exp(-theta) / m! for m = 0, 1, 2, ..."""
    theta = _check_theta(theta)
    arr = _as_count(m, minimum=0)
    out = np.exp(arr * np.log(theta) - theta - _gammaln(arr + 1.0))
    return _ret(out, np.asarray(m))


def zt_poisson_pmf(m, theta: float):
    """Zero-truncated pmf theta^m / (m! (exp(theta) - 1)) for m = 1, 2, ..."""
    theta = _check_theta(theta)
    arr = _as_count(m, minimum=1)
    return poisson_pmf(arr, theta) * (_zt_mean(theta) / theta)


def zt_poisson_mean(theta: float) -> float:
    """Mean of the zero-truncated Poisson: theta * e^theta / (e^theta - 1).

    Computed as theta / (1 - exp(-theta)), which is stable for both small and
    large theta. Always exceeds both theta and 1.
    """
    return float(_zt_mean(_check_theta(theta)))
