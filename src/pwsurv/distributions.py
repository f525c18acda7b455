"""Elementary kernels: the Weibull terms both model kinds build on, and the zero-truncated Poisson mean.

`weibull_pdf` accepts a scalar or numpy array of times and returns a matching
scalar or array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeibullParams",
    "LatentCountParams",
    "weibull_pdf",
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


def _as_time(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("time must be nonnegative")
    return arr


def _ret(values: np.ndarray, arr: np.ndarray):
    return float(values) if arr.ndim == 0 else values


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


def zt_poisson_mean(theta: float) -> float:
    """Mean of the zero-truncated Poisson: theta * e^theta / (e^theta - 1).

    Computed as theta / (1 - exp(-theta)), which is stable for both small and
    large theta. Always exceeds both theta and 1.
    """
    return float(_zt_mean(_check_theta(theta)))
