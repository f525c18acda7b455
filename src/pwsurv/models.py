"""Compound latent-competing-risk models for loan event times.

Both models view the observed time as the minimum of a latent number M of
independent Weibull cause-specific times. The zero-truncated variant
conditions on M >= 1 (every subject eventually fails); the promotion-time
variant lets M = 0 with probability exp(-theta), giving a cured fraction that
never experiences the event. M is Poisson(theta), and each cause-specific time
is Weibull with F(t) = 1 - exp(-(t/scale)^shape).

Both kinds share one set of log-space formulas. With w = (t/scale)^shape,
S = exp(-w), F = 1 - S, log f the Weibull log density and the lead term
log a(theta) = log theta (ptm) or log(theta / (1 - e^-theta)) (zt):

    log f_Y = log a(theta) - theta F + log f                         (both)
    log S_Y = -theta F                                               (ptm)
    log S_Y = log(1 - e^(-theta S)) - log(1 - e^-theta) - theta F    (zt)

The zt survival is summed as log a(theta) - theta F - w + log g(theta S) with
g(x) = (1 - e^-x) / x, so theta S may underflow, and capped at 0 against
rounding; all are finite for theta > 0.

Functions of time accept a scalar or numpy array of times and return a
matching scalar or array.

Sampling follows the same law: each subject draws a latent cause count M and
an Exp(1) variate E; the observed time is the minimum of M independent
Weibull times, which is T = scale * (E / M)^(1/shape), censored at the
horizon. A cohort draws whole columns: the uniforms, the Poisson counts and
the exponentials each come from their own stream spawned from the seed and
are read in subject order, so subject i's record depends only on (seed, i),
whatever the cohort size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .events import EventTable

__all__ = [
    "WeibullParams",
    "LatentCountParams",
    "weibull_pdf",
    "zt_poisson_mean",
    "ModelKind",
    "ModelSpec",
    "ztpw_density",
    "ptm_density",
    "ptm_survival",
    "cure_fraction",
    "elgd_at_horizon",
    "model_density",
    "model_survival",
    "SimConfig",
    "simulate_cohort",
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
    promotion-time model; the zero-truncated model needs theta > 0, which
    ModelSpec enforces.
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
    theta = float(theta)
    if not (np.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be a positive finite number, got {theta!r}")
    return float(_zt_mean(theta))


class ModelKind(Enum):
    ZERO_TRUNCATED = "zt"
    PROMOTION_TIME = "ptm"


@dataclass(frozen=True)
class ModelSpec:
    """Model kind plus the full parameter vector (theta, shape, scale)."""

    kind: ModelKind
    theta: LatentCountParams
    weibull: WeibullParams

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ModelKind):
            raise ValueError(f"kind must be a ModelKind, got {self.kind!r}")
        if self.kind is ModelKind.ZERO_TRUNCATED and self.theta.theta <= 0.0:
            raise ValueError("the zero-truncated model requires theta > 0")

    @classmethod
    def zero_truncated(cls, theta: float, shape: float, scale: float) -> "ModelSpec":
        return cls(ModelKind.ZERO_TRUNCATED, LatentCountParams(theta), WeibullParams(shape, scale))

    @classmethod
    def promotion_time(cls, theta: float, shape: float, scale: float) -> "ModelSpec":
        return cls(ModelKind.PROMOTION_TIME, LatentCountParams(theta), WeibullParams(shape, scale))

    def params(self) -> tuple[float, float, float]:
        """The parameter vector as (theta, shape, scale)."""
        return self.theta.theta, self.weibull.shape, self.weibull.scale


def _require_kind(m: ModelSpec, kind: ModelKind) -> None:
    if m.kind is not kind:
        raise ValueError(f"operation requires a {kind.value} model, got {m.kind.value}")


def _log_lead(kind: ModelKind, theta):
    """log a(theta): log theta (ptm) or log theta / (1 - exp(-theta)) (zt)."""
    return np.log(theta if kind is ModelKind.PROMOTION_TIME else _zt_mean(theta))


def ztpw_density(t, m: ModelSpec):
    """Event-time density of the zero-truncated model.

    f_Y(t) = theta * exp(theta * S(t)) * f(t) / (exp(theta) - 1), with S and f
    the Weibull survival and density.
    """
    _require_kind(m, ModelKind.ZERO_TRUNCATED)
    return model_density(t, m)


def ptm_density(t, m: ModelSpec):
    """Event-time (sub)density of the promotion-time model.

    f_Y(t) = theta * f(t) * exp(-theta * F(t)). Defective: its total mass is
    1 - exp(-theta), the complement of the cured fraction.
    """
    _require_kind(m, ModelKind.PROMOTION_TIME)
    return model_density(t, m)


def ptm_survival(t, m: ModelSpec):
    """Survival of the promotion-time model: exp(-theta * F(t)).

    Decreases from 1 to the cure plateau exp(-theta) as t grows.
    """
    _require_kind(m, ModelKind.PROMOTION_TIME)
    return model_survival(t, m)


def cure_fraction(m: ModelSpec) -> float:
    """Asymptotic never-failing fraction exp(-theta) of the promotion-time model.

    For recovery data this is the expected long-run loss given default: the
    share of defaulted loans that are never recovered.
    """
    _require_kind(m, ModelKind.PROMOTION_TIME)
    return float(np.exp(-m.theta.theta))


def elgd_at_horizon(m: ModelSpec, horizon: float) -> float:
    """Model probability that a defaulted loan is still unrecovered at the horizon.

    This is the promotion-time survival at the monitoring horizon (e.g. the
    24-month collection window) and is always at least cure_fraction(m).
    """
    _require_kind(m, ModelKind.PROMOTION_TIME)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    return float(ptm_survival(horizon, m))


def model_density(t, m: ModelSpec):
    """Density of either model kind: a(theta) exp(-theta F(t)) f(t)."""
    arr = _as_time(t)
    theta = m.theta.theta
    log_f, w = _weibull_log_terms(arr, m.weibull)
    with np.errstate(divide="ignore", invalid="ignore"):
        # theta = 0 (ptm) has no causes: the density is 0 even where f is inf
        log_density = _log_lead(m.kind, theta) - theta * -np.expm1(-w) + (log_f if theta > 0.0 else 0.0)
    return _ret(np.exp(log_density), arr)


def model_survival(t, m: ModelSpec):
    """Survival of either model kind: exp(-theta F(t)) (ptm), or the zt form of the module docstring."""
    arr = _as_time(t)
    theta = m.theta.theta
    w = _weibull_log_terms(arr, m.weibull)[1]
    log_survival = -theta * -np.expm1(-w)
    if m.kind is ModelKind.ZERO_TRUNCATED:
        x = theta * np.exp(-w)
        g = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)  # g(0) = 1
        # log a and log g(theta S) cancel near t = 0 only up to rounding
        log_survival = np.minimum(log_survival + _log_lead(m.kind, theta) - w + np.log(g), 0.0)
    return _ret(np.exp(log_survival), arr)


@dataclass(frozen=True)
class SimConfig:
    """Cohort simulation settings.

    ``horizon`` is the right-censoring time; math.inf is allowed for the
    zero-truncated model (every subject eventually fails) but not for the
    promotion-time model, whose cured subjects never would.
    """

    model: ModelSpec
    n: int
    horizon: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"cohort size must be at least 1, got {self.n}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.model.kind is ModelKind.PROMOTION_TIME and math.isinf(self.horizon):
            raise ValueError(
                "promotion-time simulation needs a finite horizon; "
                "cured subjects never fail"
            )


def _latent_count(kind: ModelKind, theta: float, u, counts: np.random.Generator):
    """M for a uniform u (a float, or an array of one per subject) and a Poisson stream.

    Promotion-time M is Poisson(theta) and ignores u. Zero-truncated M counts
    the arrivals of a rate-theta Poisson process on [0, 1] given that one
    arrives: the first arrival is T1 = -log1p(-u (1 - e^-theta)) / theta by
    inverse CDF, and the rest are Poisson(theta (1 - T1)). This is exact at
    every theta and never forms e^theta.
    """
    if kind is ModelKind.PROMOTION_TIME:
        return counts.poisson(theta, np.shape(u))
    first = -np.log1p(u * math.expm1(-theta)) / theta
    return 1 + counts.poisson(theta * (1.0 - first))


def simulate_cohort(cfg: SimConfig, cohort: str = "sim") -> EventTable:
    """Simulate one cohort of loan event records under cfg.model.

    A promotion-time subject with M = 0 is cured: T is infinite and the
    record is censored at the horizon, as is every T beyond it. Identical
    seeds reproduce identical tables.
    """
    theta, shape, scale = cfg.model.params()
    uniforms, counts, exponentials = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    m = _latent_count(cfg.model.kind, theta, uniforms.random(cfg.n), counts)
    with np.errstate(divide="ignore"):
        times = scale * (exponentials.standard_exponential(cfg.n) / m) ** (1.0 / shape)
    # A small shape can take a time below the least positive double, where it
    # underflows to 0.0; such a time becomes that double, the nearest valid one.
    times = np.maximum(times, np.nextafter(0.0, 1.0))
    observed = times <= cfg.horizon
    return EventTable(np.where(observed, times, cfg.horizon), observed, cohort)
