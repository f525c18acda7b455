"""Generative sampling of the latent-competing-risk mechanisms.

Each subject draws a latent cause count M and an Exp(1) variate E; the
observed time is the minimum of M independent Weibull times, which is
T = scale * (E / M)^(1/shape), censored at the horizon. A cohort draws whole
columns: the uniforms, the Poisson counts and the exponentials each come
from their own stream spawned from the seed and are read in subject order,
so subject i's record depends only on (seed, i), whatever the cohort size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import EventTable
from .models import ModelKind, ModelSpec

__all__ = ["SimConfig", "simulate_cohort"]


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
