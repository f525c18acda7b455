"""Generative sampling of the latent-competing-risk mechanisms.

Each subject draws a latent cause count M, then M independent Weibull times;
the observed time is their minimum, censored at the horizon. Every subject
gets its own random stream derived from (seed, subject index), so a cohort is
reproducible bit for bit regardless of iteration order or parallel
partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .events import EventRecord
from .models import ModelKind, ModelSpec

__all__ = ["SimConfig", "sample_latent_count", "simulate_cohort"]

_TINY = np.finfo(float).tiny

# Largest theta sampled from the zero-truncated inverse-CDF table.
_ZT_TABLE_MAX_THETA = 700.0


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


@lru_cache(maxsize=128)
def _zt_cdf_table(theta: float) -> np.ndarray:
    """Cumulative zero-truncated Poisson masses for counts 1, 2, ... .

    Extended until the accumulated mass reaches 1 - 1e-12; inverse-CDF lookup
    on this table samples the truncated distribution without rejection.
    """
    pmf = theta / np.expm1(theta)
    masses = [pmf]
    total = pmf
    m = 1
    while total < 1.0 - 1e-12 and m < 10_000:
        m += 1
        pmf *= theta / m
        masses.append(pmf)
        total += pmf
    return np.cumsum(masses)


def sample_latent_count(kind: ModelKind, theta: float, rng: np.random.Generator) -> int:
    """Draw the latent cause count M for one subject.

    Poisson(theta) for the promotion-time kind (M = 0 means cured);
    zero-truncated Poisson for the zero-truncated kind, so the draw is
    always >= 1: by inverse CDF up to theta = 700, and above that by
    redrawing Poisson(theta) until it is nonzero.
    """
    if not (np.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be a positive finite number, got {theta!r}")
    if kind is ModelKind.PROMOTION_TIME:
        return int(rng.poisson(theta))
    if theta > _ZT_TABLE_MAX_THETA:
        # The table's first mass theta / (e^theta - 1) overflows here; redraw
        # the Poisson zero instead, which has probability e^-theta.
        m = 0
        while m == 0:
            m = int(rng.poisson(theta))
        return m
    table = _zt_cdf_table(theta)
    return int(np.searchsorted(table, rng.random(), side="right")) + 1


def _subject_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def simulate_cohort(cfg: SimConfig, cohort: str = "sim") -> list[EventRecord]:
    """Simulate one cohort of loan event records under cfg.model.

    Per subject: draw M; a promotion-time subject with M = 0 is cured and
    recorded censored at the horizon; otherwise the observed time is the
    minimum of M Weibull draws T = scale * (-log U)^(1/shape), censored at the
    horizon. Identical seeds reproduce identical records.
    """
    theta, shape, scale = cfg.model.params()
    records = []
    for i in range(cfg.n):
        rng = _subject_rng(cfg.seed, i)
        m = sample_latent_count(cfg.model.kind, theta, rng)
        if m == 0:
            records.append(EventRecord(time=cfg.horizon, event=0, cohort=cohort))
            continue
        u = np.maximum(rng.random(m), _TINY)
        # min of the transformed draws equals the transform of the min exponent
        y = scale * float(np.min(-np.log(u))) ** (1.0 / shape)
        if y > cfg.horizon:
            records.append(EventRecord(time=cfg.horizon, event=0, cohort=cohort))
        else:
            records.append(EventRecord(time=y, event=1, cohort=cohort))
    return records
