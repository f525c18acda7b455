"""Kaplan-Meier product-limit estimation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .events import EventRecord, to_arrays

__all__ = ["KmCurve", "kaplan_meier"]


@dataclass(frozen=True, eq=False)
class KmCurve:
    """Product-limit survival estimate.

    ``times`` holds the distinct event times in ascending order; ``survival``
    the estimate just after each time; ``at_risk`` the number at risk just
    before each time; ``events`` the number of events at each time. A dataset
    with no observed events yields empty arrays and a curve identically 1.
    """

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray

    def survival_at(self, t):
        """Right-continuous step lookup: the estimate at the last event time <= t."""
        arr = np.asarray(t, dtype=float)
        padded = np.concatenate(([1.0], self.survival))
        out = padded[np.searchsorted(self.times, arr, side="right")]
        return float(out) if arr.ndim == 0 else out


def kaplan_meier(data: Iterable[EventRecord]) -> KmCurve:
    """Product-limit estimate under right censoring.

    S(t) = prod over distinct event times t_i <= t of (1 - d_i / n_i), where
    d_i counts events at t_i and n_i counts subjects still at risk just before
    t_i. A censored subject leaves the risk set after its time, so a censoring
    tied with an event at the same time still counts as at risk there.
    """
    return _product_limit(*to_arrays(data))


def _product_limit(times: np.ndarray, flags: np.ndarray) -> KmCurve:
    """kaplan_meier of a time column and its 0/1 event-flag column."""
    if times.size == 0:
        raise ValueError("kaplan_meier requires a nonempty dataset")

    event_times, deaths = np.unique(times[flags == 1], return_counts=True)
    at_risk = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    survival = np.cumprod(1.0 - deaths / at_risk)

    return KmCurve(times=event_times, survival=survival, at_risk=at_risk.astype(int), events=deaths)
