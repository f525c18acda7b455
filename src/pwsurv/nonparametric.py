"""Kaplan-Meier product-limit estimation and model-vs-KM overlay data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .events import EventRecord, to_arrays
from .models import ModelSpec, model_survival

__all__ = ["KmCurve", "kaplan_meier", "overlay_export"]


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
    times, flags = to_arrays(data)
    if times.size == 0:
        raise ValueError("kaplan_meier requires a nonempty dataset")

    event_times, deaths = np.unique(times[flags == 1], return_counts=True)
    at_risk = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    survival = np.cumprod(1.0 - deaths / at_risk)

    return KmCurve(times=event_times, survival=survival, at_risk=at_risk.astype(int), events=deaths)


def overlay_export(
    curve: KmCurve, m: ModelSpec, grid: Sequence[float]
) -> list[tuple[float, float, float]]:
    """Rows of (t, KM step estimate, model survival) on the given time grid.

    The grid must be sorted ascending and nonnegative. Output is plain tuples,
    ready for any plotting tool or CSV writer.
    """
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    if arr.size and (np.any(arr < 0.0) or np.any(np.diff(arr) < 0.0)):
        raise ValueError("grid must be sorted ascending and nonnegative")
    km = np.atleast_1d(curve.survival_at(arr))
    model = np.atleast_1d(model_survival(arr, m))
    return list(zip(arr.tolist(), km.tolist(), model.tolist()))
