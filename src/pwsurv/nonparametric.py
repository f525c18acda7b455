"""Kaplan-Meier product-limit estimation, and the one grouping of a cohort's records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _HOMES
from .events import EventTable, to_arrays

__all__ = list(_HOMES["nonparametric"])


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
        if np.any(np.isnan(arr)):
            raise ValueError("time must not be NaN")
        padded = np.concatenate(([1.0], self.survival))
        out = padded[np.searchsorted(self.times, arr, side="right")]
        return float(out) if arr.ndim == 0 else out


def kaplan_meier(data: EventTable) -> KmCurve:
    """Product-limit estimate under right censoring.

    S(t) = prod over distinct event times t_i <= t of (1 - d_i / n_i), where
    d_i counts events at t_i and n_i counts subjects still at risk just before
    t_i. A censored subject leaves the risk set after its time, so a censoring
    tied with an event at the same time still counts as at risk there.
    """
    times, flags = to_arrays(data)
    return _product_limit(*np.unique(np.where(flags == 1, times, -times), return_counts=True))


def _product_limit(keys: np.ndarray, counts: np.ndarray) -> KmCurve:
    """kaplan_meier from sorted distinct signed times (negated when censored) and record counts."""
    if keys.size == 0:
        raise ValueError("dataset is empty")
    first = np.searchsorted(keys, 0.0)  # the censorings sort first
    cum = np.concatenate(([0], np.cumsum(counts)))  # cum[j]: the records at the first j keys
    # at risk at t: the events at t or later and the censorings at t or later, whose keys are <= -t
    at_risk = cum[-1] - cum[first:-1] + cum[np.searchsorted(keys[:first], -keys[first:], side="right")]
    survival = np.cumprod(1.0 - counts[first:] / at_risk)
    return KmCurve(times=keys[first:], survival=survival, at_risk=at_risk, events=counts[first:])


def _collapse(times: np.ndarray, flags: np.ndarray) -> tuple[tuple, KmCurve]:
    """The distinct (time, flag) pairs with the number of records holding each, and their curve.

    The pairs keep the order of their first record. Without ties they are the
    records, with counts None, so the kernel's sums are the records' own sums.
    """
    key = np.where(flags == 1, times, -times)
    order = np.argsort(key)
    sorted_key = key[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, key.size))
    curve = _product_limit(sorted_key[starts], counts)
    if starts.size == key.size:
        return (times, flags, None), curve
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    first = first[by_first]
    return (times[first], flags[first], counts[by_first].astype(float)), curve
