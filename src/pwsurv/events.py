"""Loan-level event records: the models simulate them, the fitting and nonparametric code read them."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["EventRecord", "EventTable", "to_arrays"]


@dataclass(frozen=True)
class EventRecord:
    """One observed loan: time to event (or censoring), event flag, cohort label.

    ``event`` is 1 when the event of interest was observed at ``time`` and 0
    when the observation was right-censored there.
    """

    time: float
    event: int
    cohort: str = ""

    def __post_init__(self) -> None:
        if not (isinstance(self.time, (int, float)) and math.isfinite(self.time)):
            raise ValueError(f"time must be a finite number, got {self.time!r}")
        if self.time <= 0.0:
            raise ValueError(f"time must be positive, got {self.time}")
        if self.event not in (0, 1):
            raise ValueError(f"event flag must be 0 or 1, got {self.event!r}")


@dataclass(frozen=True, eq=False)
class EventTable(Sequence):
    """One cohort as columns: float64 times, int64 0/1 event flags and a label.

    The columns follow the EventRecord rules, checked at once; the error
    names the first bad index. As a sequence of EventRecord an int index
    gives a record and a slice gives a table. Two tables are equal when
    their columns and labels are; a table equals any other sequence that
    holds the same records in order.
    """

    times: np.ndarray
    flags: np.ndarray
    cohort: str = ""

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        flags = np.asarray(self.flags)
        if times.ndim != 1 or flags.shape != times.shape:
            raise ValueError("times and flags must be 1-d columns of one length")
        bad = ~(np.isfinite(times) & (times > 0.0)) | ((flags != 0) & (flags != 1))
        if bad.any():
            i = int(np.argmax(bad))
            try:
                EventRecord(float(times[i]), flags[i].item())
            except ValueError as exc:
                raise ValueError(f"record {i}: {exc}") from None
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "flags", flags.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventTable(self.times[index], self.flags[index], self.cohort)
        return EventRecord(float(self.times[index]), int(self.flags[index]), self.cohort)

    def __eq__(self, other) -> bool:
        if isinstance(other, EventTable):
            return (
                self.cohort == other.cohort
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.flags, other.flags)
            )
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == len(self) and all(a == b for a, b in zip(self, other))


def to_arrays(records: Iterable[EventRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The time and event-flag columns of a table, or of records built by hand."""
    if isinstance(records, EventTable):
        return records.times, records.flags
    recs = list(records)
    times = np.array([r.time for r in recs], dtype=float)
    flags = np.array([r.event for r in recs], dtype=np.int64)
    return times, flags
