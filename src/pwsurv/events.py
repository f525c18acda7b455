"""The one form of a cohort, EventTable: the CSV reader and the simulator build it, the rest call to_arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _HOMES

__all__ = list(_HOMES["events"])


@dataclass(frozen=True, eq=False)
class EventTable:
    """One cohort as columns: float64 times, int64 0/1 event flags and a str label.

    A flag is 1 when the event of interest was observed at its time and 0
    when the record was right-censored there. Every time must be positive and
    finite, checked at once; the error names the first bad index. The table
    keeps read-only copies of the columns it was given, so what was checked
    stays true. Two tables are equal when their columns and labels are.
    """

    times: np.ndarray
    flags: np.ndarray
    cohort: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.cohort, str):
            raise ValueError(f"cohort label must be a str, got {self.cohort!r}")
        times = np.array(self.times, dtype=float)  # a copy: the caller's arrays stay the caller's
        flags = np.asarray(self.flags)
        if times.ndim != 1 or flags.shape != times.shape:
            raise ValueError("times and flags must be 1-d columns of one length")
        finite = np.isfinite(times)
        bad = ~(finite & (times > 0.0)) | ((flags != 0) & (flags != 1))
        if bad.any():
            i = int(np.argmax(bad))
            time = float(times[i])
            if not finite[i]:
                raise ValueError(f"record {i}: time must be a finite number, got {time!r}")
            if time <= 0.0:
                raise ValueError(f"record {i}: time must be positive, got {time}")
            raise ValueError(f"record {i}: event flag must be 0 or 1, got {flags[i].item()!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "flags", flags.astype(np.int64))  # a copy too
        self.times.flags.writeable = self.flags.flags.writeable = False

    def __len__(self) -> int:
        return self.times.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return (
            self.cohort == other.cohort
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.flags, other.flags)
        )


def to_arrays(table: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's own read-only time and event-flag columns; anything else is a TypeError."""
    if not isinstance(table, EventTable):
        raise TypeError(f"expected an EventTable, got {type(table).__name__}")
    return table.times, table.flags
