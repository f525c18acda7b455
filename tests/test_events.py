"""The columnar cohort: validation, sequence behaviour, CSV writing, columns."""

import io
from unittest.mock import patch

import numpy as np
import pytest

from pwsurv import EventRecord, EventTable, read_events_csv, to_arrays, write_events_csv


def table(cohort="a"):
    return EventTable(np.array([0.5, 2.0, 24.0]), np.array([1, 1, 0]), cohort)


class TestValidation:
    @pytest.mark.parametrize(
        "times, flags, message",
        [
            ([1.0, 2.0, np.inf], [1, 1, 1], "record 2: time must be a finite number"),
            ([1.0, np.nan, 3.0], [1, 1, 1], "record 1: time must be a finite number"),
            ([1.0, 0.0, 3.0], [1, 1, 1], "record 1: time must be positive"),
            ([-1.0, 2.0, 3.0], [1, 1, 1], "record 0: time must be positive"),
            ([1.0, 2.0, 3.0], [1, 0, 2], "record 2: event flag must be 0 or 1"),
        ],
    )
    def test_bad_value_names_first_bad_index(self, times, flags, message):
        with pytest.raises(ValueError, match=message):
            EventTable(np.array(times), np.array(flags))

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="one length"):
            EventTable(np.array([1.0, 2.0]), np.array([1]))

    def test_column_types(self):
        t = EventTable([1, 2], [True, False])
        assert t.times.dtype == np.float64 and t.flags.dtype == np.int64


class TestSequence:
    def test_index_gives_record_and_slice_gives_table(self):
        t = table()
        assert len(t) == 3
        assert t[1] == EventRecord(2.0, 1, "a")
        assert t[-1] == EventRecord(24.0, 0, "a")
        assert isinstance(t[:2], EventTable) and len(t[:2]) == 2
        with pytest.raises(IndexError):
            t[3]

    def test_equals_list_of_its_records(self):
        t = table()
        recs = [EventRecord(0.5, 1, "a"), EventRecord(2.0, 1, "a"), EventRecord(24.0, 0, "a")]
        assert t == recs and recs == t
        assert list(t) == recs
        assert t == table()
        assert t != table("b")
        assert t != recs[:2]
        assert t != recs[::-1]

    def test_tables_compare_by_columns(self):
        n = 100_000
        times, flags = np.linspace(1.0, 50.0, n), np.arange(n) % 2
        big = EventTable(times, flags, "c")
        other_time, other_flag = times.copy(), flags.copy()
        other_time[-1] += 1.0
        other_flag[-1] = 1 - other_flag[-1]
        shorter = big[:-1]
        # comparing two tables builds no records
        with patch.object(EventTable, "__getitem__", side_effect=AssertionError("record built")):
            assert big == EventTable(times.copy(), flags.copy(), "c")
            assert big != EventTable(other_time, flags, "c")
            assert big != EventTable(times, other_flag, "c")
            assert big != EventTable(times, flags, "d")
            assert big != shorter


class TestColumns:
    def test_to_arrays_returns_own_columns(self):
        t = table()
        times, flags = to_arrays(t)
        assert times is t.times and flags is t.flags

    @pytest.mark.parametrize("label", ["a", "a,b", 'say "x"'])
    def test_write_matches_writing_records(self, label):
        t = table(label)
        from_table, from_records = io.StringIO(), io.StringIO()
        write_events_csv(t, from_table)
        write_events_csv(list(t), from_records)
        assert from_table.getvalue() == from_records.getvalue()
        back = read_events_csv(io.StringIO(from_table.getvalue()))
        assert back[0].cohort == label and back[0].records == t
