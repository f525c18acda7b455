"""The columnar cohort: validation, equality, CSV writing, columns, and the one entry check."""

import csv
import io
import math

import numpy as np
import pytest

from pwsurv import (
    EventTable,
    ModelKind,
    ModelSpec,
    fit_mle,
    kaplan_meier,
    loglik_ptm,
    loglik_zt,
    observed_unrecovered,
    read_events_csv,
    to_arrays,
    write_events_csv,
)


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

    @pytest.mark.parametrize(
        "times, flags, message",
        [
            ([1.0, 2.0, np.inf], [1, 1, 1], "record 2: time must be a finite number, got inf"),
            ([1.0, math.nan], [1, 1], "record 1: time must be a finite number, got nan"),
            ([1.0, 0.0, 3.0], [1, 1, 1], "record 1: time must be positive, got 0.0"),
            ([1.0, 2.0, 3.0], [1, 0, 2], "record 2: event flag must be 0 or 1, got 2"),
            ([1.0, 2.0], [1.0, 0.5], "record 1: event flag must be 0 or 1, got 0.5"),
        ],
    )
    def test_message_is_word_for_word(self, times, flags, message):
        with pytest.raises(ValueError) as info:
            EventTable(np.array(times), np.array(flags))
        assert str(info.value) == message

    def test_column_types(self):
        t = EventTable([1, 2], [True, False])
        assert t.times.dtype == np.float64 and t.flags.dtype == np.int64

    @pytest.mark.parametrize("label", [5, None, b"a"])
    def test_label_must_be_a_str(self, label):
        with pytest.raises(ValueError) as info:
            EventTable([1.0], [1], cohort=label)
        assert str(info.value) == f"cohort label must be a str, got {label!r}"


class TestOwnership:
    """A table keeps read-only copies, so a write elsewhere cannot undo its checks."""

    def test_later_write_to_callers_times_is_not_seen(self):
        times = np.array([1.0, 2.0, 3.0])
        t = EventTable(times, np.array([1, 1, 1]))
        times[0] = -5.0
        np.testing.assert_array_equal(t.times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(kaplan_meier(t).times, [1.0, 2.0, 3.0])

    def test_later_write_to_callers_flags_is_not_seen(self):
        flags = np.array([1, 0, 1])
        t = EventTable(np.array([1.0, 2.0, 3.0]), flags)
        flags[1] = 7
        np.testing.assert_array_equal(t.flags, [1, 0, 1])

    def test_columns_are_read_only(self):
        t = table()
        times, flags = to_arrays(t)
        with pytest.raises(ValueError, match="read-only"):
            times[2] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            flags[0] = 7
        np.testing.assert_array_equal(t.times, [0.5, 2.0, 24.0])
        np.testing.assert_array_equal(t.flags, [1, 1, 0])


class TestSequence:
    def test_tables_compare_by_columns(self):
        n = 100_000
        times, flags = np.linspace(1.0, 50.0, n), np.arange(n) % 2
        big = EventTable(times, flags, "c")
        other_time, other_flag = times.copy(), flags.copy()
        other_time[-1] += 1.0
        other_flag[-1] = 1 - other_flag[-1]
        shorter = EventTable(times[:-1], flags[:-1], "c")
        assert len(big) == n and len(shorter) == n - 1
        assert big == EventTable(times.copy(), flags.copy(), "c")
        assert big != EventTable(other_time, flags, "c")
        assert big != EventTable(times, other_flag, "c")
        assert big != EventTable(times, flags, "d")
        assert big != shorter
        # a table equals only a table
        assert big != list(zip(times.tolist(), flags.tolist()))
        assert table() == table() and table() != table("b")


class TestColumns:
    def test_to_arrays_returns_own_columns(self):
        t = table()
        times, flags = to_arrays(t)
        assert times is t.times and flags is t.flags

    @pytest.mark.parametrize("label", ["a", "a,b", 'say "x"'])
    def test_write_matches_writing_records(self, label):
        # the table's rows as csv.writer writes them one by one, and read back
        t = table(label)
        buf, expected = io.StringIO(), io.StringIO()
        write_events_csv(t, buf)
        writer = csv.writer(expected)
        writer.writerow(["time", "event", "cohort"])
        for time, flag in zip(t.times.tolist(), t.flags.tolist()):
            writer.writerow([f"{time:.17g}", flag, label])
        assert buf.getvalue() == expected.getvalue()
        back = read_events_csv(io.StringIO(buf.getvalue()))
        assert back[0].cohort == label and back[0].records == t


# a cohort held as rows rather than as a table
ROWS = [(0.5, 1), (2.0, 1), (24.0, 0)]


class TestOnlyTables:
    def test_to_arrays_rejects_anything_but_a_table(self):
        for other in (ROWS, (table().times, table().flags), None):
            with pytest.raises(TypeError, match="expected an EventTable, got"):
                to_arrays(other)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rows: fit_mle(rows, ModelKind.PROMOTION_TIME),
            lambda rows: loglik_zt(rows, ModelSpec.zero_truncated(1.0, 1.0, 1.0)),
            lambda rows: loglik_ptm(rows, ModelSpec.promotion_time(1.0, 1.0, 1.0)),
            lambda rows: kaplan_meier(rows),
            lambda rows: observed_unrecovered(rows, 24.0),
        ],
        ids=["fit_mle", "loglik_zt", "loglik_ptm", "kaplan_meier", "observed_unrecovered"],
    )
    def test_entry_points_reject_rows(self, call):
        with pytest.raises(TypeError, match="expected an EventTable, got list"):
            call(ROWS)

    def test_writer_rejects_rows_and_writes_nothing(self, tmp_path):
        buf = io.StringIO()
        with pytest.raises(TypeError, match="expected an EventTable, got list"):
            write_events_csv(ROWS, buf)
        assert buf.getvalue() == ""
        with pytest.raises(TypeError, match="expected an EventTable, got list"):
            write_events_csv(ROWS, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()
