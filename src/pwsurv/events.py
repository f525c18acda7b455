"""The one form of a cohort, EventTable, and its CSV file form.

The CSV reader and the simulator build an EventTable, the rest call
to_arrays; the reader also chooses each cohort's ModelKind. Input CSV schema:
header ``time,event,cohort``, then one record per line; time a positive
finite decimal in the user's time unit, event 0 or 1, cohort an opaque label
without line breaks.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import stat
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from operator import length_hint
from typing import Mapping, Sequence

import numpy as np

from . import _HOMES

__all__ = list(_HOMES["events"])


class ModelKind(Enum):
    ZERO_TRUNCATED = "zt"
    PROMOTION_TIME = "ptm"


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


_HEADER = ["time", "event", "cohort"]

# Lines read and parsed at a time, which bounds the reader's memory.
_CHUNK_LINES = 16_384
# Leading lines of a chunk that must all differ for the chunk to skip its dedupe.
_TIE_PROBE = 64


class CsvFormatError(ValueError):
    """Malformed event CSV; the message names the offending line."""


@dataclass(frozen=True)
class CohortDataset:
    """One cohort's records, which carry its label, plus the model kind chosen for fitting."""

    records: EventTable
    kind: ModelKind

    @property
    def cohort(self) -> str:
        return self.records.cohort


def read_events_csv(source) -> list[CohortDataset]:
    """Parse an event CSV into per-cohort datasets, in first-appearance order.

    ``source`` may be a path or a text stream, decoded by its caller. Fully
    observed cohorts get the zero-truncated model, cohorts with censoring the
    promotion-time model. Each record must fit on one physical line. Malformed
    input raises CsvFormatError naming the first bad line, and so does a byte that
    is not UTF-8, from a path or as a stream's lone surrogate (errors="surrogateescape").
    """
    owned = isinstance(source, (str, os.PathLike))
    opened = (
        open(source, encoding="utf-8", errors="surrogateescape", newline="") if owned else nullcontext(source)
    )
    with opened as stream:
        _check_header(stream.readline())
        first = 2  # the number of the chunk's first line
        labels: dict[str, int] = {}
        chunks = []  # each chunk's (times, flags, codes) columns
        while lines := list(islice(stream, _CHUNK_LINES)):
            chunks.append(_parse_chunk(lines, first, labels))
            first += len(lines)
            del lines  # hold one chunk of lines at a time

    if not labels:
        return []
    times, flags, codes = (np.concatenate(column) for column in zip(*chunks))
    del chunks  # drop each copy of the columns once the next is made
    # one stable sort groups the records by cohort in file order; blank lines (code -1) sort first
    ends = np.cumsum(np.bincount(codes + 1, minlength=len(labels) + 1))
    order = np.argsort(codes, kind="stable")
    del codes
    times, flags = times[order], flags[order]
    del order
    datasets = []
    for cohort, start, stop in zip(labels, ends[:-1], ends[1:]):
        records = EventTable(times[start:stop], flags[start:stop], cohort)
        kind = ModelKind.ZERO_TRUNCATED if records.flags.all() else ModelKind.PROMOTION_TIME
        datasets.append(CohortDataset(records, kind))
    return datasets


def _not_utf8(line: str) -> str | None:
    """The error for a line's first byte b not UTF-8, which errors="surrogateescape" read as U+DC00 + b."""
    byte = re.search("[\udc80-\udcff]", line)
    return byte and f"not UTF-8 text (byte 0x{ord(byte[0]) - 0xDC00:02x})"


def _check_header(line: str) -> None:
    if isinstance(line, str) and (message := _not_utf8(line)):  # the csv module rejects bytes below
        raise CsvFormatError(f"line 1: {message}")
    try:
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        header = next(csv.reader([line[1:] if line[:1] == "\ufeff" else line], strict=True))
    except csv.Error as exc:
        raise CsvFormatError(f"line 1: {exc}") from None
    if [h.strip() for h in header] != _HEADER:
        raise CsvFormatError(f"line 1: missing or invalid header, expected {','.join(_HEADER)}")


def _parse_chunk(
    lines: list[str], first: int, labels: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time, flag and cohort-code columns of a chunk of lines, one entry per line.

    ``first`` is the line number of lines[0]. A chunk whose first lines repeat
    is deduplicated, so each distinct line is parsed once: split into fields,
    then checked by _columns. A chunk is split at once when every line is
    ``time,flag,cohort`` ended by LF, CRLF or the end of the input, with no
    quote, NUL, other CR or lone surrogate and no field over the csv field size
    limit; any other is split by the csv module, up to the first line it
    rejects. A lone surrogate is a byte that is not UTF-8.
    """

    def error(i: int, message: str) -> CsvFormatError:
        # a distinct line's first occurrence is the first line of the chunk to fail
        return CsvFormatError(f"line {first + lines.index(distinct[i])}: {message}")

    head = lines[:_TIE_PROBE]
    distinct = lines if len(set(head)) == len(head) else list(dict.fromkeys(lines))
    n = len(distinct)
    # a comma also joins the lines, so the separators (comma, LF and NUL) of a chunk
    # split at once run comma, comma, LF, comma for every line
    text = ",".join(distinct).replace("\r\n", "\n").removesuffix("\n") + "\n"
    if plain := not ('"' in text or "\r" in text or max(map(len, distinct)) > csv.field_size_limit()):
        try:
            raw = np.frombuffer(text.encode() + b",", np.uint8)
        except UnicodeEncodeError:  # a lone surrogate
            plain = False
    if plain:
        seps = raw[(raw == ord(",")) | (raw == ord("\n")) | (raw == 0)]
        plain = seps.size == 4 * n and (seps.reshape(n, 4) == np.frombuffer(b",,\n,", np.uint8)).all()
    stop = None  # the message for the first line the csv module rejects
    if plain:
        fields = text.replace("\n", "").split(",")
        fields = fields[0::3], fields[1::3], fields[2::3]
    else:
        split = []
        # a closing quote after the last line ends a record still open there on a later line
        reader = csv.reader(chain(distinct, ['"']), strict=True)
        spans = "a quoted field spans lines; each record must fit on one line"
        try:  # the split's own rejections raise csv.Error too, to be named in one place
            for line, row in zip(distinct, reader):
                if not line.isascii() and _not_utf8(line):
                    raise csv.Error  # named by its byte, below
                # only an open quote carries a field past the end of its line, or past a
                # line break the stream did not end it at (io.StringIO's only ending is "\n")
                if '"' in line and (
                    reader.line_num > len(split) + 1 or "\r" in (body := line.rstrip("\r\n")) or "\n" in body
                ):
                    raise csv.Error(spans)
                if row and len(row) != 3:
                    raise csv.Error(f"expected 3 fields, got {len(row)}")
                split.append(row or ("1", "0", None))  # a blank line: fields that pass, no label
        except csv.Error as exc:  # named by the record's first line; an open quote runs past it
            record = distinct[len(split) : reader.line_num]
            stop = _not_utf8(record[0]) or (spans if len(record) > 1 else str(exc))
        fields = tuple(zip(*split)) or ((), (), ())
    columns = _columns(*fields, labels, error, stop)

    if len(distinct) == len(lines):
        return columns
    # each line takes the entries of its distinct line
    index = dict(zip(distinct, range(len(distinct))))
    rows = np.fromiter(map(index.__getitem__, lines), dtype=np.intp, count=len(lines))
    return tuple(column[rows] for column in columns)


def _columns(raw_times, raw_flags, cohorts, labels: dict[str, int], error, stop: str | None):
    """Time, flag and cohort-code columns of a chunk's fields, one entry per distinct line.

    A time is what float() reads, positive and finite, and a flag is 0 or 1
    once stripped. The first line to fail raises ``error(index, message)``: a
    non-numeric time first, then the time's range, then the flag. If none does,
    ``stop`` is the message of the line after them. Only then does a new label
    take the next code in ``labels``; a blank line's label is None, its code -1.
    """
    n = len(cohorts)
    rest = iter(raw_times)
    try:
        times = np.fromiter(map(float, rest), np.float64, count=n)
    except ValueError:  # at the time before the rest, which fails if the lines before it pass
        i = n - 1 - length_hint(rest)
        stop = f"non-numeric time {raw_times[i]!r}"
        return _columns(raw_times[:i], raw_flags[:i], cohorts[:i], labels, error, stop)
    flags, bad_flag = raw_flags, False
    if flags.count("0") + flags.count("1") != n:  # a flag that is padded, or not 0 or 1
        flags = [flag.strip() for flag in raw_flags]
        bad_flag = np.array([flag not in ("0", "1") for flag in flags], dtype=bool)
    bad_time = ~((times > 0.0) & (times < math.inf))
    if (bad := bad_time | bad_flag).any():
        i = int(np.argmax(bad))
        if bad_time[i]:
            raise error(i, f"time must be a positive finite number, got {raw_times[i]}") from None
        raise error(i, f"event flag must be 0 or 1, got {raw_flags[i]!r}") from None
    if stop:
        raise error(n, stop) from None
    for cohort in dict.fromkeys(cohorts):
        if cohort is not None:
            labels.setdefault(cohort, len(labels))
    flags = np.frombuffer("".join(flags).encode(), np.int8) - ord("0")
    return times, flags, np.fromiter(map(labels.get, cohorts, repeat(-1)), np.intc, count=n)


def _quoted(label: str) -> str:
    """A cohort label as csv.writer quotes it, with % doubled for %-formatting.

    Raises ValueError for a label with a line break, which could not be read
    back (every record sits on one line), or with a lone surrogate, which
    UTF-8 cannot encode.
    """
    if "\n" in label or "\r" in label:
        raise ValueError(f"cohort label {label!r} contains a line break")
    if re.search("[\ud800-\udfff]", label):
        raise ValueError(f"cohort label {label!r} contains a lone surrogate")
    buf = io.StringIO()
    csv.writer(buf).writerow([label, ""])
    return buf.getvalue()[: -len(",\r\n")].replace("%", "%%")


def write_events_csv(table: EventTable, dest) -> None:
    """Write a cohort in the input CSV schema; times keep 17 significant digits.

    Rows end in CRLF, as csv.writer writes them. A cohort label may not
    contain a line break or a lone surrogate (ValueError, raised before
    anything is written).
    """
    columns = list(to_arrays(table))
    # time and flag as csv.writer writes "{:.17g}" and an int
    _write_columns(dest, _HEADER, [("%.17g,%d," + _quoted(table.cohort) + "\r\n", columns)])


def _write_columns(dest, header: list[str], groups: list[tuple[str, list[np.ndarray]]]) -> None:
    """Write a CSV header to a path or text stream, then each group's columns as rows of its format.

    A format holds one %-field per column and ends in CRLF; the columns are
    1-d arrays of one length, checked by the caller. Each chunk of
    _CHUNK_LINES rows is formatted with one %.
    """
    if isinstance(dest, (str, os.PathLike)):
        with _overwrite(dest, newline="") as handle:
            return _write_columns(handle, header, groups)
    dest.write(",".join(header) + "\r\n")
    for fmt, columns in groups:
        width = len(columns)
        for start in range(0, len(columns[0]), _CHUNK_LINES):
            chunk = [column[start : start + _CHUNK_LINES].tolist() for column in columns]
            values = [None] * (width * len(chunk[0]))
            for i, column in enumerate(chunk):
                values[i::width] = column
            dest.write((fmt * len(chunk[0])) % tuple(values))


@contextmanager
def _overwrite(path, newline: str | None):
    """A UTF-8 text stream that rewrites the file at ``path`` from its start, created if missing.

    The file is opened without O_TRUNC: truncating a file whose blocks are
    allocated can cost more than writing it. On leaving, even by an exception,
    the stream is flushed and a regular file is cut to the bytes written, so
    it holds those bytes and no tail of its old content. The inode is the one
    open(path, "w") would write (a symlink's target, a hard link's file, with
    its mode); a FIFO or a device is written and not cut. ``newline`` is
    open()'s argument.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as stream:
        try:
            yield stream
        finally:
            try:
                stream.flush()
            finally:  # after a failed flush too, at the bytes the file took
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def write_overlay_csv(columns_by_cohort: Mapping[str, Sequence], dest, with_model: bool) -> None:
    """Columns (t, km[, model]) per cohort as CSV, cohort,t,km[,model], cohorts sorted by label.

    A cohort with another number of columns, with columns of unequal length
    or with a label that write_events_csv refuses is a ValueError naming it,
    raised before anything is written.
    """
    header = ["cohort", "t", "km", "model"] if with_model else ["cohort", "t", "km"]
    width = len(header) - 1
    groups = []
    for cohort in sorted(columns_by_cohort):
        columns = [np.asarray(column, dtype=float) for column in columns_by_cohort[cohort]]
        shapes = {column.shape for column in columns}
        if len(columns) != width or len(shapes) != 1 or columns[0].ndim != 1:
            raise ValueError(f"cohort {cohort!r}: the overlay needs {width} columns of one length")
        groups.append((_quoted(cohort) + ",%.17g" * width + "\r\n", columns))
    _write_columns(dest, header, groups)
