"""Dataset ingestion, per-cohort fit orchestration, and table formatting.

Input CSV schema: header ``time,event,cohort``, then one record per line;
time a positive finite decimal in the user's time unit, event 0 or 1, cohort
an opaque label without line breaks. Output tables mirror the two report
formats: per-parameter Wald summaries and the cross-cohort metric summary
(latent default intensity, recovery intensity, observed and model LGD at the
horizon).
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import asdict, dataclass
from itertools import groupby, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .distributions import zt_poisson_mean
from .events import EventRecord, EventTable, to_arrays
from .models import ModelKind, cure_fraction, elgd_at_horizon

# inference and nonparametric load inside the functions that use them, so `simulate` runs
# without either and `km` without inference
if TYPE_CHECKING:
    from .inference import FitResult

__all__ = [
    "CohortDataset",
    "CsvFormatError",
    "SummaryRow",
    "read_events_csv",
    "write_events_csv",
    "build_summary_table",
    "observed_unrecovered",
    "format_summary_table",
    "format_fit_report",
]

_HEADER = ["time", "event", "cohort"]

# Lines read and parsed at a time, which bounds the reader's memory.
_CHUNK_LINES = 16_384
# Leading lines of a chunk that must all differ for the chunk to skip its dedupe.
_TIE_PROBE = 64


class CsvFormatError(ValueError):
    """Malformed event CSV; the message names the offending line."""


@dataclass(frozen=True)
class CohortDataset:
    """One cohort's records plus the model kind chosen for fitting."""

    cohort: str
    records: EventTable
    kind: ModelKind


def read_events_csv(source, kind: ModelKind | None = None) -> list[CohortDataset]:
    """Parse an event CSV into per-cohort datasets, in first-appearance order.

    ``source`` may be a path or an open text stream. When ``kind`` is
    None the model kind is inferred per cohort: fully observed cohorts get
    the zero-truncated model, cohorts with censoring the promotion-time
    model. Each record must fit on one physical line. Malformed input raises
    CsvFormatError naming the line.
    """
    owned = isinstance(source, (str, Path))
    stream = open(source, "r", encoding="utf-8", newline="") if owned else source
    try:
        try:
            header = next(csv.reader([stream.readline()]))
        except csv.Error as exc:
            raise CsvFormatError(f"line 1: {exc}") from None
        if [h.strip() for h in header] != _HEADER:
            raise CsvFormatError(
                f"line 1: missing or invalid header, expected {','.join(_HEADER)}"
            )
        labels: dict[str, int] = {}
        # per cohort code, (times, flags) pieces in file order
        pieces: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        first = 2
        while lines := list(islice(stream, _CHUNK_LINES)):
            times, flags, codes = _parse_chunk(lines, first, labels)
            first += len(lines)
            del lines  # hold one chunk of lines at a time
            # blank lines (code -1) fall in bin 0 of the shifted count
            order = np.argsort(codes, kind="stable")
            ends = np.cumsum(np.bincount(codes + 1, minlength=len(labels) + 1))
            for code in np.flatnonzero(np.diff(ends)).tolist():
                rows = order[ends[code]:ends[code + 1]]
                pieces.setdefault(code, []).append((times[rows], flags[rows]))
    finally:
        if owned:
            stream.close()

    datasets = []
    for code, cohort in enumerate(labels):
        times, flags = (np.concatenate(column) for column in zip(*pieces.pop(code)))
        records = EventTable(times, flags, cohort)
        if kind is not None:
            chosen = kind
        elif records.flags.all():
            chosen = ModelKind.ZERO_TRUNCATED
        else:
            chosen = ModelKind.PROMOTION_TIME
        datasets.append(CohortDataset(cohort=cohort, records=records, kind=chosen))
    return datasets


def _parse_chunk(
    lines: list[str], first: int, labels: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time, flag and cohort-code columns of a chunk of lines, one entry per line.

    ``first`` is the line number of lines[0]. A chunk whose first lines
    repeat is deduplicated, so each distinct line is parsed once, by
    _parse_plain or else row by row; a blank line gets code -1 and a new
    cohort label the next code in ``labels``.
    """

    def error(line: str, message: str) -> CsvFormatError:
        # a line's first occurrence is the first row of the chunk to fail
        return CsvFormatError(f"line {first + lines.index(line)}: {message}")

    head = lines[:_TIE_PROBE]
    distinct = lines if len(set(head)) == len(head) else list(dict.fromkeys(lines))
    columns = _parse_plain(distinct, labels)
    if columns is None:
        times, flags, codes = array("d"), array("b"), array("i")
        reader = csv.reader(distinct)
        try:
            for line, row in zip(distinct, reader):
                # only an open quote carries a field past the end of its line
                if '"' in line and (
                    reader.line_num > len(codes) + 1 or any("\n" in f or "\r" in f for f in row)
                ):
                    raise error(line, "a quoted field spans lines; each record must fit on one line")
                if not row:
                    times.append(1.0)
                    flags.append(0)
                    codes.append(-1)
                    continue
                if len(row) != 3:
                    raise error(line, f"expected 3 fields, got {len(row)}")
                raw_time, raw_event, cohort = row
                try:
                    time = float(raw_time)
                except ValueError:
                    raise error(line, f"non-numeric time {raw_time!r}") from None
                if not (math.isfinite(time) and time > 0.0):
                    raise error(line, f"time must be a positive finite number, got {raw_time}")
                flag = raw_event.strip()
                if flag not in ("0", "1"):
                    raise error(line, f"event flag must be 0 or 1, got {raw_event!r}")
                times.append(time)
                flags.append(flag == "1")
                codes.append(labels.setdefault(cohort, len(labels)))
        except csv.Error as exc:
            raise error(distinct[reader.line_num - 1], str(exc)) from None
        columns = (np.frombuffer(times), np.frombuffer(flags, np.int8), np.frombuffer(codes, np.intc))

    if len(distinct) == len(lines):
        return columns
    # each line takes the entries of its distinct line
    index = dict(zip(distinct, range(len(distinct))))
    rows = np.fromiter(map(index.__getitem__, lines), dtype=np.intp, count=len(lines))
    return tuple(column[rows] for column in columns)


def _parse_plain(
    lines: list[str], labels: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns of a chunk's lines parsed at once, or None if any line needs the csv module.

    Every line must be ``time,flag,cohort`` ended by LF, CRLF or the end of
    the input, with no quote, NUL or other CR and no field over the csv field
    size limit, a time that float() reads as positive and finite, and a flag
    of exactly 0 or 1. Label codes are assigned only once every check passed.
    """
    n = len(lines)
    # a comma also joins the lines, so the separators (comma, LF and NUL) must
    # run comma, comma, LF, comma for every line
    text = ",".join(lines).replace("\r\n", "\n").removesuffix("\n") + "\n"
    if '"' in text or "\r" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    raw = np.frombuffer(text.encode(errors="surrogatepass") + b",", np.uint8)
    seps = raw[(raw == ord(",")) | (raw == ord("\n")) | (raw == 0)]
    if seps.size != 4 * n or (seps.reshape(n, 4) != np.frombuffer(b",,\n,", np.uint8)).any():
        return None
    fields = text.replace("\n", "").split(",")
    raw_times, raw_flags, cohorts = fields[0::3], fields[1::3], fields[2::3]
    if raw_flags.count("0") + raw_flags.count("1") != n:
        return None
    try:
        times = np.fromiter(map(float, raw_times), np.float64, count=n)
    except ValueError:
        return None
    if not ((times > 0.0) & (times < math.inf)).all():
        return None
    flags = np.frombuffer("".join(raw_flags).encode(), np.int8) - ord("0")
    for cohort in dict.fromkeys(cohorts):
        labels.setdefault(cohort, len(labels))
    return times, flags, np.fromiter(map(labels.__getitem__, cohorts), np.intc, count=n)


def _quoted(label: str) -> str:
    """A cohort label as csv.writer quotes it, with % escaped for %-formatting.

    Raises ValueError for a label with a line break, which could not be read
    back: every record sits on one line.
    """
    if "\n" in label or "\r" in label:
        raise ValueError(f"cohort label {label!r} contains a line break")
    buf = io.StringIO()
    csv.writer(buf).writerow([label, ""])
    return buf.getvalue()[: -len(",\r\n")].replace("%", "%%")


def write_events_csv(records: Iterable[EventRecord], dest) -> None:
    """Write records in the input CSV schema; times keep 17 significant digits.

    Rows end in CRLF, as csv.writer writes them. A cohort label may not
    contain a line break (ValueError).
    """
    if isinstance(records, EventTable):
        tables = [records]
    else:
        # one table per run of records with the same label, in their order
        runs = groupby(records, key=lambda r: r.cohort)
        tables = [EventTable(*to_arrays(run), label) for label, run in runs]
    # time and flag as csv.writer writes "{:.17g}" and an int
    groups = [("%.17g,%d," + _quoted(t.cohort) + "\r\n", [t.times, t.flags]) for t in tables]
    _write_columns(dest, _HEADER, groups)


def _write_columns(dest, header: list[str], groups: list[tuple[str, list[np.ndarray]]]) -> None:
    """Write a CSV header to a path or text stream, then each group's columns as rows of its format.

    A format holds one %-field per column and ends in CRLF; the columns are
    1-d arrays of one length, checked by the caller. Each chunk of
    _CHUNK_LINES rows is formatted with one %.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
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


@dataclass(frozen=True)
class SummaryRow:
    """One cohort line of the cross-cohort summary; absent metrics are None."""

    cohort: str
    theta_default: float | None
    theta_recovery: float | None
    observed_lgd_pct: float | None
    elgd_pct: float | None
    converged: bool


def observed_unrecovered(records: Iterable[EventRecord], horizon: float) -> float:
    """Empirical fraction still unrecovered at the horizon (KM estimate)."""
    from .nonparametric import kaplan_meier

    return kaplan_meier(records).survival_at(horizon)


def build_summary_table(
    fits: Mapping[str, FitResult],
    horizon: float,
    observed: Mapping[str, float] | None = None,
) -> list[SummaryRow]:
    """Cross-cohort summary rows, sorted by cohort label, from fit_report_dict.

    Zero-truncated fits report the truncated latent mean in the default
    column; promotion-time fits report the raw intensity in the recovery
    column and 100x the model unrecovered probability at the horizon in the
    ELGD% column. Unconverged fits keep their row but are flagged.
    """
    observed = observed or {}
    rows = []
    for cohort in sorted(fits):
        rep = fit_report_dict(cohort, fits[cohort], horizon)
        # only a model with a horizon ELGD fills the recovery columns
        elgd = rep.get("elgd_at_horizon")
        obs = None if elgd is None else observed.get(cohort)
        rows.append(
            SummaryRow(
                cohort=cohort,
                theta_default=rep.get("latent_mean"),
                theta_recovery=None if elgd is None else rep["estimates"]["theta"],
                observed_lgd_pct=None if obs is None else 100.0 * obs,
                elgd_pct=None if elgd is None else 100.0 * elgd,
                converged=rep["converged"],
            )
        )
    return rows


def format_summary_table(rows: Iterable[SummaryRow]) -> str:
    """Aligned text rendering of the cross-cohort summary."""
    header = ["cohort", "theta-default", "theta-recovery", "observed LGD%", "ELGD%", "fit"]
    body = []
    for r in rows:
        body.append(
            [
                r.cohort,
                _cell(r.theta_default),
                _cell(r.theta_recovery),
                _cell(r.observed_lgd_pct, "{:.3f}"),
                _cell(r.elgd_pct, "{:.3f}"),
                "ok" if r.converged else "NOT CONVERGED",
            ]
        )
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: float | None, fmt: str = "{:.4f}") -> str:
    return "" if value is None else fmt.format(value)


def format_fit_report(cohort: str, fit: FitResult, horizon: float) -> str:
    """Appendix-style text block for one cohort fit: fit_report_dict as text."""
    rep = fit_report_dict(cohort, fit, horizon)
    lines = [f"cohort {cohort} [{rep['model']}]"]
    if "parameters" in rep:
        lines.append(
            f"  {'parameter':<10} {'estimate':>12} {'SE':>10} {'LI':>12} {'UI':>12} {'p-value':>9}"
        )
        for row in rep["parameters"]:
            lines.append(
                f"  {row['parameter']:<10} {row['estimate']:>12.4f} {row['se']:>10.4f}"
                f" {row['ci_low']:>12.4f} {row['ci_high']:>12.4f} {row['p_text']:>9}"
            )
    else:
        est = rep["estimates"]
        lines.append(
            "  NOT CONVERGED "
            f"(last point theta={est['theta']:.4g} shape={est['shape']:.4g} scale={est['scale']:.4g}, "
            f"gradient norm {rep['gradient_norm']:.3g} after {rep['iterations']} iterations)"
        )
    lines.append(f"  log-likelihood {rep['loglik']:.4f}")
    if "latent_mean" in rep:
        lines.append(f"  expected latent causes (truncated mean) {rep['latent_mean']:.4f}")
    else:
        lines.append(f"  cure fraction {rep['cure_fraction']:.4f}")
        lines.append(f"  ELGD at horizon {rep['horizon']:g}: {100.0 * rep['elgd_at_horizon']:.3f}%")
    return "\n".join(lines)


def fit_report_dict(cohort: str, fit: FitResult, horizon: float) -> dict:
    """The one record of what a cohort fit reports.

    format_fit_report renders it as text, dumps_fit_reports as JSON and
    build_summary_table as a summary row. Wald rows appear only for a
    converged fit; the zero-truncated model adds its latent mean, the
    promotion-time model its cure fraction and ELGD at the horizon.
    """
    from .inference import wald_summary

    theta, shape, scale = fit.model.params()
    out = {
        "cohort": cohort,
        "model": fit.model.kind.value,
        "estimates": {"theta": theta, "shape": shape, "scale": scale},
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "gradient_norm": fit.gradient_norm,
    }
    if fit.converged:
        out["parameters"] = [{**asdict(row), "p_text": row.p_text} for row in wald_summary(fit)]
    if fit.model.kind is ModelKind.ZERO_TRUNCATED:
        out["latent_mean"] = zt_poisson_mean(theta)
    else:
        out["cure_fraction"] = cure_fraction(fit.model)
        out["elgd_at_horizon"] = elgd_at_horizon(fit.model, horizon)
        out["horizon"] = horizon
    return out


def dumps_fit_reports(reports: list[dict]) -> str:
    """JSON document for a list of fit_report_dict outputs; a non-finite number is null."""
    import json

    # the parser reads each non-finite constant back as None, so the output is strict JSON
    plain = json.loads(json.dumps(reports), parse_constant=lambda _: None)
    return json.dumps({"fits": plain}, indent=2, allow_nan=False)


def write_overlay_csv(columns_by_cohort: Mapping[str, Sequence], dest, with_model: bool) -> None:
    """Columns (t, km[, model]) per cohort as CSV, cohort,t,km[,model], cohorts sorted by label.

    A cohort with another number of columns or with columns of unequal
    length is a ValueError naming it, raised before anything is written.
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
