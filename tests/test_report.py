"""CSV ingestion, summary assembly, and the two table renderings."""

import csv
import io
import json
import math
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwsurv import (
    CsvFormatError,
    EventRecord,
    EventTable,
    FitResult,
    ModelKind,
    ModelSpec,
    SimConfig,
    build_summary_table,
    format_fit_report,
    format_summary_table,
    observed_unrecovered,
    read_events_csv,
    simulate_cohort,
    write_events_csv,
)
from pwsurv import report
from pwsurv.report import dumps_fit_reports, fit_report_dict, write_overlay_csv

from cohorts import recovery_spec


# cohort labels that need quoting or would break a format string
LABELS = ["2008", "a,b", 'say "x"', '"', "", "{0}", "}{", " pad ", "%", "%s", "%%", "%(x)s", "{", "}"]


def csv_text(rows, quoting=csv.QUOTE_MINIMAL):
    """Rows as csv.writer writes them."""
    buf = io.StringIO()
    csv.writer(buf, quoting=quoting).writerows(rows)
    return buf.getvalue()


def parse(text, kind=None):
    return read_events_csv(io.StringIO(text), kind=kind)


def make_fit(model, converged=True, loglik=-100.0):
    arr = np.full(3, 0.1)
    nan = np.full(3, np.nan)
    return FitResult(
        model=model,
        se=arr if converged else nan,
        ci_low=arr if converged else nan,
        ci_high=arr if converged else nan,
        p_value=arr if converged else nan,
        loglik=loglik,
        converged=converged,
        iterations=12,
        gradient_norm=1e-9 if converged else 0.5,
    )


class TestReadEventsCsv:
    def test_minimal_parse(self):
        out = parse("time,event,cohort\n1.5,1,a\n2.0,1,a\n")
        assert len(out) == 1
        ds = out[0]
        assert ds.cohort == "a"
        assert ds.records == [EventRecord(1.5, 1, "a"), EventRecord(2.0, 1, "a")]
        assert ds.kind is ModelKind.ZERO_TRUNCATED

    def test_kind_inference_per_cohort(self):
        out = parse("time,event,cohort\n1.5,1,a\n2.0,1,a\n3.0,0,b\n1.0,1,b\n")
        kinds = {ds.cohort: ds.kind for ds in out}
        assert kinds == {"a": ModelKind.ZERO_TRUNCATED, "b": ModelKind.PROMOTION_TIME}

    def test_kind_override_applies_everywhere(self):
        out = parse("time,event,cohort\n1.5,1,a\n2.0,1,b\n", kind=ModelKind.PROMOTION_TIME)
        assert all(ds.kind is ModelKind.PROMOTION_TIME for ds in out)

    def test_cohorts_keep_first_appearance_order(self):
        out = parse("time,event,cohort\n1,1,z\n2,1,a\n3,1,z\n")
        assert [ds.cohort for ds in out] == ["z", "a"]
        assert [r.time for r in out[0].records] == [1.0, 3.0]

    def test_missing_header(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            parse("t,e,c\n1,1,a\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            parse("")

    def test_bad_event_flag_names_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            parse("time,event,cohort\n1,1,a\n2,2,a\n")

    def test_non_numeric_time_names_line(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            parse("time,event,cohort\nfast,1,a\n")

    def test_nonpositive_time_names_line(self):
        with pytest.raises(CsvFormatError, match="line 4"):
            parse("time,event,cohort\n1,1,a\n2,1,a\n0.0,1,a\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            parse("time,event,cohort\n-3,1,a\n")

    def test_non_finite_time_names_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            parse("time,event,cohort\n1,1,a\ninf,1,a\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            parse("time,event,cohort\nnan,0,a\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            parse("time,event,cohort\n1,1\n")

    def test_blank_lines_skipped(self):
        out = parse("time,event,cohort\n1,1,a\n\n2,1,a\n")
        assert len(out[0].records) == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            # a quoted label closed on the next line
            ('time,event,cohort\n1,1,a\n2,1,"b\nc"\n3,1,a\n', 3),
            ('time,event,cohort\r\n1,1,"a\r\nb"\r\n', 2),
            # an open quote at the last distinct line, whose next line repeats an earlier one
            ('time,event,cohort\n2,1,b\n1,1,"a\n2,1,b\n', 3),
        ],
    )
    def test_record_spanning_lines_names_line(self, text, line):
        with pytest.raises(CsvFormatError, match=f"line {line}: a quoted field spans lines"):
            parse(text)

    def test_oversized_field_names_line(self):
        text = "time,event,cohort\n1,1,a\n2,1," + "x" * 200_000 + "\n"
        with pytest.raises(CsvFormatError, match="line 3: field larger than field limit"):
            parse(text)

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("time,event,cohort\n1.5,1,a\n")
        assert read_events_csv(p)[0].records == [EventRecord(1.5, 1, "a")]
        assert read_events_csv(str(p))[0].records == [EventRecord(1.5, 1, "a")]

    def test_byte_stream_is_rejected_at_line_1(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            read_events_csv(io.BytesIO(b"time,event,cohort\n1.5,1,a\n"))


class TestCsvRoundTrip:
    def test_simulated_cohort_survives_round_trip(self, tmp_path):
        m = recovery_spec("2008")
        recs = simulate_cohort(SimConfig(model=m, n=20000, horizon=24.0, seed=6), cohort="2008")
        path = tmp_path / "sim.csv"
        write_events_csv(recs, path)
        back = read_events_csv(path)
        assert len(back) == 1
        assert back[0].records == recs

    def test_awkward_floats_are_lossless(self):
        recs = [
            EventRecord(0.1 + 0.2, 1, "a"),
            EventRecord(1.0 / 3.0, 0, "a"),
            EventRecord(math.pi, 1, "a"),
            EventRecord(1e-300, 1, "a"),
        ]
        buf = io.StringIO()
        write_events_csv(recs, buf)
        back = read_events_csv(io.StringIO(buf.getvalue()))
        assert back[0].records == recs

    def test_bool_event_flags_survive(self):
        recs = [EventRecord(1.0, True, "a"), EventRecord(2.0, False, "a")]
        buf = io.StringIO()
        write_events_csv(recs, buf)
        assert buf.getvalue() == "time,event,cohort\r\n1,1,a\r\n2,0,a\r\n"
        assert read_events_csv(io.StringIO(buf.getvalue()))[0].records == recs

    def test_interleaved_labels_keep_row_order(self):
        recs = [EventRecord(1.5, 1, "a"), EventRecord(2.0, 0, "b"), EventRecord(0.25, 1, "a")]
        buf = io.StringIO()
        write_events_csv(recs, buf)
        assert buf.getvalue() == "time,event,cohort\r\n1.5,1,a\r\n2,0,b\r\n0.25,1,a\r\n"

    def test_bad_label_after_good_runs_writes_nothing(self):
        recs = [EventRecord(1.0, 1, "a"), EventRecord(2.0, 1, "b"), EventRecord(3.0, 1, "c\n")]
        buf = io.StringIO()
        with pytest.raises(ValueError, match="line break"):
            write_events_csv(recs, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("label", ["a\nb", "a\r", "\r\n"])
    def test_label_with_line_break_is_not_written(self, label):
        table = EventTable(np.array([1.0]), np.array([1]), label)
        for records in (table, list(table)):
            buf = io.StringIO()
            with pytest.raises(ValueError, match="line break"):
                write_events_csv(records, buf)
            assert buf.getvalue() == ""

    @pytest.mark.parametrize("label", LABELS)
    def test_event_write_matches_csv_writer(self, label):
        table = EventTable(np.array([0.1 + 0.2, 1e-300, 24.0]), np.array([1, 0, 1]), label)
        expected = csv_text(
            [["time", "event", "cohort"]]
            + [[f"{t:.17g}", d, label] for t, d in zip(table.times.tolist(), table.flags.tolist())]
        )
        for records in (table, list(table)):
            buf = io.StringIO()
            write_events_csv(records, buf)
            assert buf.getvalue() == expected

    @pytest.mark.parametrize("with_model", [False, True])
    def test_overlay_write_matches_csv_writer(self, with_model):
        width = 3 if with_model else 2
        t, km, model = np.array([0.0, 0.1 + 0.2]), np.array([1.0, 0.5]), np.array([1.0, 1.0 / 3.0])
        columns = {label: [t, km, model][:width] for label in LABELS}
        header = ["cohort", "t", "km", "model"][: width + 1]
        expected = csv_text(
            [header]
            + [[c] + [f"{v:.17g}" for v in row] for c in sorted(columns) for row in zip(*columns[c])]
        )
        buf = io.StringIO()
        write_overlay_csv(columns, buf, with_model=with_model)
        assert buf.getvalue() == expected

    def test_large_tables_match_csv_writer(self):
        # 50,000 rows span several write chunks
        rng = np.random.default_rng(5)
        times, flags = rng.exponential(3.0, 50_000), rng.integers(0, 2, 50_000)
        label = '%s{0},"'
        table = EventTable(times, flags, label)
        expected = csv_text(
            [["time", "event", "cohort"]]
            + [[f"{t:.17g}", d, label] for t, d in zip(times.tolist(), flags.tolist())]
        )
        buf = io.StringIO()
        write_events_csv(table, buf)
        assert buf.getvalue() == expected
        columns = [times, rng.random(50_000), rng.random(50_000)]
        expected = csv_text(
            [["cohort", "t", "km", "model"]]
            + [[label] + [f"{v:.17g}" for v in row] for row in zip(*(c.tolist() for c in columns))]
        )
        buf = io.StringIO()
        write_overlay_csv({label: columns}, buf, with_model=True)
        assert buf.getvalue() == expected

    # each case maps cohorts to their columns; "a" has too few, too many or unequal ones
    @pytest.mark.parametrize(
        "rows, with_model",
        [
            ({"a": [[0.0], [1.0], [0.9]]}, False),
            ({"a": [[0.0], [1.0]]}, True),
            ({"a": [[0.0, 1.0], [1.0]], "b": [[0.0], [1.0]]}, False),
            ({"0": [[0.0], [1.0], [1.0]], "a": [[0.0, 1.0], [1.0, 0.5], [1.0, 0.4], [0.0, 0.3]]}, True),
        ],
    )
    def test_overlay_row_of_wrong_width_names_its_cohort(self, rows, with_model, tmp_path):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="cohort 'a'"):
            write_overlay_csv(rows, buf, with_model=with_model)
        assert buf.getvalue() == ""
        with pytest.raises(ValueError, match="cohort 'a'"):
            write_overlay_csv(rows, tmp_path / "km.csv", with_model=with_model)
        assert not (tmp_path / "km.csv").exists()

    def test_cohort_labels_with_commas_survive(self):
        recs = [EventRecord(1.0, 1, "a,b")]
        buf = io.StringIO()
        write_events_csv(recs, buf)
        back = read_events_csv(io.StringIO(buf.getvalue()))
        assert back[0].cohort == "a,b"
        assert back[0].records == recs


class TestSummaryTable:
    def test_zt_row_reports_truncated_mean(self):
        fit = make_fit(ModelSpec.zero_truncated(1.1361, 2.7973, 0.3315))
        rows = build_summary_table({"2008": fit}, horizon=24.0)
        assert len(rows) == 1
        row = rows[0]
        assert row.theta_default == pytest.approx(1.6734, abs=0.005)
        assert row.theta_recovery is None
        assert row.elgd_pct is None
        assert row.converged

    def test_ptm_row_reports_intensity_and_elgd(self):
        fit = make_fit(ModelSpec.promotion_time(0.8044, 1.2417, 24.2691))
        rows = build_summary_table({"2011": fit}, horizon=24.0)
        row = rows[0]
        assert row.theta_recovery == pytest.approx(0.8044)
        assert row.elgd_pct == pytest.approx(60.386, abs=0.05)
        assert row.theta_default is None

    def test_observed_column_only_when_supplied(self):
        fit = make_fit(ModelSpec.promotion_time(0.8, 1.2, 10.0))
        without = build_summary_table({"c": fit}, horizon=24.0)
        assert without[0].observed_lgd_pct is None
        with_obs = build_summary_table({"c": fit}, horizon=24.0, observed={"c": 0.61})
        assert with_obs[0].observed_lgd_pct == pytest.approx(61.0)

    def test_zt_row_leaves_recovery_columns_empty(self):
        fit = make_fit(ModelSpec.zero_truncated(1.0, 1.0, 1.0))
        row = build_summary_table({"c": fit}, horizon=24.0, observed={"c": 0.61})[0]
        assert (row.theta_recovery, row.observed_lgd_pct, row.elgd_pct) == (None, None, None)

    def test_unconverged_rows_kept_and_flagged(self):
        fits = {
            "a": make_fit(ModelSpec.zero_truncated(1.0, 1.0, 1.0), converged=False),
            "b": make_fit(ModelSpec.promotion_time(0.5, 1.0, 5.0)),
        }
        rows = build_summary_table(fits, horizon=24.0)
        assert [r.cohort for r in rows] == ["a", "b"]
        assert not rows[0].converged
        assert rows[1].converged

    def test_empty_input_gives_empty_table(self):
        assert build_summary_table({}, horizon=24.0) == []

    def test_rows_sorted_by_label(self):
        fits = {l: make_fit(ModelSpec.zero_truncated(1.0, 1.0, 1.0)) for l in ("z", "a", "m")}
        rows = build_summary_table(fits, horizon=24.0)
        assert [r.cohort for r in rows] == ["a", "m", "z"]


class TestObservedUnrecovered:
    def test_kaplan_meier_fraction_at_horizon(self):
        recs = [EventRecord(10.0, 1, "c"), EventRecord(24.0, 0, "c"), EventRecord(24.0, 0, "c")]
        assert observed_unrecovered(recs, 24.0) == pytest.approx(2.0 / 3.0)


class TestRenderings:
    def test_summary_text_layout(self):
        fits = {
            "2011": make_fit(ModelSpec.promotion_time(0.8044, 1.2417, 24.2691)),
            "bad": make_fit(ModelSpec.zero_truncated(1.0, 1.0, 1.0), converged=False),
        }
        text = format_summary_table(build_summary_table(fits, 24.0, observed={"2011": 0.60385}))
        lines = text.splitlines()
        assert "theta-default" in lines[0] and "ELGD%" in lines[0]
        assert "60.385" in text
        elgd_cell = float(lines[1].split()[3])
        assert elgd_cell == pytest.approx(60.386, abs=0.05)
        assert "NOT CONVERGED" in text

    def test_fit_report_converged_block(self):
        fit = make_fit(ModelSpec.promotion_time(0.8044, 1.2417, 24.2691))
        text = format_fit_report("2011", fit, horizon=24.0)
        for token in ("theta", "shape", "scale", "SE", "LI", "UI", "p-value", "cure fraction", "ELGD"):
            assert token in text

    def test_fit_report_unconverged_block(self):
        fit = make_fit(ModelSpec.zero_truncated(1.0, 1.0, 1.0), converged=False)
        text = format_fit_report("a", fit, horizon=24.0)
        assert "NOT CONVERGED" in text
        assert "SE" not in text

    def test_fit_report_dict_is_json_serializable(self):
        fit = make_fit(ModelSpec.promotion_time(0.8044, 1.2417, 24.2691))
        doc = json.loads(dumps_fit_reports([fit_report_dict("2011", fit, 24.0)]))
        entry = doc["fits"][0]
        assert entry["cohort"] == "2011"
        assert entry["model"] == "ptm"
        assert entry["estimates"]["theta"] == pytest.approx(0.8044)
        assert entry["elgd_at_horizon"] == pytest.approx(0.60386, abs=5e-4)
        assert [p["parameter"] for p in entry["parameters"]] == ["theta", "shape", "scale"]

    def test_overlay_csv_layout(self):
        buf = io.StringIO()
        write_overlay_csv({"a": [np.array([0.0, 1.0]), np.array([1.0, 0.5]), np.array([1.0, 0.48])]}, buf, with_model=True)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "cohort,t,km,model"
        assert lines[1].startswith("a,0,1,1")
        buf2 = io.StringIO()
        write_overlay_csv({"a": [np.array([0.0]), np.array([1.0])]}, buf2, with_model=False)
        assert buf2.getvalue().splitlines()[0] == "cohort,t,km"


# --- the reader against the row-by-row loop it replaced -------------------


def row_loop_oracle(text, newline="\n"):
    """The reader as one loop over csv rows, with the same checks and messages."""
    reader = csv.reader(io.StringIO(text, newline=newline))
    try:
        return _row_loop(reader)
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


def _row_loop(reader):
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["time", "event", "cohort"]:
        raise CsvFormatError("line 1: missing or invalid header, expected time,event,cohort")
    columns = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise CsvFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
        raw_time, raw_event, cohort = row
        try:
            time = float(raw_time)
        except ValueError:
            raise CsvFormatError(f"line {lineno}: non-numeric time {raw_time!r}") from None
        if not (math.isfinite(time) and time > 0.0):
            raise CsvFormatError(
                f"line {lineno}: time must be a positive finite number, got {raw_time}"
            )
        flag = raw_event.strip()
        if flag not in ("0", "1"):
            raise CsvFormatError(f"line {lineno}: event flag must be 0 or 1, got {raw_event!r}")
        times, flags = columns.setdefault(cohort, ([], []))
        times.append(time)
        flags.append(int(flag))
    return [
        (cohort, times, flags, ModelKind.ZERO_TRUNCATED if all(flags) else ModelKind.PROMOTION_TIME)
        for cohort, (times, flags) in columns.items()
    ]


@contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


TIED_TIMES = ["1", "2", "3.5", "24", "0.30000000000000004", "1e-300"]
# times float() reads that other parsers may read differently or reject
ODD_TIMES = ["1_0", " 1.5 ", "１２", "+7", ".5", "1e1_0"]
# ...and times it rejects or reads as zero, negative or infinite
BAD_TIMES = ["infinity", "-0", "1e400", "0x1p-3", "1e-400", "nan", "1__0"]
SMALL_FIELD_LIMIT = 48
BAD_ROWS = [
    "0,1,a", "-1,1,a", "inf,1,a", "nan,0,a", "fast,1,a", ",1,a", "1,2,a", "1,yes,a",
    "1,,a", "1,1", "1,1,a,b", " ",
] + [f"{t},1,a" for t in BAD_TIMES] + [
    "1,01,a", "1,10,a", "1,00,a",
]
# labels csv.writer leaves unquoted, so chunks of distinct rows take the columnar parse;
# the csv module reads a NUL as part of a label, a stream opened with
# errors="surrogateescape" gives lone surrogates, and the long label is over the
# field limit when it is patched down
PLAIN_LABELS = ["2008", "", " pad ", "{0}", "%s", "１２", "a\x00b", "\udcff", "x" * (SMALL_FIELD_LIMIT + 1)]


@st.composite
def event_csv(draw):
    """CSV text with heavy ties or distinct plain rows, blank lines, LF, CRLF and bare CR ends,
    quoted labels and maybe bad rows."""
    time_text = st.one_of(
        st.sampled_from(TIED_TIMES + ODD_TIMES),
        st.floats(min_value=1e-300, max_value=1e300).map(repr),
    )
    plain, tied = draw(st.booleans()), draw(st.booleans())
    if plain:
        row = st.tuples(time_text, st.sampled_from(["0", "1"]), st.sampled_from(PLAIN_LABELS))
    else:
        row = st.tuples(time_text, st.sampled_from(["0", "1", " 1", "0 "]), st.sampled_from(LABELS))
    if tied:  # a few distinct rows, each repeated
        row = st.sampled_from(draw(st.lists(row, min_size=1, max_size=8)))
    rows = draw(st.lists(row, max_size=40))
    quoting = csv.QUOTE_MINIMAL if plain else draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    lines = [csv_text([r], quoting)[: -len("\r\n")] for r in rows]
    if plain and not tied:
        lines = list(dict.fromkeys(lines))
    noisy = not plain or draw(st.booleans())  # some plain files stay wholly plain
    for bad in draw(st.lists(st.sampled_from(BAD_ROWS), max_size=2 if noisy else 0)):
        for _ in range(draw(st.integers(1, 2))):  # a repeated bad row fails at its first line
            lines.insert(draw(st.integers(0, len(lines))), bad)
    for _ in range(draw(st.integers(0, 3 if noisy else 0))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    line_ends = ["\n", "\r\n", "\r"] if noisy and draw(st.booleans()) else ["\n", "\r\n"]
    ends = draw(st.lists(st.sampled_from(line_ends), min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = "time,event,cohort" + ends[0] + "".join(l + e for l, e in zip(lines, ends[1:]))
    if lines and lines[-1] and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last record
    return text


class TestReaderMatchesRowLoop:
    @settings(max_examples=500, deadline=None)
    @given(
        text=event_csv(),
        chunk=st.integers(1, 64),
        newline=st.sampled_from(["\n", "", "\r", "\r\n"]),  # how the stream splits lines
        limit=st.sampled_from([csv.field_size_limit(), SMALL_FIELD_LIMIT]),
        probe=st.integers(1, 8),
    )
    def test_same_cohorts_or_same_error(self, text, chunk, newline, limit, probe):
        with field_size_limit(limit):
            try:
                expected = row_loop_oracle(text, newline)
            except CsvFormatError as exc:
                expected = str(exc)
            # a chunk whose first `probe` lines differ is parsed without its dedupe
            with patch.object(report, "_CHUNK_LINES", chunk), patch.object(report, "_TIE_PROBE", probe):
                try:
                    got = [
                        (ds.cohort, ds.records.times.tolist(), ds.records.flags.tolist(), ds.kind)
                        for ds in read_events_csv(io.StringIO(text, newline=newline))
                    ]
                except CsvFormatError as exc:
                    got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("probe", [1, 2, 3])
    def test_ties_after_the_probed_lines_are_kept(self, probe):
        # probe 1 sees no tie and parses every line; 2 and 3 see one and deduplicate
        text = "time,event,cohort\n1,1,a\n1,1,a\n2,0,b\n1,1,a\n3,1,a\n"
        with patch.object(report, "_TIE_PROBE", probe):
            got = [(ds.cohort, ds.records.times.tolist(), ds.records.flags.tolist()) for ds in parse(text)]
        assert got == [("a", [1.0, 1.0, 1.0, 3.0], [1, 1, 1, 1]), ("b", [2.0], [0])]

    def test_plain_chunks_are_parsed_as_columns(self):
        parsed = []

        def spy(lines, labels, real=report._parse_plain):
            columns = real(lines, labels)
            parsed.append(columns is not None)
            return columns

        plain = "time,event,cohort\r\n1.5,1,a\r\n2,0,b\r\n1_0,1,a"
        with patch.object(report, "_parse_plain", spy):
            assert [ds.cohort for ds in parse(plain)] == ["a", "b"]
            # a quote, a padded flag and a blank line parse with the csv module
            for odd in ['1.5,1,"a"', "1.5, 1,a", ""]:
                assert len(parse(plain + "\n" + odd + "\n")) == 2
            # so do lines that fail, and only the csv module raises
            for bad in ["1.5,1,a,", "-0,1,a", "1.5,1,a\rb", "1.5,,a\n2,01,a"]:
                with pytest.raises(CsvFormatError, match="line 5"):
                    parse(plain + "\n" + bad + "\n")
            with field_size_limit(SMALL_FIELD_LIMIT), pytest.raises(CsvFormatError, match="line 5: field"):
                parse(plain + "\n1.5,1," + "x" * (SMALL_FIELD_LIMIT + 1))
        assert parsed == [True] + [False] * 8
