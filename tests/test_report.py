"""CSV ingestion, summary assembly, and the two table renderings."""

import csv
import dataclasses
import io
import json
import math
import os
import stat
import threading
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwsurv import (
    CsvFormatError,
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
from pwsurv import events
from pwsurv.events import write_overlay_csv
from pwsurv.report import dumps_fit_reports, fit_report_dict

from cohorts import recovery_spec


# cohort labels that need quoting or would break a format string, and one that is UTF-8 but not ASCII
LABELS = [
    "2008", "a,b", 'say "x"', '"', "", "{0}", "}{", " pad ", "%", "%s", "%%", "%(x)s", "{", "}", "vintage-２０"
]


def csv_text(rows, quoting=csv.QUOTE_MINIMAL):
    """Rows as csv.writer writes them."""
    buf = io.StringIO()
    csv.writer(buf, quoting=quoting).writerows(rows)
    return buf.getvalue()


def parse(text):
    return read_events_csv(io.StringIO(text))


def check_rewrites(write, tmp_path):
    """Check that write(dest), which writes one output to a path, rewrites a file in place.

    An existing file, shorter or longer than the output, ends up holding just
    the output's bytes; a symlink stays a link and its target is rewritten; a
    hard link sees the new bytes and the file keeps its mode; os.devnull and a
    FIFO can be written. Every destination is opened without O_TRUNC.
    """
    root = tmp_path / "rewrites"
    root.mkdir()
    dests = []

    def rewrite(dest, old=None):
        if old is not None:
            dest.write_bytes(old)
        dests.append(dest)
        write(dest)

    with patch("os.open", wraps=os.open) as spy:
        rewrite(root / "fresh")
        new = (root / "fresh").read_bytes()
        dest = root / "out"
        for old in (b"x" * (len(new) + 5000), b"x"):  # a shorter rewrite, then a longer one
            rewrite(dest, old)
            assert dest.read_bytes() == new
        link = root / "link"
        link.symlink_to(dest)
        dest.write_bytes(b"x" * (len(new) + 1))
        rewrite(link)
        assert link.is_symlink() and dest.read_bytes() == new
        hard = root / "hard"
        os.link(dest, hard)
        dest.chmod(0o600)
        rewrite(hard, b"x" * (len(new) + 1))
        assert dest.read_bytes() == new and stat.S_IMODE(dest.stat().st_mode) == 0o600
        rewrite(os.devnull)
        fifo = root / "fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        rewrite(fifo)
        reader.join(timeout=60)
        assert read == [new]
    paths = [os.fspath(dest) for dest in dests]
    opened = [c.args for c in spy.call_args_list if os.fspath(c.args[0]) in paths]
    assert [os.fspath(path) for path, *_ in opened] == paths
    assert not any(flags & os.O_TRUNC for _, flags, *_ in opened)


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
        assert ds.records == EventTable([1.5, 2.0], [1, 1], "a")
        assert ds.kind is ModelKind.ZERO_TRUNCATED

    def test_kind_inference_per_cohort(self):
        out = parse("time,event,cohort\n1.5,1,a\n2.0,1,a\n3.0,0,b\n1.0,1,b\n")
        kinds = {ds.cohort: ds.kind for ds in out}
        assert kinds == {"a": ModelKind.ZERO_TRUNCATED, "b": ModelKind.PROMOTION_TIME}

    def test_dataset_label_is_its_records_label(self):
        (ds,) = parse("time,event,cohort\n1.5,1,a\n")
        assert [f.name for f in dataclasses.fields(ds)] == ["records", "kind"]
        assert ds.cohort == ds.records.cohort == "a"
        assert dataclasses.replace(ds, kind=ModelKind.PROMOTION_TIME).cohort == "a"

    def test_cohorts_keep_first_appearance_order(self):
        out = parse("time,event,cohort\n1,1,z\n2,1,a\n3,1,z\n")
        assert [ds.cohort for ds in out] == ["z", "a"]
        assert out[0].records.times.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("t,e,c\n1,1,a\n", "^line 1: missing or invalid header", id="other-names"),
            pytest.param("", "^line 1: missing or invalid header", id="empty"),
            # the header is read in the same strict dialect as the records
            pytest.param('time,event,"cohort\n1,1,a\n', "^line 1: unexpected end of data$", id="open-quote"),
            pytest.param('"time"x,event,cohort\n1,1,a\n', "^line 1: ',' expected after '\"'$", id="after-quote"),
        ],
    )
    def test_missing_header(self, text, message):
        with pytest.raises(CsvFormatError, match=message):
            parse(text)

    def test_bad_event_flag_names_line(self):
        with pytest.raises(CsvFormatError, match="line 3"):
            parse("time,event,cohort\n1,1,a\n2,2,a\n")

    def test_non_numeric_time_names_line(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            parse("time,event,cohort\nfast,1,a\n")
        # only the header's byte-order mark is dropped
        with pytest.raises(CsvFormatError, match="line 3: non-numeric time"):
            parse("time,event,cohort\n1.5,1,a\n\ufeff2.5,1,a\n")

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
            # the csv module rejects the record on its second line, a field over the limit
            pytest.param('time,event,cohort\n1,1,"a\n' + "x" * (csv.field_size_limit() + 1) + "\n", 2, id="limit"),
            # ...or on its third
            pytest.param('time,event,cohort\n1,1,a\n1,1,"a\nb\n' + "x" * csv.field_size_limit(), 3, id="limit-3"),
            # a quote still open at the end of the input, with no line end after it
            pytest.param('time,event,cohort\n1,1,a\n2,1,"a', 3, id="open-at-end"),
            pytest.param('time,event,cohort\r\n1,1,a\r\n2,1,"a', 3, id="open-at-end-crlf"),
            # a quoted line break that the stream does not split at (io.StringIO splits at "\n" only)
            pytest.param('time,event,cohort\n1,1,"a\rb"\n', 2, id="cr-in-quote"),
        ],
    )
    def test_record_spanning_lines_names_line(self, text, line):
        # with one line a chunk, a quote is open at the end of a chunk that is not the last
        for chunk in (events._CHUNK_LINES, 1):
            with patch.object(events, "_CHUNK_LINES", chunk):
                with pytest.raises(CsvFormatError, match=f"line {line}: a quoted field spans lines"):
                    parse(text)

    # a text stream over bytes splits only at its newline and reads any other line break as is
    @pytest.mark.parametrize("newline, inside", [("\r\n", "\n"), ("\r\n", "\r"), ("\r", "\n")])
    def test_quoted_line_break_within_one_stream_line_names_line(self, newline, inside):
        # the break may sit just before the closing quote, where the line's end is not
        for record in (f'2,1,"a{inside}b"', f'2,1,"ab{inside}"'):
            text = newline.join(["time,event,cohort", "1,1,a", record, ""])
            stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)
            with pytest.raises(CsvFormatError, match="^line 3: a quoted field spans lines"):
                read_events_csv(stream)

    @pytest.mark.parametrize("text", ['1,1,"a"b', '1,1,"a" ', '"1"x,1,a'])
    def test_text_after_closing_quote_names_line(self, tmp_path, text):
        data = "time,event,cohort\n0.5,1,a\n" + text + "\n"
        with pytest.raises(CsvFormatError, match="^line 3: ',' expected after '\"'$"):
            parse(data)
        p = tmp_path / "events.csv"
        p.write_text(data, encoding="utf-8")
        with pytest.raises(CsvFormatError, match="^line 3: ',' expected after '\"'$"):
            read_events_csv(p)

    def test_oversized_field_names_line(self):
        text = "time,event,cohort\n1,1,a\n2,1," + "x" * 200_000 + "\n"
        with pytest.raises(CsvFormatError, match="line 3: field larger than field limit"):
            parse(text)

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("time,event,cohort\n1.5,1,a\n")
        assert read_events_csv(p)[0].records == EventTable([1.5], [1], "a")
        assert read_events_csv(str(p))[0].records == EventTable([1.5], [1], "a")

    def test_byte_order_mark_on_header_is_ignored(self, tmp_path):
        text = "time,event,cohort\n1.5,1,a\n2.5,0,b\n"
        expected = parse(text)
        # the mark comes before the header's first quote, if it has one
        for header in ["time,event,cohort\n", '"time","event","cohort"\r\n']:
            marked = "\ufeff" + header + text.split("\n", 1)[1]
            p = tmp_path / "bom.csv"
            p.write_text(marked, encoding="utf-8", newline="")
            assert read_events_csv(p) == expected
            assert parse(marked) == expected

    @pytest.mark.parametrize(
        "line, bad, byte",
        [
            (1, b"time,event,\xffcohort", "ff"),
            (3, b"2.5,1,\xffb", "ff"),
            # a multibyte sequence cut short by the line end
            (3, b"2.5,1,b\xc3", "c3"),
            # past the first two reading chunks
            (2 + 2 * events._CHUNK_LINES, b"2.5,1,\xffb", "ff"),
            # the byte comes before the label that is over the field limit
            (2, b"1,1,\xff" + b"x" * csv.field_size_limit(), "ff"),
        ],
    )
    def test_file_that_is_not_utf8_names_line(self, tmp_path, line, bad, byte):
        lines = [b"time,event,cohort"] + [b"1.5,1,a"] * line
        lines[line - 1] = bad
        p = tmp_path / "events.csv"
        p.write_bytes(b"\r\n".join(lines))
        with pytest.raises(CsvFormatError, match=rf"^line {line}: not UTF-8 text \(byte 0x{byte}\)$"):
            read_events_csv(p)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([b"time,event,cohort", b"abc,1,a", b"1.5,1,\xffb"], "line 2: non-numeric time 'abc'"),
            ([b"time,event,cohorX"] + [b"1.5,1,a"] * 100 + [b"2.5,1,\xffb"], "line 1: missing or invalid header"),
            # the open quote on line 2 runs on into the byte
            ([b"time,event,cohort", b'1,1,"a', b"2,1,\xffb"], "line 2: a quoted field spans lines"),
            (
                [b"time,event,cohort", b'1,1,"a', b"\xff" + b"x" * csv.field_size_limit()],
                "line 2: a quoted field spans lines",
            ),
            (
                [b"time,event,cohort", b"1,1," + b"x" * (csv.field_size_limit() + 1), b"2,1,\xffb"],
                r"line 2: field larger than field limit \(131072\)",
            ),
        ],
    )
    def test_bad_line_in_front_of_a_byte_that_is_not_utf8_is_named(self, tmp_path, lines, message):
        # the byte is one more check of its own line, so a bad line in front of it is named first
        p = tmp_path / "events.csv"
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CsvFormatError, match=f"^{message}"):
            read_events_csv(p)

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
        # a copy with every field quoted, and one with each flag padded (", 1,"), read as the file they copy
        header, *rows = csv.reader(io.StringIO(path.read_text(), newline=""))
        padded = [header, *([t, " " + e, c] for t, e, c in rows)]
        for copy in (csv_text([header, *rows], csv.QUOTE_ALL), csv_text(padded)):
            assert [ds.records for ds in parse(copy)] == [recs]

    def test_path_like_is_a_path(self, tmp_path):
        # an os.DirEntry is an os.PathLike that is neither a str nor a Path
        (tmp_path / "events.csv").touch()
        with os.scandir(tmp_path) as entries:
            (entry,) = entries
        recs = EventTable([1.5, 2.5], [1, 0], "a")
        write_events_csv(recs, entry)
        assert read_events_csv(entry)[0].records == recs

    def test_awkward_floats_are_lossless(self):
        recs = EventTable([0.1 + 0.2, 1.0 / 3.0, math.pi, 1e-300], [1, 0, 1, 1], "a")
        buf = io.StringIO()
        write_events_csv(recs, buf)
        back = read_events_csv(io.StringIO(buf.getvalue()))
        assert back[0].records == recs

    def test_bool_event_flags_survive(self):
        recs = EventTable([1.0, 2.0], [True, False], "a")
        buf = io.StringIO()
        write_events_csv(recs, buf)
        assert buf.getvalue() == "time,event,cohort\r\n1,1,a\r\n2,0,a\r\n"
        assert read_events_csv(io.StringIO(buf.getvalue()))[0].records == recs

    @pytest.mark.parametrize(
        "label, match",
        [("a\nb", "line break"), ("a\r", "line break"), ("\r\n", "line break")]
        # a lone surrogate, as a stream decoded with errors="surrogatepass" yields one, is not UTF-8
        + [("\ud800", "lone surrogate"), ("a\udfffb", "lone surrogate"), ("\udcff", "lone surrogate")],
    )
    def test_unwritable_label_is_not_written(self, label, match, tmp_path):
        table = EventTable(np.array([1.0]), np.array([1]), label)
        columns = {label: [np.array([0.0]), np.array([1.0])]}
        writers = [lambda dest: write_events_csv(table, dest), lambda dest: write_overlay_csv(columns, dest, False)]
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"time,event,cohort\r\n1,1,old\r\n")
        for write in writers:
            buf = io.StringIO()
            with pytest.raises(ValueError, match=match):
                write(buf)
            assert buf.getvalue() == ""
            with pytest.raises(ValueError, match=match):
                write(tmp_path / "out.csv")
            assert not (tmp_path / "out.csv").exists()
            with pytest.raises(ValueError, match=match):
                write(existing)
            assert existing.read_bytes() == b"time,event,cohort\r\n1,1,old\r\n"

    @pytest.mark.parametrize("writer", ["events", "overlay"])
    def test_path_is_rewritten_in_place(self, writer, tmp_path):
        table = EventTable([1.5, 2.5, 3.5], [1, 0, 1], "a")
        columns = {"a": [np.array([0.0, 1.5]), np.array([1.0, 0.5])], "b": [np.array([0.0]), np.array([1.0])]}
        writes = {
            "events": lambda dest: write_events_csv(table, dest),
            "overlay": lambda dest: write_overlay_csv(columns, dest, with_model=False),
        }
        check_rewrites(writes[writer], tmp_path)

    def test_failed_write_leaves_the_rows_written_before_it(self, tmp_path):
        # the header is the first write and each row a chunk: the stream refuses the second chunk
        overwrite = events._overwrite

        class Refusing:
            def __init__(self, stream):
                self.stream, self.writes = stream, 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("no space left")
                return self.stream.write(text)

        @contextmanager
        def refusing(path, newline):
            with overwrite(path, newline) as stream:
                yield Refusing(stream)

        dest = tmp_path / "events.csv"
        dest.write_bytes(b"x" * 100)
        table = EventTable([1.5, 2.5, 3.5], [1, 0, 1], "a")
        with patch.object(events, "_CHUNK_LINES", 1), patch.object(events, "_overwrite", refusing):
            with pytest.raises(OSError, match="no space left"):
                write_events_csv(table, dest)
        assert dest.read_bytes() == b"time,event,cohort\r\n1.5,1,a\r\n"

    @pytest.mark.parametrize("label", LABELS)
    def test_event_write_matches_csv_writer(self, label):
        table = EventTable(np.array([0.1 + 0.2, 1e-300, 24.0]), np.array([1, 0, 1]), label)
        expected = csv_text(
            [["time", "event", "cohort"]]
            + [[f"{t:.17g}", d, label] for t, d in zip(table.times.tolist(), table.flags.tolist())]
        )
        buf = io.StringIO()
        write_events_csv(table, buf)
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
        recs = EventTable([1.0], [1], "a,b")
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
        recs = EventTable([10.0, 24.0, 24.0], [1, 0, 0], "c")
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
    """The reader as one loop over csv rows, with the same checks and messages.

    The text holds each byte b that is not UTF-8 as the lone surrogate
    U+DC00 + b, and the first line that holds one fails.
    """
    reader = csv.reader(_undecodable_fails(io.StringIO(text, newline=newline)))
    try:
        return _row_loop(reader)
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


def _undecodable_fails(lines):
    for number, line in enumerate(lines, 1):
        if bad := [c for c in line if "\udc80" <= c <= "\udcff"]:
            raise CsvFormatError(f"line {number}: not UTF-8 text (byte 0x{ord(bad[0]) - 0xDC00:02x})")
        yield line


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
# the csv module reads a NUL as part of a label, the lone surrogate is the byte 0xff
# as errors="surrogateescape" reads it, which fails its line in reader and oracle alike,
# and the long label is over the field limit when it is patched down
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


# the other arguments of test_same_cohorts_or_same_error's examples: one chunk of LF lines
ONE_CHUNK = dict(chunk=64, newline="\n", limit=csv.field_size_limit(), probe=8)


class TestReaderMatchesRowLoop:
    @settings(max_examples=500, deadline=None)
    @given(
        text=event_csv(),
        chunk=st.integers(1, 64),
        newline=st.sampled_from(["\n", "", "\r", "\r\n"]),  # how the stream splits lines
        limit=st.sampled_from([csv.field_size_limit(), SMALL_FIELD_LIMIT]),
        probe=st.integers(1, 8),
    )
    # the first failing line is named, whatever rule it fails: a bad time before an open quote,
    # a bad flag before a bad time, a missing field before a bad time; on one line the time's
    # range is named before the flag; a padded flag reads
    @example(text='time,event,cohort\n1,1,"a"\n-0,1,b\n2,1,"c\n', **ONE_CHUNK)
    @example(text="time,event,cohort\n1,2,a\nx,1,a\n", **ONE_CHUNK)
    @example(text="time,event,cohort\n1,1,a\n2,1\nx,1,a\n", **ONE_CHUNK)
    @example(text="time,event,cohort\n1,1,a\n-0,2,a\n", **ONE_CHUNK)
    @example(text="time,event,cohort\n1.5, 1,a\n2,0,b\n", **ONE_CHUNK)
    def test_same_cohorts_or_same_error(self, text, chunk, newline, limit, probe):
        with field_size_limit(limit):
            try:
                expected = row_loop_oracle(text, newline)
            except CsvFormatError as exc:
                expected = str(exc)
            # a chunk whose first `probe` lines differ is parsed without its dedupe
            with patch.object(events, "_CHUNK_LINES", chunk), patch.object(events, "_TIE_PROBE", probe):
                try:
                    got = [
                        (ds.cohort, ds.records.times.tolist(), ds.records.flags.tolist(), ds.kind)
                        for ds in read_events_csv(io.StringIO(text, newline=newline))
                    ]
                except CsvFormatError as exc:
                    got = str(exc)
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        text=event_csv(),
        pad=st.sampled_from([0, 2000]),  # 2000 rows put the byte past the first chunks
        at=st.floats(0.0, 1.0),
        byte=st.integers(0x80, 0xFF),
        chunk=st.integers(1, 64),
    )
    # the byte goes in front of "b", after the bad time on line 2002
    @example(text="time,event,cohort\nabc,1,a\n1,1,b\n", pad=2000, at=30 / 32, byte=0xFF, chunk=64)
    def test_file_that_is_not_utf8_fails_at_its_first_bad_line(self, tmp_path_factory, text, pad, at, byte, chunk):
        data = text.encode(errors="surrogateescape")  # the label "\udcff" is the byte 0xff
        cut = round(at * len(data))
        data = data[:cut] + bytes([byte]) + data[cut:]
        # the padding rows follow the header line, with the byte if it went there
        header = len("time,event,cohort") + (cut <= len("time,event,cohort"))
        data = data[:header] + b"\n1,1,pad" * pad + data[header:]
        try:
            expected = row_loop_oracle(data.decode(errors="surrogateescape"), newline="")
        except CsvFormatError as exc:
            expected = str(exc)

        def read(path):
            with patch.object(events, "_CHUNK_LINES", chunk):
                try:
                    return [
                        (ds.cohort, ds.records.times.tolist(), ds.records.flags.tolist(), ds.kind)
                        for ds in read_events_csv(path)
                    ]
                except CsvFormatError as exc:
                    return str(exc)

        path = tmp_path_factory.getbasetemp() / "not-utf8.csv"
        path.write_bytes(data)
        assert read(path) == expected
        # a stream decoded as the reader decodes a path holds each byte as the same lone surrogate
        assert read(io.StringIO(data.decode(errors="surrogateescape"), newline="")) == expected
        # a pipe cannot be read twice; the data fit its 64 KiB buffer, so the write does not block
        out, into = os.pipe()
        try:
            with os.fdopen(into, "wb") as writer:
                writer.write(data)
            assert read(f"/dev/fd/{out}") == expected
        finally:
            os.close(out)

    @pytest.mark.parametrize("probe", [1, 2, 3])
    def test_ties_after_the_probed_lines_are_kept(self, probe):
        # probe 1 sees no tie and parses every line; 2 and 3 see one and deduplicate
        text = "time,event,cohort\n1,1,a\n1,1,a\n2,0,b\n1,1,a\n3,1,a\n"
        with patch.object(events, "_TIE_PROBE", probe):
            got = [(ds.cohort, ds.records.times.tolist(), ds.records.flags.tolist()) for ds in parse(text)]
        assert got == [("a", [1.0, 1.0, 1.0, 3.0], [1, 1, 1, 1]), ("b", [2.0], [0])]

    @staticmethod
    def csv_splits():
        """A spy on the csv module's reader, and the list of the last line of each chunk it splits."""
        split = []

        def spy(lines, real=csv.reader, **kwargs):
            lines = list(lines)
            if len(lines) > 1:  # a chunk's lines and their closing quote; the header is a line alone
                split.append(lines[-2])
            return real(lines, **kwargs)

        return patch.object(csv, "reader", spy), split

    def test_plain_chunks_are_parsed_as_columns(self):
        spy, split = self.csv_splits()
        plain = "time,event,cohort\r\n1.5,1,a\r\n2,0,b\r\n1_0,1,a"
        with spy:
            assert [ds.cohort for ds in parse(plain)] == ["a", "b"]
            # a quote and a blank line are split by the csv module, a padded flag as columns
            for odd in ['1.5,1,"a"', "1.5, 1,a", ""]:
                assert len(parse(plain + "\n" + odd + "\n")) == 2
            # a fourth field and a bare CR are split by the csv module, which rejects them;
            # a failing value is split as columns and fails its column check
            for bad in ["1.5,1,a,", "-0,1,a", "1.5,1,a\rb", "1.5,,a\n2,01,a"]:
                with pytest.raises(CsvFormatError, match="line 5"):
                    parse(plain + "\n" + bad + "\n")
            with field_size_limit(SMALL_FIELD_LIMIT), pytest.raises(CsvFormatError, match="line 5: field"):
                parse(plain + "\n1.5,1," + "x" * (SMALL_FIELD_LIMIT + 1))
        # so the padded flag and the failing values do not reach the csv module
        assert split == ['1.5,1,"a"\n', "\n", "1.5,1,a,\n", "1.5,1,a\rb\n", "1.5,1," + "x" * (SMALL_FIELD_LIMIT + 1)]

    def test_file_with_labels_that_are_not_ascii_is_parsed_as_columns(self, tmp_path):
        spy, split = self.csv_splits()
        p = tmp_path / "events.csv"
        p.write_text("time,event,cohort\n1.5,1,２０\n2,0,vintage-２０\n3,1,２０\n", encoding="utf-8")
        with spy:
            got = [(ds.cohort, ds.records.times.tolist()) for ds in read_events_csv(p)]
        assert got == [("２０", [1.5, 3.0]), ("vintage-２０", [2.0])]
        assert split == []
