"""End-to-end command-line flows through main(argv) and through fresh processes."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwsurv
import pwsurv.cli as cli
from pwsurv import (
    CsvFormatError, EventTable, ModelKind, ModelSpec, SingularInformationError, kaplan_meier, model_survival
)
from pwsurv.cli import main

from test_report import LABELS, check_rewrites, csv_text

SRC = Path(pwsurv.__file__).resolve().parent.parent


def python(*args, cwd=None, stdin=None):
    """Run a fresh interpreter with this checkout's pwsurv on its path, feeding it the bytes stdin.

    A RuntimeWarning is an error in the child, as pytest's warning filter makes it one here.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, input=stdin, capture_output=True, check=False)


@pytest.fixture()
def sim_csv(tmp_path):
    """A small fully observed cohort written by the simulate subcommand."""
    out = tmp_path / "zt.csv"
    code = main([
        "simulate", "--model", "zt", "--theta", "2.0", "--shape", "1.5",
        "--scale", "3.0", "--n", "400", "--horizon", "inf", "--seed", "1",
        "--cohort", "2006", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture()
def ptm_csv(tmp_path):
    out = tmp_path / "ptm.csv"
    code = main([
        "simulate", "--model", "ptm", "--theta", "0.8", "--shape", "1.2",
        "--scale", "10.0", "--n", "400", "--horizon", "24", "--seed", "2",
        "--cohort", "2011", "--out", str(out),
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_expected_schema(self, sim_csv):
        with open(sim_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time", "event", "cohort"]
        assert len(rows) == 401
        assert all(r[1] == "1" and r[2] == "2006" for r in rows[1:])

    def test_same_seed_same_file(self, tmp_path):
        args = ["simulate", "--model", "zt", "--theta", "1.0", "--shape", "1.0",
                "--scale", "1.0", "--n", "20", "--horizon", "inf", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_invalid_parameters_exit_1(self, tmp_path, capsys):
        # a negative theta, and one above the largest mean numpy's Poisson sampler takes
        for model, theta, horizon in [("zt", "-1", "inf"), ("zt", "1e19", "inf"), ("ptm", "1e19", "24")]:
            code = main(["simulate", "--model", model, "--theta", theta, "--shape", "1",
                         "--scale", "1", "--n", "10", "--horizon", horizon, "--seed", "0",
                         "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: theta")
            assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        code = main(["simulate", "--model", "zt", "--theta", "1", "--shape", "1",
                     "--scale", "1", "--n", "10", "--horizon", "inf", "--seed", "-1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("model, shape, horizon", [("zt", "0.01", "inf"), ("zt", "0.001", "inf"), ("ptm", "0.001", "24")])
    def test_small_shape_times_stay_positive(self, tmp_path, capsys, model, shape, horizon):
        # scale * (E/M)^(1/shape) underflows to 0.0 for some subjects at shape 0.01,
        # and at shape 0.001 also overflows to inf for others
        out = tmp_path / "x.csv"
        code = main(["simulate", "--model", model, "--theta", "1", "--shape", shape,
                     "--scale", "1", "--n", "10000", "--horizon", horizon, "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            times = np.array([float(row[0]) for row in list(csv.reader(handle))[1:]])
        assert len(times) == 10000
        assert times.min() > 0.0 and np.all(np.isfinite(times))
        if (model, shape) == ("zt", "0.001"):
            assert times.max() == np.finfo(float).max
        if shape == "0.001":
            # pwsurv fits the file it wrote: converged or not, from a finite start without a NaN gradient
            assert main(["fit", "--input", str(out)]) in (0, 2)
            text = capsys.readouterr().out
            assert "not finite at the starting point" not in text and "gradient norm nan" not in text

    def test_ptm_infinite_horizon_exit_1(self, tmp_path, capsys):
        code = main(["simulate", "--model", "ptm", "--theta", "1", "--shape", "1",
                     "--scale", "1", "--n", "10", "--horizon", "inf", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "horizon" in capsys.readouterr().err


class TestFit:
    def test_text_report(self, sim_csv, capsys):
        assert main(["fit", "--input", str(sim_csv), "--model", "zt"]) == 0
        out = capsys.readouterr().out
        assert "cohort 2006" in out
        for token in ("theta", "shape", "scale", "p-value", "log-likelihood"):
            assert token in out

    def test_json_report(self, ptm_csv, capsys):
        assert main(["fit", "--input", str(ptm_csv), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["fits"][0]
        assert entry["cohort"] == "2011"
        assert entry["model"] == "ptm"
        assert entry["converged"] is True
        assert {"theta", "shape", "scale"} == set(entry["estimates"])

    def test_json_is_strict_at_infinite_horizon(self, ptm_csv, capsys):
        assert main(["fit", "--input", str(ptm_csv), "--format", "json", "--horizon", "inf"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        entry = json.loads(capsys.readouterr().out, parse_constant=reject)["fits"][0]
        assert entry["horizon"] is None
        assert entry["elgd_at_horizon"] == pytest.approx(entry["cure_fraction"])

    def test_output_file(self, sim_csv, tmp_path):
        dest = tmp_path / "fit.txt"
        assert main(["fit", "--input", str(sim_csv), "--out", str(dest)]) == 0
        assert "log-likelihood" in dest.read_text()

    def test_output_file_is_rewritten_in_place(self, sim_csv, tmp_path):
        def write(dest):
            assert main(["fit", "--input", str(sim_csv), "--out", os.fspath(dest)]) == 0

        check_rewrites(write, tmp_path)

    def test_nonconvergence_exit_2(self, sim_csv, capsys):
        code = main(["fit", "--input", str(sim_csv), "--max-iter", "1"])
        assert code == 2
        assert "NOT CONVERGED" in capsys.readouterr().out

    def test_missing_file_exit_1(self, capsys):
        assert main(["fit", "--input", "/nonexistent/nope.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,event,cohort\n1.0,7,a\n")
        assert main(["fit", "--input", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_oversized_field_exit_1(self, tmp_path, capsys):
        # beyond the csv module's field size limit of 131072 characters
        bad = tmp_path / "bad.csv"
        bad.write_text("time,event,cohort\n1.0,1," + "x" * 200_000 + "\n")
        assert main(["fit", "--input", str(bad)]) == 1
        assert "error: line 2: field larger than field limit" in capsys.readouterr().err

    def test_unknown_flag_value_exit_1(self, sim_csv, capsys):
        assert main(["fit", "--input", str(sim_csv), "--model", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_model_ptm_replaces_the_kind_of_every_cohort(self, sim_csv, capsys):
        # two all-event cohorts, which auto fits as zt
        text = sim_csv.read_text()
        sim_csv.write_text(text + text.split("\n", 1)[1].replace(",2006", ",2007"))
        assert main(["fit", "--input", str(sim_csv), "--model", "ptm"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ptm]") == 2 and "cohort 2006 [ptm]" in out and "cohort 2007 [ptm]" in out

    def test_model_zt_fails_each_censored_cohort(self, ptm_csv, capsys):
        text = ptm_csv.read_text()
        ptm_csv.write_text(text + text.split("\n", 1)[1].replace(",2011", ",2012"))
        assert main(["fit", "--input", str(ptm_csv), "--model", "zt"]) == 1
        failed = "  FAILED: the zero-truncated model applies to fully observed data; censored records are not allowed"
        assert capsys.readouterr().out == f"cohort 2011 [zt]\n{failed}\n\ncohort 2012 [zt]\n{failed}\n"

    def test_rank_deficient_start_plot_prints_no_warning(self, tmp_path):
        # four distinct times with one log: without the rank from polyfit, a process prints numpy's RankWarning
        times = ["1e15", "1000000000000000.125", "1000000000000000.25", "1000000000000000.375"]
        (tmp_path / "rank.csv").write_text("time,event,cohort\n" + "".join(f"{t},1,a\n" for t in times + times[:3]))
        child = python("-m", "pwsurv.cli", "fit", "--input", "rank.csv", cwd=tmp_path)
        assert (child.returncode, child.stderr) == (2, b"")
        assert b"NOT CONVERGED" in child.stdout


class TestKm:
    def test_plain_curve(self, sim_csv, tmp_path):
        dest = tmp_path / "km.csv"
        assert main(["km", "--input", str(sim_csv), "--out", str(dest)]) == 0
        with open(dest, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["cohort", "t", "km"]
        assert rows[1][0] == "2006"
        assert float(rows[1][1]) == 0.0 and float(rows[1][2]) == 1.0
        surv = [float(r[2]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(surv, surv[1:]))

    def test_overlay_columns(self, ptm_csv, tmp_path):
        dest = tmp_path / "overlay.csv"
        code = main(["km", "--input", str(ptm_csv), "--out", str(dest),
                     "--overlay-model", "ptm", "--overlay-theta", "0.8",
                     "--overlay-shape", "1.2", "--overlay-scale", "10.0"])
        assert code == 0
        with open(dest, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["cohort", "t", "km", "model"]
        assert float(rows[1][3]) == 1.0
        # km and model columns should roughly agree on simulated data
        diffs = [abs(float(r[2]) - float(r[3])) for r in rows[1:]]
        assert max(diffs) < 0.1

    def test_incomplete_overlay_exit_1(self, ptm_csv, capsys):
        code = main(["km", "--input", str(ptm_csv), "--overlay-theta", "0.8"])
        assert code == 1
        assert "overlay" in capsys.readouterr().err

    def test_input_without_records_writes_the_header(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("time,event,cohort\n")
        assert main(["km", "--input", str(empty)]) == 0
        assert capsys.readouterr().out.splitlines() == ["cohort,t,km"]

    def test_stdout_default(self, sim_csv, capsys):
        assert main(["km", "--input", str(sim_csv)]) == 0
        assert capsys.readouterr().out.startswith("cohort,t,km")

    @pytest.mark.parametrize("overlay", [None, "zt", "ptm"])
    @pytest.mark.parametrize("tied", [True, False], ids=["monthly", "continuous"])
    def test_matches_csv_writer_reference(self, tied, overlay, tmp_path):
        # each cohort's curve at 0 and at its steps, as csv.writer writes it from kaplan_meier
        rng = np.random.default_rng(12)
        data = {}
        for label in LABELS:
            times = rng.integers(1, 37, 50).astype(float) if tied else rng.exponential(12.0, 50)
            data[label] = list(zip(times.tolist(), rng.integers(0, 2, 50).tolist()))
        rows = [[f"{t:.17g}", d, label] for label in LABELS for t, d in data[label]]
        with open(tmp_path / "in.csv", "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text([["time", "event", "cohort"]] + rows))
        argv = ["km", "--input", str(tmp_path / "in.csv"), "--out", str(tmp_path / "km.csv")]
        expected = [["cohort", "t", "km"] + (["model"] if overlay else [])]
        if overlay:
            argv += ["--overlay-model", overlay, "--overlay-theta", "0.8",
                     "--overlay-shape", "1.2", "--overlay-scale", "10"]
            model = (ModelSpec.zero_truncated if overlay == "zt" else ModelSpec.promotion_time)(0.8, 1.2, 10.0)
        for label in sorted(LABELS):
            curve = kaplan_meier(EventTable(*zip(*data[label]), label))
            grid = np.concatenate(([0.0], curve.times))
            columns = [grid, curve.survival_at(grid)] + ([model_survival(grid, model)] if overlay else [])
            expected += [[label] + [f"{v:.17g}" for v in row] for row in zip(*(c.tolist() for c in columns))]
        assert main(argv) == 0
        with open(tmp_path / "km.csv", encoding="utf-8", newline="") as handle:
            assert handle.read() == csv_text(expected)


class TestReport:
    def test_combined_output(self, tmp_path, capsys):
        data = tmp_path / "both.csv"
        main(["simulate", "--model", "zt", "--theta", "2.0", "--shape", "1.5",
              "--scale", "3.0", "--n", "300", "--horizon", "inf", "--seed", "4",
              "--cohort", "2006", "--out", str(data)])
        extra = tmp_path / "ptm.csv"
        main(["simulate", "--model", "ptm", "--theta", "0.8", "--shape", "1.2",
              "--scale", "10.0", "--n", "300", "--horizon", "24", "--seed", "5",
              "--cohort", "2011", "--out", str(extra)])
        data.write_text(data.read_text() + "".join(extra.read_text().splitlines(keepends=True)[1:]))

        assert main(["report", "--input", str(data), "--horizon", "24"]) == 0
        out = capsys.readouterr().out
        assert "cohort 2006" in out and "cohort 2011" in out
        assert "theta-default" in out and "theta-recovery" in out
        lines = out.splitlines()
        summary_start = next(i for i, l in enumerate(lines) if l.startswith("cohort "))
        table = lines[summary_start:]
        row_2011 = next(l for l in table if l.startswith("2011"))
        # observed and model unrecovered percentages sit side by side
        cells = row_2011.split()
        assert abs(float(cells[2]) - float(cells[3])) < 5.0

    def test_nonconvergence_exit_2(self, sim_csv):
        assert main(["report", "--input", str(sim_csv), "--max-iter", "1"]) == 2


class TestCohortFailure:
    @pytest.fixture()
    def mixed_csv(self, tmp_path):
        # a 300-record recovery cohort and a 20-record cohort with no events
        out = tmp_path / "mixed.csv"
        code = main([
            "simulate", "--model", "ptm", "--theta", "0.8", "--shape", "1.2",
            "--scale", "10.0", "--n", "300", "--horizon", "24", "--seed", "3",
            "--cohort", "good", "--out", str(out),
        ])
        assert code == 0
        out.write_text(out.read_text() + "24,0,bad\n" * 20)
        return out

    def test_fit_text_keeps_good_cohort(self, mixed_csv, capsys):
        assert main(["fit", "--input", str(mixed_csv)]) == 1
        out = capsys.readouterr().out
        assert "cohort good [ptm]" in out and "log-likelihood" in out
        assert "cohort bad [ptm]\n  FAILED: no events in the dataset" in out

    def test_fit_json_has_error_entry(self, mixed_csv, capsys):
        assert main(["fit", "--input", str(mixed_csv), "--format", "json"]) == 1
        fits = {f["cohort"]: f for f in json.loads(capsys.readouterr().out)["fits"]}
        assert fits["good"]["converged"] is True
        assert set(fits["bad"]) == {"cohort", "model", "error"}
        assert fits["bad"]["model"] == "ptm"
        assert "no events" in fits["bad"]["error"]

    def test_report_keeps_good_cohort(self, mixed_csv, capsys):
        assert main(["report", "--input", str(mixed_csv)]) == 1
        out = capsys.readouterr().out
        assert "cohort bad [ptm]\n  FAILED:" in out
        assert any(line.startswith("good ") for line in out.splitlines())

    SINGULAR = "observed information is not positive definite; parameter 'shape' is not identified"

    @pytest.fixture()
    def singular_csv(self, mixed_csv, monkeypatch):
        # the good cohort, and a copy of it labelled "singular" whose fit raises
        rows = [line for line in mixed_csv.read_text().splitlines(keepends=True) if line.endswith(",good\n")]
        mixed_csv.write_text("time,event,cohort\n" + "".join(rows) + "".join(rows).replace(",good", ",singular"))
        real = cli.fit_mle

        def fit(records, kind, **kwargs):
            if records.cohort == "singular":
                raise SingularInformationError(self.SINGULAR)
            return real(records, kind, **kwargs)

        monkeypatch.setattr(cli, "fit_mle", fit)
        return mixed_csv

    def test_singular_information_fails_only_its_cohort(self, singular_csv, capsys):
        assert main(["fit", "--input", str(singular_csv)]) == 1
        out = capsys.readouterr().out
        assert "cohort good [ptm]" in out and "log-likelihood" in out
        assert f"cohort singular [ptm]\n  FAILED: {self.SINGULAR}" in out

        assert main(["fit", "--input", str(singular_csv), "--format", "json"]) == 1
        fits = {f["cohort"]: f for f in json.loads(capsys.readouterr().out)["fits"]}
        assert fits["good"]["converged"] is True
        assert fits["singular"] == {"cohort": "singular", "model": "ptm", "error": self.SINGULAR}

        assert main(["report", "--input", str(singular_csv)]) == 1
        out = capsys.readouterr().out
        assert f"cohort singular [ptm]\n  FAILED: {self.SINGULAR}" in out
        lines = out.splitlines()
        assert any(line.startswith("good ") for line in lines)
        assert not any(line.startswith("singular ") for line in lines)

    def test_unexpected_fit_error_propagates(self, mixed_csv, monkeypatch):
        # a defect in the fit must not pass as a failed cohort
        def broken(*args, **kwargs):
            raise RuntimeError("broken fit")

        monkeypatch.setattr(cli, "fit_mle", broken)
        for command in (["fit"], ["fit", "--format", "json"], ["report"]):
            with pytest.raises(RuntimeError, match="broken fit"):
                main([*command, "--input", str(mixed_csv)])

    @pytest.mark.parametrize(
        "rows, kind",
        [("1,1,a\n" * 3, "zt"), ("1,1,a\n1,1,a\n24,0,a\n24,0,a\n", "ptm")],
    )
    def test_one_distinct_event_time_fails_fast(self, rows, kind, tmp_path, capsys):
        single = tmp_path / "single.csv"
        single.write_text("time,event,cohort\n" + rows)
        failed = f"cohort a [{kind}]\n  FAILED: needs at least two distinct event times"
        assert main(["fit", "--input", str(single)]) == 1
        assert capsys.readouterr().out.startswith(failed)
        assert main(["report", "--input", str(single)]) == 1
        assert capsys.readouterr().out.startswith(failed)
        assert main(["fit", "--input", str(single), "--format", "json"]) == 1
        (entry,) = json.loads(capsys.readouterr().out)["fits"]
        assert entry["model"] == kind
        assert entry["error"].startswith("needs at least two distinct event times")


class TestRunawayCohorts:
    # recovery-2010 cohorts, n = 2000, whose likelihood rises toward the no-cure limit

    @staticmethod
    def simulate(path, seed):
        code = main([
            "simulate", "--model", "ptm", "--theta", "3.0614", "--shape", "1.0647",
            "--scale", "81.3458", "--n", "2000", "--horizon", "24", "--seed", str(seed),
            "--cohort", f"r{seed}", "--out", str(path),
        ])
        assert code == 0

    def test_seed_1077_prints_the_no_cure_loglik(self, tmp_path, capsys):
        # theta-hat grows without bound toward the no-cure limit; a value that cancels there prints 0.0000
        self.simulate(tmp_path / "r.csv", 1077)
        assert main(["fit", "--input", str(tmp_path / "r.csv")]) == 2
        out = capsys.readouterr().out
        assert "NOT CONVERGED" in out
        (line,) = [line for line in out.splitlines() if "log-likelihood" in line]
        assert line == "  log-likelihood -4646.3036"

    def test_seed_1039_fails_alone_naming_theta(self, tmp_path, capsys):
        self.simulate(tmp_path / "a.csv", 1039)
        self.simulate(tmp_path / "b.csv", 1000)
        both = tmp_path / "both.csv"
        both.write_text((tmp_path / "a.csv").read_text() + (tmp_path / "b.csv").read_text().split("\n", 1)[1])
        failed = "cohort r1039 [ptm]\n  FAILED: observed information is not positive definite; parameter 'theta' is not identified"
        assert main(["fit", "--input", str(both)]) == 1
        out = capsys.readouterr().out
        assert failed in out
        assert "cohort r1000 [ptm]" in out and "log-likelihood" in out and "NOT CONVERGED" not in out
        assert main(["report", "--input", str(both)]) == 1
        out = capsys.readouterr().out
        assert failed in out
        assert any(line.startswith("r1000 ") for line in out.splitlines())


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_negative_max_iter_is_rejected_before_the_input_is_read(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main([command, "--input", str(missing), "--max-iter", "-1"]) == 1
        assert capsys.readouterr().err == "error: --max-iter must be nonnegative\n"

    @pytest.mark.parametrize("command", ["fit", "report"])
    @pytest.mark.parametrize("horizon", ["-5", "0", "nan"])
    def test_bad_horizon_is_rejected_before_the_input_is_read(self, command, horizon, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main([command, "--input", str(missing), "--horizon", horizon]) == 1
        assert capsys.readouterr().err == "error: --horizon must be positive\n"

    @pytest.mark.parametrize("data", ["sim_csv", "ptm_csv"])
    def test_fit_rejects_negative_horizon_before_fitting(self, data, request, capsys):
        # rejected before any cohort is fit, whether or not its kind reads the horizon
        assert main(["fit", "--input", str(request.getfixturevalue(data)), "--horizon", "-5"]) == 1
        assert capsys.readouterr() == ("", "error: --horizon must be positive\n")

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_infinite_horizon_is_allowed(self, command, ptm_csv):
        assert main([command, "--input", str(ptm_csv), "--horizon", "inf", "--out", str(ptm_csv) + ".out"]) == 0

    @pytest.mark.parametrize("command", [["fit"], ["fit", "--format", "json"], ["report"]])
    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_input_without_records_exit_1(self, command, body, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("time,event,cohort\n" + body)
        assert main([*command, "--input", str(empty)]) == 1
        assert capsys.readouterr() == ("", f"error: {empty}: no records to fit\n")

    # usage errors leave through main's ValueError handler: exit 1 and one line on stderr
    @staticmethod
    def assert_one_usage_line(err):
        assert err.startswith("error: pwsurv") and err.endswith("\n") and err.count("\n") == 1

    def test_unknown_subcommand_exit_1(self, capsys):
        # ...and so does an unknown flag of a known subcommand
        for argv in (["frobnicate"], ["fit", "--input", "x.csv", "--bogus"]):
            assert main(argv) == 1
            self.assert_one_usage_line(capsys.readouterr().err)

    def test_missing_required_flag_exit_1(self, capsys):
        for argv in (["simulate", "--model", "zt"], ["fit"]):
            assert main(argv) == 1
            self.assert_one_usage_line(capsys.readouterr().err)

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        # main reports bad input and options; a defect must not pass as exit code 1
        def broken(*args, **kwargs):
            raise RuntimeError("broken simulator")

        monkeypatch.setattr(cli, "simulate_cohort", broken)
        with pytest.raises(RuntimeError, match="broken simulator"):
            main(["simulate", "--model", "zt", "--theta", "1", "--shape", "1", "--scale", "1",
                  "--n", "10", "--horizon", "inf", "--out", str(tmp_path / "x.csv")])


class TestKindChoices:
    # the CLI builds a kind as ModelKind(value), so every choice but auto must be a value
    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--model"), ("km", "--overlay-model"), ("fit", "--model"), ("report", "--model")],
    )
    def test_choices_are_the_kind_values(self, command, flag):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices[command]._actions if flag in a.option_strings)
        assert sorted(set(action.choices) - {"auto"}) == sorted(kind.value for kind in ModelKind)


class TestChildProcess:
    """`python -m pwsurv.cli` writes byte for byte what main(argv) writes, with its exit code."""

    def test_simulate_file(self, tmp_path):
        args = ["simulate", "--model", "ptm", "--theta", "0.8", "--shape", "1.2", "--scale", "10.0",
                "--n", "400", "--horizon", "24", "--seed", "2", "--cohort", "2011", "--out"]
        child = python("-m", "pwsurv.cli", *args, "child.csv", cwd=tmp_path)
        assert (child.returncode, child.stdout, child.stderr) == (0, b"", b"")
        assert main(args + [str(tmp_path / "main.csv")]) == 0
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    @pytest.mark.parametrize("args", [["fit", "--format", "json"], ["km"], ["report", "--horizon", "12"]])
    def test_stdout(self, args, ptm_csv, capsys):
        args = args + ["--input", str(ptm_csv)]
        child = python("-m", "pwsurv.cli", *args)
        assert main(args) == child.returncode == 0
        assert capsys.readouterr().out.encode() == child.stdout

    def test_km_file(self, sim_csv, tmp_path):
        args = ["km", "--input", str(sim_csv), "--overlay-model", "zt", "--overlay-theta", "2",
                "--overlay-shape", "1.5", "--overlay-scale", "3", "--out"]
        child = python("-m", "pwsurv.cli", *args, "child.csv", cwd=tmp_path)
        assert main(args + [str(tmp_path / "main.csv")]) == child.returncode == 0
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    def test_malformed_csv_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,event,cohort\n1.0,7,a\n")
        child = python("-m", "pwsurv.cli", "fit", "--input", str(bad))
        assert main(["fit", "--input", str(bad)]) == child.returncode == 1
        assert capsys.readouterr().err.encode() == child.stderr

    def test_piped_input_that_is_not_utf8_names_its_first_bad_line(self):
        # bad bytes on lines 3 and 20004; a pipe cannot be read a second time
        lines = [b"time,event,cohort"] + [b"1.5,1,a"] * 20003
        lines[2] = lines[20003] = b"2.5,1,\xffb"
        child = python("-m", "pwsurv.cli", "km", "--input", "/dev/stdin", stdin=b"\n".join(lines) + b"\n")
        assert (child.returncode, child.stdout) == (1, b"")
        assert child.stderr == b"error: line 3: not UTF-8 text (byte 0xff)\n"

    def test_byte_that_is_not_utf8_is_named_alike_from_every_source(self, tmp_path):
        data = b"time,event,cohort\n1.5,1,a\n2.5,1,\xffb\n"
        path = tmp_path / "not-utf8.csv"
        path.write_bytes(data)
        message = "line 3: not UTF-8 text (byte 0xff)"
        # a path, and a stream that holds the byte as errors="surrogateescape" reads it
        for source in [path, io.StringIO(data.decode(errors="surrogateescape"), newline="")]:
            with pytest.raises(CsvFormatError) as caught:
                pwsurv.read_events_csv(source)
            assert str(caught.value) == message
        # /dev/stdin is a path; sys.stdin in UTF-8 mode reads with errors="surrogateescape"
        read = "import sys, pwsurv\ntry: pwsurv.read_events_csv(sys.argv[1] if sys.argv[1:] else sys.stdin)\n"
        read += "except pwsurv.CsvFormatError as exc: print(exc)"
        for args in [["-c", read, "/dev/stdin"], ["-X", "utf8", "-c", read]]:
            child = python(*args, stdin=data)
            assert (child.returncode, child.stdout, child.stderr) == (0, message.encode() + b"\n", b"")
        # a stream decoded strictly by its caller raises the caller's error
        with pytest.raises(UnicodeDecodeError):
            pwsurv.read_events_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))

    def test_start_values_that_overflow_print_no_warning(self, tmp_path, capsys):
        # the zt and ptm-mean cohorts' mean times overflow, and so does the ptm cohort's profile
        # sum at its start; a RuntimeWarning would be an error in the child, as it is here
        rows = (
            "1e308,1,zt\n1e308,1,zt\n1.7e308,1,zt\n1e-300,1,ptm\n2e-300,1,ptm\n3e-300,0,ptm\n1,0,ptm\n"
            "1e308,0,ptm-mean\n1.2e308,1,ptm-mean\n1.7e308,1,ptm-mean\n"
        )
        path = tmp_path / "overflow.csv"
        path.write_text((Path(__file__).parent / "data" / "rendering" / "events.csv").read_text() + rows)
        args = ["fit", "--input", str(path)]
        child = python("-m", "pwsurv.cli", *args)
        assert main(args) == child.returncode == 1
        assert (capsys.readouterr().out.encode(), child.stderr) == (child.stdout, b"")
        blocks = child.stdout.decode().split("\n\n")
        assert [block.split("\n")[0] for block in blocks] == [
            "cohort 2008 [zt]", "cohort 2011 [ptm]", "cohort late [ptm]", "cohort zt [zt]", "cohort ptm [ptm]",
            "cohort ptm-mean [ptm]",
        ]
        failed = "  FAILED: log-likelihood is not finite at the starting point"
        assert blocks[3] == f"cohort zt [zt]\n{failed}"
        assert blocks[5] == f"cohort ptm-mean [ptm]\n{failed}\n"

    def test_nonconvergence_exit_2(self, sim_csv, capsys):
        args = ["fit", "--input", str(sim_csv), "--max-iter", "1"]
        child = python("-m", "pwsurv.cli", *args)
        assert main(args) == child.returncode == 2
        assert capsys.readouterr().out.encode() == child.stdout


def loaded_modules(code, cwd=None):
    """The pwsurv submodules, and numpy if loaded, in sys.modules of a fresh interpreter after `code`."""
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('pwsurv.') or m == 'numpy'))"
    child = python("-c", f"{code}\n{report}", cwd=cwd)
    assert child.returncode == 0, child.stderr.decode()
    return set(child.stdout.decode().split())


class TestModulesLoaded:
    """Each process imports only the modules its subcommand runs."""

    def test_package_import_loads_nothing(self):
        assert loaded_modules("import pwsurv") == set()

    def test_simulate(self, tmp_path):
        argv = ["simulate", "--model", "zt", "--theta", "1", "--shape", "1", "--scale", "1",
                "--n", "10", "--horizon", "inf", "--out", "x.csv"]
        loaded = loaded_modules(f"from pwsurv.cli import main\nassert main({argv!r}) == 0", cwd=tmp_path)
        assert not loaded & {"pwsurv.inference", "pwsurv.nonparametric", "pwsurv.report"}

    def test_km(self, sim_csv, tmp_path):
        argv = ["km", "--input", str(sim_csv), "--out", "km.csv"]
        loaded = loaded_modules(f"from pwsurv.cli import main\nassert main({argv!r}) == 0", cwd=tmp_path)
        assert "pwsurv.nonparametric" in loaded
        assert not loaded & {"pwsurv.inference", "pwsurv.report"}
