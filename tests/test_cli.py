"""End-to-end command-line flows through main(argv)."""

import csv
import json

import pytest

from pwsurv.cli import main


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
        code = main(["simulate", "--model", "zt", "--theta", "-1", "--shape", "1",
                     "--scale", "1", "--n", "10", "--horizon", "inf", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_small_shape_times_stay_positive(self, tmp_path):
        # scale * (E/M)^(1/shape) underflows to 0.0 for some subjects at shape 0.01
        out = tmp_path / "x.csv"
        code = main(["simulate", "--model", "zt", "--theta", "1", "--shape", "0.01",
                     "--scale", "1", "--n", "10000", "--horizon", "inf", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as handle:
            times = [float(row[0]) for row in list(csv.reader(handle))[1:]]
        assert len(times) == 10000
        assert min(times) > 0.0

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

    def test_output_file(self, sim_csv, tmp_path):
        dest = tmp_path / "fit.txt"
        assert main(["fit", "--input", str(sim_csv), "--out", str(dest)]) == 0
        assert "log-likelihood" in dest.read_text()

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

    def test_stdout_default(self, sim_csv, capsys):
        assert main(["km", "--input", str(sim_csv)]) == 0
        assert capsys.readouterr().out.startswith("cohort,t,km")


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


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_negative_max_iter_is_rejected_before_the_input_is_read(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main([command, "--input", str(missing), "--max-iter", "-1"]) == 1
        assert capsys.readouterr().err == "error: --max-iter must be nonnegative\n"

    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["simulate", "--model", "zt"]) == 1
        assert "error:" in capsys.readouterr().err
