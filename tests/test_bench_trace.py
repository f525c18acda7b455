"""The names the benchmark's trace mode (bench/tracing.py) takes from pwsurv still work.

The traced replay swaps the CLI's layer functions for span-recording wrappers
and calls `pwsurv.events.to_arrays`, the public log-likelihoods and
`wald_summary` itself. This replays every subcommand once with a Tracer.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_traced_replay_records_every_layer(tmp_path):
    zt, ptm = str(tmp_path / "zt.csv"), str(tmp_path / "ptm.csv")
    commands = [
        ["simulate", "--model", "zt", "--theta", "2", "--shape", "1.5", "--scale", "3",
         "--n", "2000", "--horizon", "inf", "--seed", "1", "--cohort", "d", "--out", zt],
        ["simulate", "--model", "ptm", "--theta", "0.8", "--shape", "1.2", "--scale", "10",
         "--n", "2000", "--horizon", "24", "--seed", "2", "--cohort", "r", "--out", ptm],
        ["fit", "--input", zt, "--format", "json", "--out", str(tmp_path / "fit.json")],
        ["report", "--input", ptm, "--out", str(tmp_path / "report.txt")],
        ["km", "--input", ptm, "--out", str(tmp_path / "km.csv")],
    ]
    tracer = tracing.Tracer()
    tracer.begin_round()
    _, codes = tracing.replay(commands, tracer)
    assert codes == [0] * len(commands)
    names = {span["name"] for span in tracer.spans}
    assert set(tracing.TIME_METRICS) <= names
    _, counts = tracer.round_metrics()
    assert counts["report.records_read"] == 3 * 2000
    assert counts["simulation.records_simulated"] == 2 * 2000
    assert counts["inference.newton_iterations"] > 0
