"""Benchmark the pwsurv CLI end to end, or per layer with --trace 1.

    python3 bench/run.py --workload default-continuous --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

# Fresh-process start-up probes per run; more are added when a run has fewer rounds.
MIN_SETUP_PROBES = 5


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run one child process; returns (wall seconds, exit code, peak RSS in MB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _digest(workload: workloads.Workload) -> str:
    h = hashlib.sha256()
    for name, path in sorted(workload.files.items()):
        if name != "input" and path.exists():  # a failed command may write nothing
            h.update(path.read_bytes())
    return h.hexdigest()


def run_untraced(workload: workloads.Workload, seconds: float, workdir: Path) -> dict:
    """Each round: one start-up probe, then the workload's CLI commands in order."""
    env = _child_env()
    log = workdir / "stderr.log"
    probe = ["-c", "import pwsurv.cli"]
    _spawn(probe, env, log)  # warm the bytecode cache; users do not pay that on every call
    setup, run_s, rss = [], [], []
    attempted = failed = 0
    digests = set()
    start = time.perf_counter()
    while True:
        setup.append(_spawn(probe, env, log)[0])
        round_wall, round_rss = 0.0, 0.0
        for cmd in workload.commands:
            wall, code, peak = _spawn(["-m", "pwsurv.cli", *cmd], env, log)
            attempted += 1
            failed += code != 0
            round_wall += wall
            round_rss = max(round_rss, peak)
        run_s.append(round_wall)
        rss.append(round_rss)
        digests.add(_digest(workload))
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(_spawn(probe, env, log)[0])
    print(f"rounds: run_s {_fmt(run_s)}; setup_s {_fmt(setup)}", file=sys.stderr)
    run_median = statistics.median(run_s)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_median, "s"),
        "records_per_s": (workload.records / run_median, "records/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return _result(workload, attempted, failed, digests, metrics)


def run_traced(workload: workloads.Workload, seconds: float, workdir: Path) -> dict:
    """Alternate untraced and traced in-process replays of the workload's commands."""
    sys.path.insert(0, str(SRC))
    import tracing

    tracer = tracing.Tracer()
    replay_plain, replay_traced, layer_rounds = [], [], []
    attempted = failed = 0
    digests = set()
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                tracer.begin_round()
            wall, codes = tracing.replay(workload.commands, tracer if traced else None)
            attempted += len(codes)
            failed += sum(code != 0 for code in codes)
            digests.add(_digest(workload))
            if traced:
                replay_traced.append(wall)
                layer_rounds.append(tracer.round_metrics())
            else:
                replay_plain.append(wall)
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(workdir / "spans.json")
    print(f"rounds: replay_s {_fmt(replay_plain)}; traced {_fmt(replay_traced)}", file=sys.stderr)
    metrics, errors = tracing.summarize(layer_rounds)
    traced_median = statistics.median(replay_traced)
    metrics["trace.replay_s"] = (traced_median, "s")
    metrics["trace.overhead_s"] = (traced_median - statistics.median(replay_plain), "s")
    return _result(workload, attempted, failed, digests, metrics, errors)


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def _result(workload, attempted, failed, digests, metrics, errors=()) -> dict:
    errors = list(errors) + ([] if failed else checks.check(workload))
    if len(digests) != 1:
        errors.append("outputs differ between rounds of the same run")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pwsurv" / "cli.py").is_file():
        print(f"error: {SRC / 'pwsurv'} not found; run from a pwsurv checkout", file=sys.stderr)
        return 2
    workdir = HERE / "out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)  # no output of an earlier run can pass a check
    workload = workloads.build(args.workload, args.seed, workdir)
    runner = run_traced if args.trace else run_untraced
    print(json.dumps(runner(workload, args.seconds, workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
