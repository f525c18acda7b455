"""In-process replay of pwsurv CLI commands, with spans around each layer call.

The replay runs `pwsurv.cli.main` on the workload's argument lists. For a
traced replay the layer functions the CLI module calls are swapped, for the
length of the replay, for wrappers that record a span (name, start, end,
parent) and the layer's counts around each call. Spans are kept in memory
and written out once, at the end of the run.

Three calls exist only in the traced replay, each in a span of its own: one
`to_arrays` per parsed cohort, and after each fit one public log-likelihood
call at the fitted model and one `wald_summary`.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import pwsurv.cli as cli
from pwsurv.events import to_arrays
from pwsurv.inference import loglik_ptm, loglik_zt, wald_summary
from pwsurv.models import ModelKind

# Span name -> the per-layer time metric its duration adds to.
TIME_METRICS = {
    "report.read_events_csv": "report.read_events_csv_s",
    "report.write_events_csv": "report.write_events_csv_s",
    "report.write_overlay_csv": "report.write_overlay_csv_s",
    "report.build_summary_table": "report.summary_s",
    "report.format_summary_table": "report.summary_s",
    "report.format_fit_report": "report.summary_s",
    "report.fit_report_dict": "report.fit_json_s",
    "report.dumps_fit_reports": "report.fit_json_s",
    "report.observed_unrecovered": "report.observed_unrecovered_s",
    "events.to_arrays": "events.to_arrays_s",
    "nonparametric.kaplan_meier": "nonparametric.kaplan_meier_s",
    "inference.fit_mle": "inference.fit_mle_s",
    "inference.loglik": "inference.loglik_s",
    "inference.wald_summary": "inference.wald_summary_s",
    "simulation.simulate_cohort": "simulation.simulate_cohort_s",
}
COUNT_METRICS = {
    "report.records_read": "count",
    "report.bytes_written": "bytes",
    "nonparametric.distinct_event_times": "count",
    "inference.newton_iterations": "count",
    "simulation.records_simulated": "count",
}


class Tracer:
    """Spans and counts of traced replays, one round per replay."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._round = -1
        self._round_start = 0
        self.counts: dict[str, int] = {}

    def begin_round(self) -> None:
        self._round += 1
        self._round_start = len(self.spans)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "round": self._round,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def round_metrics(self) -> tuple[dict, dict]:
        """(time per layer metric, counts) of the current round."""
        times = dict.fromkeys(TIME_METRICS.values(), 0.0)
        for s in self.spans[self._round_start:]:
            metric = TIME_METRICS.get(s["name"])
            if metric is not None:
                times[metric] += s["end"] - s["start"]
        return times, dict(self.counts)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _patches(tracer: Tracer) -> dict:
    """Span-recording stand-ins for the layer functions `pwsurv.cli` calls."""

    def timed(span_name, fn, after=None):
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def after_read(datasets, *args, **kwargs):
        for ds in datasets:
            tracer.count("report.records_read", len(ds.records))
            with tracer.span("events.to_arrays"):
                times, flags = to_arrays(ds.records)
            tracer.count("nonparametric.distinct_event_times", np.unique(times[flags == 1]).size)

    def after_fit(fit, records, kind, *args, **kwargs):
        tracer.count("inference.newton_iterations", fit.iterations)
        loglik = loglik_zt if kind is ModelKind.ZERO_TRUNCATED else loglik_ptm
        with tracer.span("inference.loglik"):
            loglik(records, fit.model)
        if fit.converged:
            with tracer.span("inference.wald_summary"):
                wald_summary(fit)

    def after_write(_, data, dest, *args, **kwargs):
        tracer.count("report.bytes_written", os.path.getsize(dest))

    def after_simulate(records, *args, **kwargs):
        tracer.count("simulation.records_simulated", len(records))

    return {
        "read_events_csv": timed("report.read_events_csv", cli.read_events_csv, after_read),
        "write_events_csv": timed("report.write_events_csv", cli.write_events_csv, after_write),
        "write_overlay_csv": timed("report.write_overlay_csv", cli.write_overlay_csv, after_write),
        "build_summary_table": timed("report.build_summary_table", cli.build_summary_table),
        "format_summary_table": timed("report.format_summary_table", cli.format_summary_table),
        "format_fit_report": timed("report.format_fit_report", cli.format_fit_report),
        "fit_report_dict": timed("report.fit_report_dict", cli.fit_report_dict),
        "dumps_fit_reports": timed("report.dumps_fit_reports", cli.dumps_fit_reports),
        "observed_unrecovered": timed("report.observed_unrecovered", cli.observed_unrecovered),
        "kaplan_meier": timed("nonparametric.kaplan_meier", cli.kaplan_meier),
        "fit_mle": timed("inference.fit_mle", cli.fit_mle, after_fit),
        "simulate_cohort": timed("simulation.simulate_cohort", cli.simulate_cohort, after_simulate),
    }


def replay(commands: list[list[str]], tracer: Tracer | None = None) -> tuple[float, list[int]]:
    """Run each command through `pwsurv.cli.main`; returns (wall seconds, exit codes)."""
    patches = _patches(tracer) if tracer is not None else {}
    saved = {name: getattr(cli, name) for name in patches}
    codes = []
    start = time.perf_counter()
    try:
        for name, fn in patches.items():
            setattr(cli, name, fn)
        for cmd in commands:
            if tracer is None:
                codes.append(cli.main(cmd))
            else:
                with tracer.span(f"cli.{cmd[0]}"):
                    codes.append(cli.main(cmd))
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    return time.perf_counter() - start, codes


def summarize(rounds: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """Median layer times over rounds, and the counts, which must repeat exactly."""
    metrics = {
        name: (statistics.median(times[name] for times, _ in rounds), "s")
        for name in rounds[0][0]
    }
    first_counts = rounds[0][1]
    metrics.update({name: (first_counts[name], unit) for name, unit in COUNT_METRICS.items()})
    errors = [] if all(counts == first_counts for _, counts in rounds) else [
        "per-layer counts differ between traced rounds"
    ]
    return metrics, errors
