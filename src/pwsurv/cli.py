"""Command-line front end.

Subcommands: ``fit`` (per-cohort maximum likelihood), ``simulate`` (draw a
synthetic cohort), ``km`` (product-limit curves, optional model overlay),
``report`` (fits plus the cross-cohort summary table). Each cohort is fit on
its own; one that cannot be fit gets a FAILED entry and the others are still
written. Exit codes: 0 on success, 1 on bad input, invalid options or a
cohort that could not be fit, 2 when a fit fails to converge.
"""

from __future__ import annotations

import argparse
import gc
import sys
from importlib import import_module

import numpy as np

from .models import (
    LatentCountParams, ModelKind, ModelSpec, SimConfig, WeibullParams, model_survival, simulate_cohort,
)


def _deferred(module: str, name: str):
    """`pwsurv.<module>.<name>`, imported on its first call: a subcommand loads only what it runs."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    return call


# The handlers look these names up here at call time, so bench/tracing.py can swap them
# (simulate_cohort too, which the models import above binds).
fit_mle = _deferred("inference", "fit_mle")
kaplan_meier = _deferred("nonparametric", "kaplan_meier")
build_summary_table = _deferred("report", "build_summary_table")
dumps_fit_reports = _deferred("report", "dumps_fit_reports")
fit_report_dict = _deferred("report", "fit_report_dict")
format_fit_report = _deferred("report", "format_fit_report")
format_summary_table = _deferred("report", "format_summary_table")
observed_unrecovered = _deferred("report", "observed_unrecovered")
read_events_csv = _deferred("report", "read_events_csv")
write_events_csv = _deferred("report", "write_events_csv")
write_overlay_csv = _deferred("report", "write_overlay_csv")

_KINDS = {"zt": ModelKind.ZERO_TRUNCATED, "ptm": ModelKind.PROMOTION_TIME}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for non-convergence; route usage errors to 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pwsurv",
        description="Fit, simulate and report latent-count Weibull survival models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit each cohort in an event CSV")
    fit.add_argument("--format", choices=["text", "json"], default="text")

    sim = sub.add_parser("simulate", help="draw a synthetic cohort and write it as CSV")
    sim.add_argument("--model", choices=["zt", "ptm"], required=True)
    sim.add_argument("--theta", type=float, required=True, help="latent count intensity")
    sim.add_argument("--shape", type=float, required=True, help="Weibull shape")
    sim.add_argument("--scale", type=float, required=True, help="Weibull scale")
    sim.add_argument("--n", type=int, required=True, help="number of subjects")
    sim.add_argument(
        "--horizon",
        type=float,
        required=True,
        help="censoring horizon; 'inf' allowed for the zero-truncated model",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--cohort", default="sim", help="cohort label for the output rows")
    sim.add_argument("--out", required=True, help="destination CSV")

    km = sub.add_parser("km", help="product-limit curves per cohort as CSV")
    km.add_argument("--input", required=True)
    km.add_argument("--out", default=None, help="destination CSV (default stdout)")
    km.add_argument("--overlay-model", choices=["zt", "ptm"], default=None)
    km.add_argument("--overlay-theta", type=float, default=None)
    km.add_argument("--overlay-shape", type=float, default=None)
    km.add_argument("--overlay-scale", type=float, default=None)

    rep = sub.add_parser("report", help="per-cohort fits plus the summary table")

    for fitting in (fit, rep):
        fitting.add_argument("--input", required=True, help="event CSV (time,event,cohort)")
        fitting.add_argument(
            "--model",
            choices=["zt", "ptm", "auto"],
            default="auto",
            help="model for every cohort; auto picks zt for fully observed cohorts",
        )
        fitting.add_argument("--horizon", type=float, default=24.0, help="reporting horizon")
        fitting.add_argument("--max-iter", type=int, default=None, help="cap optimizer iterations")
        fitting.add_argument("--out", default=None, help="write output here instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _fit_cohorts(args) -> list:
    """Read the input and fit each cohort: (dataset, fit or the error that stopped it)."""
    from .inference import SingularInformationError

    if args.max_iter is not None and args.max_iter < 0:
        raise ValueError("--max-iter must be nonnegative")
    if not args.horizon > 0.0:  # also NaN; inf is allowed
        raise ValueError("--horizon must be positive")
    kind = None if args.model == "auto" else _KINDS[args.model]
    datasets = read_events_csv(args.input, kind=kind)
    if not datasets:
        raise ValueError(f"{args.input}: no records to fit")
    limit = {} if args.max_iter is None else {"max_iterations": args.max_iter}
    results = []
    for ds in datasets:
        try:
            results.append((ds, fit_mle(ds.records, ds.kind, **limit)))
        except (SingularInformationError, ValueError) as exc:  # NoEventsError is a ValueError
            results.append((ds, exc))
    return results


def _fit_block(ds, fit, horizon: float) -> str:
    if isinstance(fit, Exception):
        return f"cohort {ds.cohort} [{ds.kind.value}]\n  FAILED: {fit}"
    return format_fit_report(ds.cohort, fit, horizon)


def _exit_code(results) -> int:
    if any(isinstance(fit, Exception) for _, fit in results):
        return 1
    return 0 if all(fit.converged for _, fit in results) else 2


def _cmd_fit(args) -> int:
    results = _fit_cohorts(args)
    if args.format == "json":
        reports = [
            {"cohort": ds.cohort, "model": ds.kind.value, "error": str(fit)}
            if isinstance(fit, Exception)
            else fit_report_dict(ds.cohort, fit, args.horizon)
            for ds, fit in results
        ]
        _emit(dumps_fit_reports(reports), args.out)
    else:
        _emit("\n\n".join(_fit_block(ds, fit, args.horizon) for ds, fit in results), args.out)
    return _exit_code(results)


def _model_spec(kind: str, theta: float, shape: float, scale: float) -> ModelSpec:
    return ModelSpec(_KINDS[kind], LatentCountParams(theta), WeibullParams(shape, scale))


def _cmd_simulate(args) -> int:
    model = _model_spec(args.model, args.theta, args.shape, args.scale)
    config = SimConfig(model=model, n=args.n, horizon=args.horizon, seed=args.seed)
    records = simulate_cohort(config, cohort=args.cohort)
    write_events_csv(records, args.out)
    return 0


def _cmd_km(args) -> int:
    overlay = (args.overlay_model, args.overlay_theta, args.overlay_shape, args.overlay_scale)
    if None in overlay and any(v is not None for v in overlay):
        raise ValueError("overlay needs --overlay-model, --overlay-theta, --overlay-shape and --overlay-scale")
    model = None if None in overlay else _model_spec(*overlay)
    columns = {}
    for ds in read_events_csv(args.input):
        curve = kaplan_meier(ds.records)
        # the curve's value at 0 and at each of its own steps
        t = np.concatenate(([0.0], curve.times))
        columns[ds.cohort] = [t, np.concatenate(([1.0], curve.survival))]
        if model is not None:
            columns[ds.cohort].append(model_survival(t, model))
    write_overlay_csv(columns, args.out or sys.stdout, with_model=model is not None)
    return 0


def _cmd_report(args) -> int:
    results = _fit_cohorts(args)
    fits = {}
    observed = {}
    blocks = []
    for ds, fit in results:
        blocks.append(_fit_block(ds, fit, args.horizon))
        if isinstance(fit, Exception):
            continue
        fits[ds.cohort] = fit
        if ds.kind is ModelKind.PROMOTION_TIME:
            observed[ds.cohort] = observed_unrecovered(ds.records, args.horizon)
    rows = build_summary_table(fits, args.horizon, observed)
    text = "\n\n".join(blocks) + "\n\n" + format_summary_table(rows)
    _emit(text, args.out)
    return _exit_code(results)


def main(argv=None) -> int:
    parser = _build_parser()
    handlers = {
        "fit": _cmd_fit,
        "simulate": _cmd_simulate,
        "km": _cmd_km,
        "report": _cmd_report,
    }
    try:
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _process_main() -> int:
    """Entry point of a `pwsurv` process (console script and `python -m pwsurv.cli`).

    Freezing the heap moves every live object to the permanent generation,
    which the collections at interpreter shutdown skip. `main` itself does
    not freeze, because tests call it in process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(_process_main())
