"""What a cohort fit reports. Output tables mirror the two report formats:
per-parameter Wald summaries and the cross-cohort metric summary (latent
default intensity, recovery intensity, observed and model LGD at the horizon).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import _HOMES
from .events import EventTable, ModelKind
from .inference import FitResult, wald_summary
from .models import cure_fraction, elgd_at_horizon, zt_poisson_mean
from .nonparametric import kaplan_meier

__all__ = list(_HOMES["report"])


@dataclass(frozen=True)
class SummaryRow:
    """One cohort line of the cross-cohort summary; absent metrics are None."""

    cohort: str
    theta_default: float | None
    theta_recovery: float | None
    observed_lgd_pct: float | None
    elgd_pct: float | None
    converged: bool


def observed_unrecovered(records: EventTable, horizon: float) -> float:
    """Empirical fraction still unrecovered at the horizon (KM estimate)."""
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
    table = [["cohort", "theta-default", "theta-recovery", "observed LGD%", "ELGD%", "fit"]]
    for r in rows:
        table.append(
            [
                r.cohort,
                _cell(r.theta_default),
                _cell(r.theta_recovery),
                _cell(r.observed_lgd_pct, "{:.3f}"),
                _cell(r.elgd_pct, "{:.3f}"),
                "ok" if r.converged else "NOT CONVERGED",
            ]
        )
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table)


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
        out["parameters"] = wald_summary(fit)
    if fit.model.kind is ModelKind.ZERO_TRUNCATED:
        out["latent_mean"] = zt_poisson_mean(theta)
    else:
        out["cure_fraction"] = cure_fraction(fit.model)
        out["elgd_at_horizon"] = elgd_at_horizon(fit.model, horizon)
        out["horizon"] = horizon
    return out


def dumps_fit_reports(reports: list[dict]) -> str:
    """JSON document for a list of fit_report_dict outputs; a non-finite number is null."""
    # the parser reads each non-finite constant back as None, so the output is strict JSON
    plain = json.loads(json.dumps(reports), parse_constant=lambda _: None)
    return json.dumps({"fits": plain}, indent=2, allow_nan=False)
