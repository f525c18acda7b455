"""Latent-count Weibull survival models for loan default and recovery data.

Two related models around a common Weibull base: a zero-truncated latent
count model for fully observed event times, and a promotion-time model with
a cured fraction for right-censored recovery times. The package fits both
by maximum likelihood, simulates cohorts, computes product-limit curves and
produces the summary tables (intensities, confidence intervals, expected
loss given default at a horizon).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and its home module. The package imports a module only
# when one of its names is first used, so `import pwsurv` (and every
# `python -m pwsurv.cli` process) loads no submodule by itself.
_HOMES = {
    "events": ("EventRecord", "EventTable", "to_arrays"),
    "models": (
        "WeibullParams", "LatentCountParams", "weibull_pdf", "zt_poisson_mean",
        "ModelKind", "ModelSpec", "ztpw_density", "ptm_density", "ptm_survival",
        "cure_fraction", "elgd_at_horizon", "model_density", "model_survival",
        "SimConfig", "simulate_cohort",
    ),
    "nonparametric": ("KmCurve", "kaplan_meier"),
    "inference": (
        "FitResult", "WaldRow", "NoEventsError", "SingularInformationError",
        "fit_mle", "loglik_zt", "loglik_ptm", "wald_summary", "format_p_value",
    ),
    "report": (
        "CohortDataset", "CsvFormatError", "SummaryRow", "read_events_csv", "write_events_csv",
        "build_summary_table", "format_summary_table", "format_fit_report", "observed_unrecovered",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
