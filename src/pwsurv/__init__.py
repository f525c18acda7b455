"""Latent-count Weibull survival models for loan default and recovery data.

Two related models around a common Weibull base: a zero-truncated latent
count model for fully observed event times, and a promotion-time model with
a cured fraction for right-censored recovery times. The package fits both
by maximum likelihood, simulates cohorts, computes product-limit curves and
produces the summary tables (intensities, confidence intervals, expected
loss given default at a horizon).
"""

from .distributions import (
    LatentCountParams,
    WeibullParams,
    poisson_pmf,
    weibull_cdf,
    weibull_pdf,
    weibull_survival,
    zt_poisson_mean,
    zt_poisson_pmf,
)
from .events import EventRecord, EventTable, to_arrays
from .inference import (
    FitOptions,
    FitResult,
    NoEventsError,
    SingularInformationError,
    WaldRow,
    fit_mle,
    format_p_value,
    loglik_ptm,
    loglik_zt,
    wald_summary,
)
from .models import (
    ModelKind,
    ModelSpec,
    cure_fraction,
    elgd_at_horizon,
    model_density,
    model_survival,
    ptm_density,
    ptm_survival,
    ztpw_density,
    ztpw_survival,
)
from .nonparametric import KmCurve, kaplan_meier, overlay_export
from .report import (
    CohortDataset,
    CsvFormatError,
    SummaryRow,
    build_summary_table,
    format_fit_report,
    format_summary_table,
    observed_unrecovered,
    read_events_csv,
    write_events_csv,
)
from .simulation import SimConfig, sample_latent_count, simulate_cohort

__version__ = "0.1.0"

__all__ = [
    "EventRecord",
    "EventTable",
    "to_arrays",
    "WeibullParams",
    "LatentCountParams",
    "weibull_pdf",
    "weibull_cdf",
    "weibull_survival",
    "poisson_pmf",
    "zt_poisson_pmf",
    "zt_poisson_mean",
    "ModelKind",
    "ModelSpec",
    "ztpw_density",
    "ztpw_survival",
    "ptm_density",
    "ptm_survival",
    "cure_fraction",
    "elgd_at_horizon",
    "model_density",
    "model_survival",
    "KmCurve",
    "kaplan_meier",
    "overlay_export",
    "FitOptions",
    "FitResult",
    "WaldRow",
    "NoEventsError",
    "SingularInformationError",
    "fit_mle",
    "loglik_zt",
    "loglik_ptm",
    "wald_summary",
    "format_p_value",
    "SimConfig",
    "simulate_cohort",
    "sample_latent_count",
    "CohortDataset",
    "CsvFormatError",
    "SummaryRow",
    "read_events_csv",
    "write_events_csv",
    "build_summary_table",
    "format_summary_table",
    "format_fit_report",
    "observed_unrecovered",
    "__version__",
]
