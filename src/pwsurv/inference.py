"""Maximum-likelihood fitting and Wald inference for both model kinds.

One kernel returns the log-likelihood, its analytic score and its exact
Hessian in (theta, shape, scale) for either kind. The likelihood is maximized
by Newton-Raphson in log coordinates (which enforces positivity) with a
backtracking line search; standard errors come from the exact observed
information at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _HOMES
from .events import EventTable, to_arrays
from .models import LatentCountParams, ModelKind, ModelSpec, WeibullParams
from .models import _log_terms, _require_int, _require_kind, _weibull_terms
from .nonparametric import KmCurve, _collapse

__all__ = list(_HOMES["inference"])

PARAM_NAMES = ("theta", "shape", "scale")

# Two-sided 95% normal quantile used for all confidence intervals.
Z_95 = 1.95996


class NoEventsError(ValueError):
    """Raised when a promotion-time fit is attempted on fully censored data."""


class SingularInformationError(ValueError):
    """Raised when a converged fit's observed information is not finite or not positive definite."""


@dataclass(frozen=True, eq=False)
class FitResult:
    """Point estimates with Wald statistics and convergence diagnostics.

    Per-parameter arrays are ordered (theta, shape, scale), see PARAM_NAMES.
    When the optimizer did not converge the Wald fields are NaN.
    """

    model: ModelSpec
    se: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    p_value: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    gradient_norm: float
    cov: np.ndarray | None = None
    objective_trace: tuple[float, ...] = field(default=(), repr=False)

    @property
    def estimates(self) -> np.ndarray:
        return np.array(self.model.params())


# --- the likelihood kernel -------------------------------------------------
#
# The log-likelihood is the sum of the per-record log terms of models.py (log f_Y for an
# event, log S_Y for a censored record) from the log z, w and log f of models._weibull_terms;
# the score and Hessian are its exact derivatives, in S = exp(-w). Each sum runs over the
# distinct (time, flag) pairs, weighted by the number of records holding the pair (its
# count), so tied records cost one term; counts None weighs each pair 1.

# Below this theta the zero-truncated theta derivatives use their Taylor
# series; the closed forms lose every digit as theta goes to 0.
_SERIES_CUTOFF = 1e-3


def _loglik_derivatives(
    kind: ModelKind,
    times: np.ndarray,
    flags: np.ndarray,
    counts: np.ndarray | None,
    params: Sequence[float],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, score and Hessian in params = (theta, shape, scale), in one pass."""
    theta, shape, scale = params

    def wsum(x):  # the counts-weighted sum
        return x.sum() if counts is None else (counts * x).sum()

    events = flags if counts is None else counts * flags  # the event-weighted counts
    n = float(times.size if counts is None else counts.sum())
    n_events = float(events.sum())
    # c1, c2: the first two theta derivatives of the theta-only terms D log a(theta) - n theta,
    # with D events among n records
    if kind is ModelKind.PROMOTION_TIME:
        c1 = n_events / theta - n
        c2 = -n_events / theta**2
    else:
        one_minus = -np.expm1(-theta)
        if theta < _SERIES_CUTOFF:
            c1 = -n * (0.5 + theta / 12.0 - theta**3 / 720.0)
            c2 = -n * (1.0 / 12.0 - theta**2 / 240.0)
        else:
            c1 = -n * (1.0 / one_minus - 1.0 / theta)
            c2 = -n * (1.0 / theta**2 - np.exp(-theta) / one_minus**2)

    logz, w, log_f = _weibull_terms(times, shape, scale)
    ratio = shape / scale
    terms = _log_terms(kind, theta, log_f, w, flags == 1)
    loglik = terms.sum() if counts is None else counts @ terms  # no temporary, unlike wsum
    np.minimum(w, np.finfo(float).max, out=w)  # past the value, w = inf would make 0 * inf NaN
    surv = np.exp(-w)
    q = surv * w  # -dS/dw
    r = q * (1.0 - w)  # d(S w)/dw
    rl = r * logz
    dw = events * w
    dwl = dw * logz
    s0 = wsum(surv)
    q0, q1 = wsum(q), wsum(q * logz)
    r0, r1, r2 = wsum(r), wsum(rl), wsum(rl * logz)
    dl = (events * logz).sum()
    e0, e1, e2 = dw.sum(), dwl.sum(), (dwl * logz).sum()

    score = np.array([
        c1 + s0,
        n_events / shape + dl - e1 - theta * q1,
        ratio * (e0 - n_events + theta * q0),
    ])
    h_ss = -n_events / shape**2 - e2 - theta * r2
    h_sb = (e0 - n_events + shape * e1 + theta * (q0 + shape * r1)) / scale
    h_bb = -(ratio / scale) * (e0 - n_events + shape * e0 + theta * (q0 + shape * r0))
    hessian = np.array([
        [c2, -q1, ratio * q0],
        [-q1, h_ss, h_sb],
        [ratio * q0, h_sb, h_bb],
    ])
    return float(loglik), score, hessian


def _evaluate(
    kind: ModelKind, times: np.ndarray, flags: np.ndarray, params: Sequence[float]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, score and Hessian of the records (times, flags) at params."""
    pairs, _ = _collapse(times, flags)
    return _loglik_derivatives(kind, *pairs, params)


def _zt_loglik(times: np.ndarray, theta: float, shape: float, scale: float) -> float:
    return _evaluate(ModelKind.ZERO_TRUNCATED, times, np.ones(times.size), (theta, shape, scale))[0]


def _zt_score(times: np.ndarray, theta: float, shape: float, scale: float) -> np.ndarray:
    return _evaluate(ModelKind.ZERO_TRUNCATED, times, np.ones(times.size), (theta, shape, scale))[1]


def _ptm_loglik(
    times: np.ndarray, flags: np.ndarray, theta: float, shape: float, scale: float
) -> float:
    return _evaluate(ModelKind.PROMOTION_TIME, times, flags, (theta, shape, scale))[0]


def _ptm_score(
    times: np.ndarray, flags: np.ndarray, theta: float, shape: float, scale: float
) -> np.ndarray:
    return _evaluate(ModelKind.PROMOTION_TIME, times, flags, (theta, shape, scale))[1]


def _validate(kind: ModelKind, flags: np.ndarray) -> None:
    if not isinstance(kind, ModelKind):
        raise ValueError(f"kind must be a ModelKind, got {kind!r}")
    if kind is ModelKind.ZERO_TRUNCATED and np.any(flags == 0):
        raise ValueError(
            "the zero-truncated model applies to fully observed data; "
            "censored records are not allowed"
        )


def loglik_zt(data: EventTable, m: ModelSpec) -> float:
    """Log-likelihood of fully observed data under the zero-truncated model.

    Every record must have event = 1; censored records are rejected.
    """
    _require_kind(m, ModelKind.ZERO_TRUNCATED)
    times, flags = to_arrays(data)
    _validate(m.kind, flags)
    return _evaluate(m.kind, times, flags, m.params())[0]


def loglik_ptm(data: EventTable, m: ModelSpec) -> float:
    """Censored log-likelihood under the promotion-time model.

    Events contribute log density, censored records log survival.
    """
    _require_kind(m, ModelKind.PROMOTION_TIME)
    return _evaluate(m.kind, *to_arrays(data), m.params())[0]


# --- optimizer -------------------------------------------------------------

# Step halvings before the line search gives up.
_MAX_HALVINGS = 40
# Largest log-coordinate gradient component of a converged fit.
_GRADIENT_TOL = 1e-8


def _initial_params(kind: ModelKind, curve: KmCurve, times: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Start values: shape and scale from the first valid Weibull plot of the KM curve.

    The plots are tried in order. For ptm, -ln S_KM(t) estimates theta*F(t), so
    the KM plot plateaus instead of diverging; rescaling it by its value at the
    last event time with S > 0 recovers F, whose plot log(-log(1 - F)) on log t
    over 0.01 < F < 0.99 comes first. Then, for both kinds, the plain plot of
    log(-log S) on log t over event times with 0 < S < 1. A plot qualifies with
    at least two points and a least-squares line y = shape * (log t - log scale)
    of full rank, as np.polyfit reports it, and of positive finite shape and
    scale; when none does the start is shape 1 and the mean time. theta starts
    at 1 for zt and, for ptm, at its profile value clipped to [1e-3, 1e3].
    """
    survival = curve.survival
    plots = []
    if kind is ModelKind.PROMOTION_TIME:
        keep = survival > 0.0
        cum = -np.log(survival[keep])
        if cum.size >= 2 and cum[-1] > 0.0:
            frac = cum / cum[-1]
            mid = (frac > 0.01) & (frac < 0.99)
            plots.append((curve.times[keep][mid], np.log(-np.log1p(-frac[mid]))))
    keep = (survival > 0.0) & (survival < 1.0)
    plots.append((curve.times[keep], np.log(-np.log(survival[keep]))))
    for t, y in plots:
        if t.size >= 2:
            # full=True reports the line's rank instead of warning when it is below 2
            (slope, intercept), _, rank, _, _ = np.polyfit(np.log(t), y, 1, full=True)
            if rank == 2 and np.isfinite(slope) and slope > 0.0:
                scale0 = float(np.exp(-intercept / slope))
                if np.isfinite(scale0) and scale0 > 0.0:
                    shape0 = float(slope)
                    break
    else:
        shape0, scale0 = 1.0, float(np.mean(times))

    if kind is ModelKind.ZERO_TRUNCATED:
        theta0 = 1.0
    else:
        # profile value: d loglik / d theta = 0 at theta = events / sum F(t_i), inf at a sum of 0
        w = _weibull_terms(times, shape0, scale0)[1]
        theta0 = min(max(float(np.sum(flags) / np.sum(-np.expm1(-w))), 1e-3), 1e3)
    return np.array([theta0, shape0, scale0])


def _ascent_direction(hess: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction, ridge-damped when the Hessian is not negative definite.

    Solves (H - lam*I) d = -g. H - lam*I is negative definite exactly when lam
    exceeds H's top eigenvalue, so lam = 0 when that eigenvalue is negative and
    otherwise the least ridge*4^k (k <= 59) above it. Keeps curvature scaling in
    the concave directions instead of collapsing to a raw gradient step, which
    crawls on ridge-shaped likelihoods; that step is left for a non-finite H, a
    decomposition or solve that fails, or a top eigenvalue beyond the last shift.
    """
    if np.all(np.isfinite(hess)):
        ridge = 1e-3 * max(1.0, float(np.max(np.abs(np.diag(hess)))))
        shifts = np.append(0.0, ridge * 4.0 ** np.arange(60))
        try:
            k = np.searchsorted(shifts, np.linalg.eigvalsh(hess)[-1], side="right")
            if k < shifts.size:
                return np.linalg.solve(hess - shifts[k] * np.eye(g.size), -g)
        except np.linalg.LinAlgError:
            pass
    return g / float(np.max(np.abs(g)))


def _newton_maximize(kind: ModelKind, pairs: tuple, p: np.ndarray, max_iterations: int):
    """Maximize the log-likelihood of the collapsed pairs over u = log p, starting from p.

    Returns (p, loglik, Hessian in p, trace, converged, iterations, gradient norm).
    """
    ll, g, hess = _loglik_derivatives(kind, *pairs, p)
    if not np.isfinite(ll):
        raise ValueError("log-likelihood is not finite at the starting point")
    trace = [ll]
    iterations = 0
    converged = False
    u = np.log(p)

    while True:
        # chain rule for u = log p: g_u = p g, H_u = diag(p) H diag(p) + diag(p g)
        g_u = p * g
        gnorm = float(np.max(np.abs(g_u)))
        if gnorm < _GRADIENT_TOL:
            converged = True
            break
        if iterations >= max_iterations:
            break

        direction = _ascent_direction(np.outer(p, p) * hess + np.diag(g_u), g_u)
        slope = float(g_u @ direction)
        # Objective changes this small are below float summation noise: accept the step on
        # the gradient criterion alone if it stays within that noise of the best loglik seen.
        best = max(trace)
        noise = 1e-9 * (1.0 + abs(best))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            u_try = u + alpha * direction
            p_try = np.exp(u_try)
            ll_try, g_try, hess_try = _loglik_derivatives(kind, *pairs, p_try)
            if np.isfinite(ll_try) and (
                ll_try >= ll or (alpha * slope <= noise and ll_try >= best - noise)
            ):
                u, p, ll, g, hess = u_try, p_try, ll_try, g_try, hess_try
                trace.append(ll)
                break
            alpha *= 0.5
        else:
            break
        iterations += 1

    return p, ll, hess, tuple(trace), converged, iterations, gnorm


def _wald_from_information(info: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance and standard errors at a maximum, where the information is finite and positive definite.

    Any other information raises SingularInformationError naming the parameter at fault.
    """
    bad = ~np.isfinite(info)
    if bad.any():
        # the first non-finite diagonal entry, else the first row holding a non-finite entry
        i = int(np.argmax(bad.diagonal() if bad.diagonal().any() else bad.any(axis=1)))
        raise SingularInformationError(f"observed information is not finite for parameter '{PARAM_NAMES[i]}'")
    values, vectors = np.linalg.eigh(info)
    if values[0] <= 0.0:
        # the direction of least curvature, named by its dominant component
        name = PARAM_NAMES[int(np.argmax(np.abs(vectors[:, 0])))]
        raise SingularInformationError(
            f"observed information is not positive definite; parameter '{name}' is not identified"
        )
    cov = np.linalg.inv(info)
    return cov, np.sqrt(np.diag(cov))


def fit_mle(
    data: EventTable,
    kind: ModelKind,
    *,
    max_iterations: int = 200,
) -> FitResult:
    """Maximum-likelihood fit of either model on loan event records.

    Newton-Raphson runs on (log theta, log shape, log scale); the reported
    standard errors use the exact observed information in the original
    parameterization at the optimum. Non-convergence is reported through
    converged=False with NaN Wald statistics, never silently.
    ``max_iterations`` caps the Newton steps from the Kaplan-Meier start values.

    Raises
    ------
    TypeError
        When ``data`` is not an EventTable.
    ValueError
        On a ``kind`` that is not a ModelKind, empty data, censored records
        under the zero-truncated kind, fewer than two distinct event times or
        a ``max_iterations`` that is not a nonnegative integer.
    NoEventsError
        A ValueError: on promotion-time data with no observed events.
    SingularInformationError
        A ValueError: when the observed information at a converged optimum
        is not finite or not positive definite.
    """
    _require_int("max_iterations", max_iterations)
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
    times, flags = to_arrays(data)
    _validate(kind, flags)
    pairs, curve = _collapse(times, flags)  # an empty cohort fails here
    if curve.times.size == 0:
        raise NoEventsError("no events in the dataset; the promotion-time intensity is not identifiable")
    if curve.times.size < 2:
        raise ValueError(
            "needs at least two distinct event times; the Weibull shape has no finite estimate"
        )

    with np.errstate(all="ignore"):
        start = _initial_params(kind, curve, times, flags)
        estimates, ll, hess, trace, converged, iterations, gnorm = _newton_maximize(
            kind, pairs, start, max_iterations
        )

    spec = ModelSpec(kind, LatentCountParams(estimates[0]), WeibullParams(estimates[1], estimates[2]))
    nan3 = np.full(3, np.nan)
    se, ci_low, ci_high, p_value, cov = nan3, nan3, nan3, nan3, None
    if converged:
        cov, se = _wald_from_information(-hess)
        ci_low = estimates - Z_95 * se
        ci_high = estimates + Z_95 * se
        # two-sided normal p-value of each Wald z = estimate / se
        p_value = np.vectorize(math.erfc)(np.abs(estimates / se) / math.sqrt(2.0))

    return FitResult(
        model=spec,
        se=se,
        ci_low=ci_low,
        ci_high=ci_high,
        p_value=p_value,
        loglik=ll,
        converged=converged,
        iterations=iterations,
        gradient_norm=gnorm,
        cov=cov,
        objective_trace=trace,
    )


# --- Wald summaries --------------------------------------------------------

def _format_p_value(p: float) -> str:
    """Render a p-value, collapsing the far tail to '< 0.0001'."""
    return "< 0.0001" if p < 1e-4 else f"{p:.4f}"


def wald_summary(f: FitResult) -> list[dict]:
    """The report's Wald rows for a converged fit, one per parameter.

    Each row holds parameter, estimate, se, ci_low, ci_high, p_value and
    p_text (the p-value as the report prints it). The p-value tests the
    parameter against 0 using the normal approximation.
    """
    if not f.converged:
        raise ValueError("wald_summary requires a converged fit")
    rows = []
    for name, *values in zip(PARAM_NAMES, f.estimates, f.se, f.ci_low, f.ci_high, f.p_value):
        estimate, se, ci_low, ci_high, p_value = map(float, values)
        rows.append({
            "parameter": name, "estimate": estimate, "se": se, "ci_low": ci_low,
            "ci_high": ci_high, "p_value": p_value, "p_text": _format_p_value(p_value),
        })
    return rows
