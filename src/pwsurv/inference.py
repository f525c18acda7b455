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
from typing import Iterable, Sequence

import numpy as np

from .events import EventRecord, to_arrays
from .models import LatentCountParams, ModelKind, ModelSpec, WeibullParams, _log_lead, _require_kind
from .nonparametric import KmCurve, _product_limit

__all__ = [
    "FitResult",
    "NoEventsError",
    "SingularInformationError",
    "WaldRow",
    "loglik_zt",
    "loglik_ptm",
    "fit_mle",
    "wald_summary",
    "format_p_value",
]

PARAM_NAMES = ("theta", "shape", "scale")

# Two-sided 95% normal quantile used for all confidence intervals.
Z_95 = 1.95996


class NoEventsError(ValueError):
    """Raised when a promotion-time fit is attempted on fully censored data."""


class SingularInformationError(RuntimeError):
    """Raised when the observed information matrix cannot be inverted."""


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
# Both kinds share one log-likelihood, the sum of the log-space formulas in
# models.py; the kind enters only through their lead term log a(theta). With
# d the event flag, D = sum d over n records, z = t/scale, L = log z,
# w = z^shape and S = exp(-w):
#
#   l = sum d log f + theta sum S + D log a(theta) - n theta
#   log f = log(shape) - log(scale) + (shape - 1) L - w
#
# Each sum runs over the distinct (time, flag) pairs, weighted by the number
# of records holding the pair, so tied records cost one term.

# Below this theta the zero-truncated theta derivatives use their Taylor
# series; the closed forms lose every digit as theta goes to 0.
_SERIES_CUTOFF = 1e-3


def _collapse(times: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (time, flag) pairs and the number of records holding each.

    The pairs keep the order of their first record, so on data without ties
    the kernel's sums add the same terms in the same order as over the records.
    """
    # times are positive, so a signed time (negative when censored) is one
    # sort key that keeps the two flags of a time apart
    key = np.where(flags == 1, times, -times)
    order = np.argsort(key)
    sorted_key = key[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = sorted_key[1:] != sorted_key[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, key.size)).astype(float)
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    first = first[by_first]
    return times[first], flags[first], counts[by_first]


def _loglik_derivatives(
    kind: ModelKind,
    times: np.ndarray,
    flags: np.ndarray,
    counts: np.ndarray,
    params: Sequence[float],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, score and Hessian in params = (theta, shape, scale), in one pass.

    Record i stands for counts[i] records with the same time and flag.
    """
    theta, shape, scale = params
    events = counts * flags  # the event-weighted counts
    n = float(np.sum(counts))
    n_events = float(np.sum(events))
    # c0, c1, c2: the theta-only terms D log a(theta) - n theta and their
    # first two theta derivatives
    c0 = n_events * _log_lead(kind, theta) - n * theta
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

    logz = np.log(times / scale)
    w = np.exp(shape * logz)
    surv = np.exp(-w)
    q = surv * w  # -dS/dw
    r = q * (1.0 - w)  # d(S w)/dw
    rl = r * logz
    dw = events * w
    dwl = dw * logz
    s0 = np.sum(counts * surv)
    q0, q1 = np.sum(counts * q), np.sum(counts * (q * logz))
    r0, r1, r2 = np.sum(counts * r), np.sum(counts * rl), np.sum(counts * (rl * logz))
    dl = np.sum(events * logz)
    e0, e1, e2 = np.sum(dw), np.sum(dwl), np.sum(dwl * logz)
    ratio = shape / scale

    loglik = c0 + n_events * np.log(ratio) + (shape - 1.0) * dl - e0 + theta * s0
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


def _zt_loglik(times: np.ndarray, theta: float, shape: float, scale: float) -> float:
    pairs = _collapse(times, np.ones(times.size))
    return _loglik_derivatives(ModelKind.ZERO_TRUNCATED, *pairs, (theta, shape, scale))[0]


def _zt_score(times: np.ndarray, theta: float, shape: float, scale: float) -> np.ndarray:
    pairs = _collapse(times, np.ones(times.size))
    return _loglik_derivatives(ModelKind.ZERO_TRUNCATED, *pairs, (theta, shape, scale))[1]


def _ptm_loglik(
    times: np.ndarray, flags: np.ndarray, theta: float, shape: float, scale: float
) -> float:
    pairs = _collapse(times, flags)
    return _loglik_derivatives(ModelKind.PROMOTION_TIME, *pairs, (theta, shape, scale))[0]


def _ptm_score(
    times: np.ndarray, flags: np.ndarray, theta: float, shape: float, scale: float
) -> np.ndarray:
    pairs = _collapse(times, flags)
    return _loglik_derivatives(ModelKind.PROMOTION_TIME, *pairs, (theta, shape, scale))[1]


def _validate(kind: ModelKind, times: np.ndarray, flags: np.ndarray) -> None:
    if times.size == 0:
        raise ValueError("dataset is empty")
    if kind is ModelKind.ZERO_TRUNCATED and np.any(flags == 0):
        raise ValueError(
            "the zero-truncated model applies to fully observed data; "
            "censored records are not allowed"
        )
    if kind is ModelKind.PROMOTION_TIME and not np.any(flags == 1):
        raise NoEventsError(
            "no events in the dataset; the promotion-time intensity is not identifiable"
        )


def loglik_zt(data: Iterable[EventRecord], m: ModelSpec) -> float:
    """Log-likelihood of fully observed data under the zero-truncated model.

    Every record must have event = 1; censored records are rejected.
    """
    _require_kind(m, ModelKind.ZERO_TRUNCATED)
    times, flags = to_arrays(data)
    _validate(m.kind, times, flags)
    return _zt_loglik(times, *m.params())


def loglik_ptm(data: Iterable[EventRecord], m: ModelSpec) -> float:
    """Censored log-likelihood under the promotion-time model.

    Events contribute log density, censored records log survival.
    """
    _require_kind(m, ModelKind.PROMOTION_TIME)
    times, flags = to_arrays(data)
    if times.size == 0:
        raise ValueError("dataset is empty")
    return _ptm_loglik(times, flags, *m.params())


# --- optimizer -------------------------------------------------------------

# Step halvings before the line search gives up.
_MAX_HALVINGS = 40
# Largest log-coordinate gradient component of a converged fit.
_GRADIENT_TOL = 1e-8


def _weibull_plot_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Shape/scale from the least-squares line y = shape * (log t - log scale), if valid."""
    slope, intercept = np.polyfit(np.log(t), y, 1)
    if np.isfinite(slope) and slope > 0.0:
        scale = float(np.exp(-intercept / slope))
        if np.isfinite(scale) and scale > 0.0:
            return float(slope), scale
    return None


def _km_weibull_init(curve: KmCurve, times: np.ndarray) -> tuple[float, float]:
    """Starting shape/scale from a least-squares Weibull plot of the KM curve.

    Regresses log(-log S(t)) on log t over event times with 0 < S < 1; falls
    back to shape 1 and the mean time when the regression is degenerate.
    """
    keep = (curve.survival > 0.0) & (curve.survival < 1.0)
    if np.count_nonzero(keep) >= 2:
        fit = _weibull_plot_fit(curve.times[keep], np.log(-np.log(curve.survival[keep])))
        if fit is not None:
            return fit
    return 1.0, float(np.mean(times))


def _ptm_weibull_init(curve: KmCurve, times: np.ndarray) -> tuple[float, float]:
    """Starting shape/scale for the promotion-time fit.

    Under that model -ln S_KM(t) estimates theta*F(t), so the KM plot
    plateaus instead of diverging; rescaling by its terminal value recovers
    the shape of the base CDF, which then feeds the usual Weibull plot.
    """
    keep = curve.survival > 0.0
    cum = -np.log(curve.survival[keep])
    t = curve.times[keep]
    if t.size >= 2 and cum[-1] > 0.0:
        frac = cum / cum[-1]
        mid = (frac > 0.01) & (frac < 0.99)
        if np.count_nonzero(mid) >= 2:
            fit = _weibull_plot_fit(t[mid], np.log(-np.log1p(-frac[mid])))
            if fit is not None:
                return fit
    return _km_weibull_init(curve, times)


def _initial_params(kind: ModelKind, times: np.ndarray, flags: np.ndarray) -> np.ndarray:
    curve = _product_limit(times, flags)
    if kind is ModelKind.ZERO_TRUNCATED:
        shape0, scale0 = _km_weibull_init(curve, times)
        theta0 = 1.0
    else:
        shape0, scale0 = _ptm_weibull_init(curve, times)
        # profile value: d loglik / d theta = 0 at theta = events / sum F(t_i)
        cdf_sum = float(np.sum(-np.expm1(-((times / scale0) ** shape0))))
        if cdf_sum > 0.0:
            theta0 = float(np.sum(flags)) / cdf_sum
        else:
            theta0 = -math.log(max(0.01, 1.0 - float(np.mean(flags))))
        theta0 = min(max(theta0, 1e-3), 1e3)
    return np.array([theta0, shape0, scale0])


def _ascent_direction(hess: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction, ridge-damped when the Hessian is not negative definite.

    Solves (H - lam*I) d = -g with lam = 0 first, then with lam grown until the
    shifted matrix is negative definite. Keeps curvature scaling in the concave
    directions instead of collapsing to a raw gradient step, which crawls on
    ridge-shaped likelihoods; that step is left only for a non-finite H.
    """
    if np.all(np.isfinite(hess)):
        eye = np.eye(g.size)
        ridge = 1e-3 * max(1.0, float(np.max(np.abs(np.diag(hess)))))
        for lam in [0.0] + [ridge * 4.0**k for k in range(60)]:
            shifted = hess - lam * eye
            try:
                np.linalg.cholesky(-shifted)
                return np.linalg.solve(shifted, -g)
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
        # Objective changes this small are below float summation noise; accept
        # the step on the gradient criterion alone.
        noise = 1e-9 * (1.0 + abs(ll))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            u_try = u + alpha * direction
            p_try = np.exp(u_try)
            ll_try, g_try, hess_try = _loglik_derivatives(kind, *pairs, p_try)
            if np.isfinite(ll_try) and (
                ll_try >= ll or (alpha * slope <= noise and ll_try >= ll - noise)
            ):
                u, p, ll, g, hess = u_try, p_try, ll_try, g_try, hess_try
                trace.append(ll)
                break
            alpha *= 0.5
        else:
            break
        iterations += 1

    return p, ll, hess, tuple(trace), converged, iterations, gnorm


def _name_singular_parameter(info: np.ndarray) -> str:
    diag = np.diag(info)
    bad = ~np.isfinite(diag)
    if np.any(bad):
        return PARAM_NAMES[int(np.argmax(bad))]
    if np.any(diag <= 0.0):
        return PARAM_NAMES[int(np.argmin(diag))]
    # Direction of (near) zero curvature: dominant component of the smallest
    # eigenvalue's eigenvector.
    _, vecs = np.linalg.eigh(info)
    return PARAM_NAMES[int(np.argmax(np.abs(vecs[:, 0])))]


def _wald_from_information(info: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance and standard errors from the observed information matrix."""
    if not np.all(np.isfinite(info)):
        raise SingularInformationError(
            f"observed information is not finite for parameter "
            f"'{_name_singular_parameter(info)}'"
        )
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(
            f"observed information matrix is singular; parameter "
            f"'{_name_singular_parameter(info)}' is not identified"
        ) from exc
    var = np.diag(cov)
    if np.any(var <= 0.0):
        bad = PARAM_NAMES[int(np.argmin(var))]
        raise SingularInformationError(
            f"observed information is not positive definite; variance for "
            f"'{bad}' is nonpositive"
        )
    return cov, np.sqrt(var)


def fit_mle(
    data: Iterable[EventRecord],
    kind: ModelKind,
    *,
    max_iterations: int = 200,
    initial: Sequence[float] | None = None,
) -> FitResult:
    """Maximum-likelihood fit of either model on loan event records.

    Newton-Raphson runs on (log theta, log shape, log scale); the reported
    standard errors use the exact observed information in the original
    parameterization at the optimum. Non-convergence is reported through
    converged=False with NaN Wald statistics, never silently.
    ``max_iterations`` caps the Newton steps; ``initial`` (theta, shape,
    scale) replaces the start values taken from the Kaplan-Meier curve.

    Raises
    ------
    ValueError
        On empty data, censored records under the zero-truncated kind, fewer
        than two distinct event times, or a bad ``initial``.
    NoEventsError
        On promotion-time data with no observed events.
    SingularInformationError
        When the information matrix at a converged optimum is singular.
    """
    times, flags = to_arrays(data)
    _validate(kind, times, flags)
    pairs = _collapse(times, flags)
    if np.count_nonzero(pairs[1]) < 2:
        raise ValueError(
            "needs at least two distinct event times; the Weibull shape has no finite estimate"
        )

    if initial is not None:
        start = np.array(initial, dtype=float)
    else:
        start = _initial_params(kind, times, flags)
    if start.shape != (3,) or np.any(start <= 0.0) or not np.all(np.isfinite(start)):
        raise ValueError(f"initial must be three positive finite numbers (theta, shape, scale), got {start}")

    with np.errstate(all="ignore"):
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

@dataclass(frozen=True)
class WaldRow:
    """One summary line: estimate, SE, 95% CI bounds, and the Wald p-value."""

    parameter: str
    estimate: float
    se: float
    ci_low: float
    ci_high: float
    p_value: float

    @property
    def p_text(self) -> str:
        return format_p_value(self.p_value)


def format_p_value(p: float) -> str:
    """Render a p-value, collapsing the far tail to '< 0.0001'."""
    return "< 0.0001" if p < 1e-4 else f"{p:.4f}"


def wald_summary(f: FitResult) -> list[WaldRow]:
    """Per-parameter Wald rows (estimate, SE, CI, p) for a converged fit.

    The p-value tests each parameter against 0 using the normal approximation.
    """
    if not f.converged:
        raise ValueError("wald_summary requires a converged fit")
    estimates = f.estimates
    return [
        WaldRow(
            parameter=PARAM_NAMES[i],
            estimate=float(estimates[i]),
            se=float(f.se[i]),
            ci_low=float(f.ci_low[i]),
            ci_high=float(f.ci_high[i]),
            p_value=float(f.p_value[i]),
        )
        for i in range(3)
    ]
