"""Correctness checks on the files the pwsurv commands wrote.

Every check compares against reference.py or against a property the method
must have; none compares against a stored copy of earlier output. Each
function returns a list of error messages, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import stats

import reference as ref
from workloads import HEADER, HORIZON, SIMULATE_N, Workload

# Share of an SE by which each estimate is moved to probe that the fit is a maximum.
PERTURB_SE = 0.5
# Estimates on correctly specified data must lie within this many SEs of the truth.
RECOVERY_SES = 5.0
# Relative tolerance between reported SEs and the finite-difference reference.
SE_RTOL = 0.01
# Significance of the per-file sampler tests: a correct sampler fails a ten-file
# run less than once in 1e4 seeds.
SAMPLER_ALPHA = 1e-6
SAMPLER_Z = 5.0


def _loglik_fn(cohort):
    if cohort.kind == "zt":
        return lambda p: ref.zt_loglik(cohort.times, *p)
    return lambda p: ref.ptm_loglik(cohort.times, cohort.events, *p)


def check_fits(path, cohorts, expect_recovery: bool) -> tuple[list[str], dict]:
    """Check `fit --format json`; returns the errors and each cohort's estimates."""
    errors = []
    with open(path, encoding="utf-8") as handle:
        fits = {f["cohort"]: f for f in json.load(handle)["fits"]}
    if sorted(fits) != sorted(c.label for c in cohorts):
        return [f"{path.name}: cohorts {sorted(fits)} do not match the input"], {}
    estimates = {}
    for c in cohorts:
        f = fits[c.label]
        where = f"{path.name} cohort {c.label}"
        if f["model"] != c.kind or not f["converged"]:
            errors.append(f"{where}: model {f['model']}, converged {f['converged']}")
            continue
        est = np.array([f["estimates"][k] for k in ("theta", "shape", "scale")])
        se = np.array([row["se"] for row in f["parameters"]])
        estimates[c.label] = est
        loglik = _loglik_fn(c)
        reported = f["loglik"]
        tol = 1e-9 * (1.0 + abs(reported))
        at_estimate = loglik(est)
        if abs(at_estimate - reported) > tol:
            errors.append(f"{where}: reference loglik {at_estimate!r} != reported {reported!r}")
        probes = [("generating parameters", np.array(c.params))]
        for j in range(3):
            for sign in (-1.0, 1.0):
                p = est.copy()
                p[j] += sign * PERTURB_SE * se[j]
                if p[j] > 0.0:
                    probes.append((f"estimate {sign * PERTURB_SE:+g} SE on coordinate {j}", p))
        for label, p in probes:
            if loglik(p) > reported + tol:
                errors.append(f"{where}: loglik at {label} exceeds the reported maximum")
        se_ref = np.sqrt(np.diag(np.linalg.inv(ref.fd_information(loglik, est))))
        if np.any(np.abs(se / se_ref - 1.0) > SE_RTOL):
            errors.append(f"{where}: SE {se.tolist()} vs finite-difference {se_ref.tolist()}")
        if expect_recovery and np.any(np.abs(est - np.array(c.params)) > RECOVERY_SES * se):
            errors.append(f"{where}: estimate {est.tolist()} is over {RECOVERY_SES} SE from {c.params}")
    return errors, estimates


def check_km(path, cohorts) -> list[str]:
    """Check `km` curves against the reference product-limit curve and the ECDF."""
    errors = []
    rows: dict[str, list[tuple[float, float]]] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != ["cohort", "t", "km"]:
            return [f"{path.name}: bad header"]
        for label, t, s in reader:
            rows.setdefault(label, []).append((float(t), float(s)))
    if sorted(rows) != sorted(c.label for c in cohorts):
        return [f"{path.name}: cohorts {sorted(rows)} do not match the input"]
    for c in cohorts:
        got = np.array(rows[c.label])
        times, surv, _, _ = ref.product_limit(c.times, c.events)
        want_t = np.concatenate(([0.0], times))
        want_s = np.concatenate(([1.0], surv))
        if got.shape != (want_t.size, 2) or not np.array_equal(got[:, 0], want_t):
            errors.append(f"{path.name} cohort {c.label}: step times differ from the reference")
            continue
        if np.max(np.abs(got[:, 1] - want_s)) > 1e-12:
            errors.append(f"{path.name} cohort {c.label}: survival differs from the reference")
        if np.all(c.events == 1):
            ecdf = np.searchsorted(np.sort(c.times), times, side="right") / c.times.size
            if np.max(np.abs(1.0 - got[1:, 1] - ecdf)) > 1e-9:
                errors.append(f"{path.name} cohort {c.label}: 1 - S differs from the ECDF")
    return errors


def _table_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("cohort  theta-default"))
    header = lines[start]
    names = ["cohort", "theta-default", "theta-recovery", "observed LGD%", "ELGD%", "fit"]
    cuts = [header.index(n) for n in names] + [None]
    return [
        {n: line[cuts[k]:cuts[k + 1]].strip() for k, n in enumerate(names)}
        for line in lines[start + 1:]
        if line.strip()
    ]


def check_report(path, cohorts, estimates: dict) -> list[str]:
    """Check the `report` summary table against the fit estimates and the reference curve."""
    errors = []
    rows = {r["cohort"]: r for r in _table_rows(path.read_text(encoding="utf-8"))}
    if sorted(rows) != sorted(c.label for c in cohorts):
        return [f"{path.name}: table cohorts {sorted(rows)} do not match the input"]
    for c in cohorts:
        r = rows[c.label]
        where = f"{path.name} cohort {c.label}"
        if r["fit"] != "ok" or c.label not in estimates:
            errors.append(f"{where}: fit column {r['fit']!r}")
            continue
        theta, shape, scale = estimates[c.label]
        elgd = 100.0 * math.exp(-theta * float(ref.weibull_cdf(HORIZON, shape, scale)))
        times, surv, _, _ = ref.product_limit(c.times, c.events)
        observed = 100.0 * ref.step_value(times, surv, HORIZON)
        for column, want, half_ulp in (
            ("theta-recovery", theta, 5e-5),
            ("ELGD%", elgd, 5e-4),
            ("observed LGD%", observed, 5e-4),
        ):
            if abs(float(r[column]) - want) > half_ulp * (1.0 + 1e-9):
                errors.append(f"{where}: {column} {r[column]} vs reference {want:.6f}")
    return errors


def check_simulated(workload: Workload) -> list[str]:
    """Check each simulated file's layout, censoring and event-time distribution."""
    errors = []
    for cmd, (label, path) in zip(workload.commands, workload.files.items()):
        opts = dict(zip(cmd[1::2], cmd[2::2]))
        theta, shape, scale = (float(opts[k]) for k in ("--theta", "--shape", "--scale"))
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != HEADER.rstrip("\n").split(","):
                errors.append(f"{path.name}: bad header")
                continue
            rows = list(reader)
        if len(rows) != SIMULATE_N or any(r[2] != label for r in rows):
            errors.append(f"{path.name}: {len(rows)} rows or wrong cohort label")
            continue
        times = np.array([float(r[0]) for r in rows])
        events = np.array([int(r[1]) for r in rows])
        if opts["--model"] == "zt":
            if not np.all(events == 1):
                errors.append(f"{path.name}: zero-truncated file has censored rows")
                continue
            cdf, args = ref.zt_cdf, (theta, shape, scale)
        else:
            censored = events == 0
            if np.any(times[censored] != HORIZON) or np.any(times[~censored] > HORIZON):
                errors.append(f"{path.name}: censoring is not exactly at the horizon")
                continue
            p = float(ref.ptm_survival(HORIZON, theta, shape, scale))
            n = times.size
            if abs(censored.sum() - n * p) > SAMPLER_Z * math.sqrt(n * p * (1.0 - p)):
                errors.append(f"{path.name}: censored share {censored.mean():.4f} vs model {p:.4f}")
            times = times[~censored]
            cdf, args = ref.ptm_conditional_cdf, (theta, shape, scale, HORIZON)
        pvalue = stats.kstest(times, cdf, args=args).pvalue
        if pvalue < SAMPLER_ALPHA:
            errors.append(f"{path.name}: event times fail the KS test (p = {pvalue:.2e})")
    return errors


def check(workload: Workload) -> list[str]:
    files = workload.files
    if workload.name == "default-continuous":
        errors, _ = check_fits(files["fit"], workload.cohorts, expect_recovery=True)
        return errors + check_km(files["km"], workload.cohorts)
    if workload.name == "recovery-monthly":
        errors, estimates = check_fits(files["fit"], workload.cohorts, expect_recovery=False)
        return errors + check_report(files["report"], workload.cohorts, estimates)
    return check_simulated(workload)
