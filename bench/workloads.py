"""Workload definitions: cohort parameters, seeded inputs and CLI command lists.

Inputs are drawn with plain numpy from the benchmark seed; pwsurv only ever
sees the files written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The ten reference fits (theta, shape, scale), as in tests/cohorts.py.
DEFAULT_COHORTS = {
    "2006": (2.9149, 2.7082, 0.2223),
    "2007": (1.4644, 2.7189, 0.2269),
    "2008": (1.1361, 2.7973, 0.3315),
    "2009": (0.3677, 2.9223, 0.4400),
    "2010": (0.9736, 3.4099, 0.4495),
}
RECOVERY_COHORTS = {
    "2007": (0.2861, 1.1687, 13.2155),
    "2008": (0.3418, 1.1430, 14.3917),
    "2009": (1.4607, 1.0082, 44.4901),
    "2010": (3.0614, 1.0647, 81.3458),
    "2011": (0.8044, 1.2417, 24.2691),
}
HORIZON = 24.0

# Records per cohort.
DEFAULT_N = 10_000
RECOVERY_N = 40_000
SIMULATE_N = 30_000

HEADER = "time,event,cohort\n"


@dataclass(frozen=True)
class Cohort:
    label: str
    kind: str  # "zt" or "ptm"
    params: tuple[float, float, float]
    times: np.ndarray
    events: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    commands: list[list[str]]  # pwsurv argument lists, run in order
    records: int  # input or output records the commands handle, summed over commands
    cohorts: list[Cohort]  # generated inputs (empty for simulate-portfolio)
    files: dict[str, Path]  # named input and output paths


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _latent_minimum(rng, counts: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Minimum of M iid Weibull times, via min of M Exp(1) draws = Exp(1)/M."""
    return scale * (rng.standard_exponential(counts.size) / counts) ** (1.0 / shape)


def draw_zt(seed: int, index: int, params, n: int) -> np.ndarray:
    """n continuous zero-truncated event times (all observed)."""
    theta, shape, scale = params
    rng = _rng(seed, 1, index)
    counts = rng.poisson(theta, n)
    zero = counts == 0
    while np.any(zero):  # rejection keeps exactly the M >= 1 draws
        counts[zero] = rng.poisson(theta, int(zero.sum()))
        zero = counts == 0
    return _latent_minimum(rng, counts, shape, scale)


def draw_ptm_monthly(seed: int, index: int, params, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n promotion-time records censored at HORIZON, event times rounded up to whole months."""
    theta, shape, scale = params
    rng = _rng(seed, 2, index)
    counts = rng.poisson(theta, n)
    times = np.full(n, math.inf)
    cause = counts > 0
    times[cause] = _latent_minimum(rng, counts[cause], shape, scale)
    events = (times <= HORIZON).astype(np.int64)
    months = np.where(events == 1, np.ceil(times), HORIZON)
    return months, events


def write_input(path: Path, cohorts: list[Cohort]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(HEADER)
        for c in cohorts:
            handle.writelines(
                f"{t!r},{int(d)},{c.label}\n" for t, d in zip(c.times.tolist(), c.events.tolist())
            )


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs under workdir and list its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "default-continuous":
        cohorts = []
        for i, (label, p) in enumerate(DEFAULT_COHORTS.items()):
            times = draw_zt(seed, i, p, DEFAULT_N)
            cohorts.append(Cohort(label, "zt", p, times, np.ones(times.size, np.int64)))
        files = {
            "input": workdir / "input.csv",
            "fit": workdir / "fit.json",
            "km": workdir / "km.csv",
        }
        write_input(files["input"], cohorts)
        commands = [
            ["fit", "--input", str(files["input"]), "--format", "json", "--out", str(files["fit"])],
            ["km", "--input", str(files["input"]), "--out", str(files["km"])],
        ]
        return Workload(name, commands, 2 * DEFAULT_N * len(cohorts), cohorts, files)
    if name == "recovery-monthly":
        cohorts = [
            Cohort(label, "ptm", p, *draw_ptm_monthly(seed, i, p, RECOVERY_N))
            for i, (label, p) in enumerate(RECOVERY_COHORTS.items())
        ]
        files = {
            "input": workdir / "input.csv",
            "fit": workdir / "fit.json",
            "report": workdir / "report.txt",
        }
        write_input(files["input"], cohorts)
        h = f"{HORIZON:g}"
        commands = [
            ["fit", "--input", str(files["input"]), "--format", "json", "--horizon", h,
             "--out", str(files["fit"])],
            ["report", "--input", str(files["input"]), "--horizon", h, "--out", str(files["report"])],
        ]
        return Workload(name, commands, 2 * RECOVERY_N * len(cohorts), cohorts, files)
    if name == "simulate-portfolio":
        sets = [("zt", f"default-{k}", p, "inf") for k, p in DEFAULT_COHORTS.items()]
        sets += [("ptm", f"recovery-{k}", p, f"{HORIZON:g}") for k, p in RECOVERY_COHORTS.items()]
        files, commands = {}, []
        for i, (kind, label, (theta, shape, scale), horizon) in enumerate(sets):
            files[label] = workdir / f"{label}.csv"
            commands.append([
                "simulate", "--model", kind, "--theta", repr(theta), "--shape", repr(shape),
                "--scale", repr(scale), "--n", str(SIMULATE_N), "--horizon", horizon,
                "--seed", str(seed * 100 + i), "--cohort", label, "--out", str(files[label]),
            ])
        return Workload(name, commands, SIMULATE_N * len(sets), [], files)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("default-continuous", "recovery-monthly", "simulate-portfolio")
