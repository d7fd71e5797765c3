"""Correctness checks on workload outputs.

Each check recomputes a property the method must have from the outputs the
program returned or wrote, and raises `CheckError` when it does not hold.
None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# columns of a trials_n<N>.csv row
T, D_N, JOINT, Z_ONLY, SIGMA_ONLY = 1, 2, 4, 5, 6

SLOPE_RANGE = (-0.65, -0.35)
# How many standard errors of the fitted slope the slope may lie outside
# SLOPE_RANGE.  The seed-to-seed spread of the slope at the benchmark's trial
# counts is comparable to the distance from its mean to the range edge, so a
# bare range test would fail a correct program on some seeds.
SLOPE_SIGMAS = 4.0
POISSON_SIGMAS = 5.0
MASS_TOL = 1e-10
MIRROR_TOL = 1e-10
STATIONARY_L1_TOL = 1e-6


class CheckError(AssertionError):
    """An output breaks a property the method guarantees."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_poisson_count(count: int, mean: float, what: str) -> None:
    """An event total of a rate-n clock lies within 5 sd of its Poisson mean."""
    require(
        abs(count - mean) <= POISSON_SIGMAS * math.sqrt(mean),
        f"{what}: {count} events, Poisson mean {mean:.1f}",
    )


def check_trials(data: np.ndarray, n: int, trials: int, times: tuple[float, ...]) -> int:
    """Check one trials_n<N>.csv table; returns the event total up to the horizon."""
    rows = len(times)
    require(data.shape[0] == trials * rows, f"n={n}: {data.shape[0]} rows, expected {trials * rows}")
    table = data.reshape(trials, rows, data.shape[1])
    require(
        np.allclose(table[:, :, T], np.asarray(times)[None, :], rtol=0, atol=1e-9),
        f"n={n}: snapshot times differ from {times}",
    )
    d = table[:, :, D_N]
    require(bool(np.all((d >= 0.0) & (d <= 1.0))), f"n={n}: d_n outside [0, 1]")
    require(bool(np.all(np.diff(d, axis=1) >= 0.0)), f"n={n}: d_n decreases along a trial")
    require(
        bool(np.all(table[:, :, SIGMA_ONLY] <= table[:, :, Z_ONLY])),
        f"n={n}: sigma_only_count exceeds z_only_count",
    )
    events = int(table[:, -1, JOINT].sum() + table[:, -1, Z_ONLY].sum())
    check_poisson_count(events, trials * n * times[-1], f"n={n}, {trials} trials")
    return events


def fitted_slope(n_values, means, stderrs) -> tuple[float, float]:
    """Least-squares slope of log mean d_n against log(n-1), with its standard error.

    The standard error propagates each size's standard error of the mean
    through the log (delta method) into the least-squares weights.
    """
    x = np.log(np.asarray(n_values, dtype=float) - 1.0)
    means = np.asarray(means, dtype=float)
    require(bool(np.all(means > 0.0)), f"a mean decoupled fraction is not positive: {means}")
    slope = float(np.polyfit(x, np.log(means), 1)[0])
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    se = float(np.sqrt(np.sum((w * np.asarray(stderrs, dtype=float) / means) ** 2)))
    return slope, se


def check_slope(slope: float, se: float) -> None:
    lo, hi = SLOPE_RANGE
    outside = max(lo - slope, slope - hi, 0.0)
    require(
        outside <= SLOPE_SIGMAS * se,
        f"fitted slope {slope:.3f} (se {se:.3f}) lies outside [{lo}, {hi}] by more than "
        f"{SLOPE_SIGMAS:g} standard errors",
    )


def check_density(values: np.ndarray, dx: float, dv: float, t: float) -> None:
    """Unit mass, no negative values, and the mirror symmetry f(x, v) = f(1-x, -v)."""
    mass = float(values.sum()) * dx * dv
    require(abs(mass - 1.0) <= MASS_TOL, f"t={t}: mass {mass!r} is not 1")
    require(float(values.min()) >= 0.0, f"t={t}: negative density {values.min()!r}")
    # cell i of nx mirrors to nx-1-i, and v-cell k of the symmetric v-grid to nv-1-k
    gap = float(np.abs(values - values[::-1, ::-1]).max())
    require(gap <= MIRROR_TOL, f"t={t}: mirror symmetry broken by {gap!r}")


def check_stationary(values: np.ndarray, initial: np.ndarray, dx: float, dv: float, t: float) -> None:
    """Uniform data is an exact stationary solution: f(t) stays at f(0)."""
    l1 = float(np.abs(values - initial).sum()) * dx * dv
    require(l1 <= STATIONARY_L1_TOL, f"t={t}: uniform solution drifted {l1!r} in L1")


def check_same_arrays(cold: dict[str, np.ndarray], warm: dict[str, np.ndarray]) -> None:
    """A cache load returns exactly what the solve computed."""
    require(cold.keys() == warm.keys(), "cold and warm solutions hold different fields")
    for key in cold:
        require(
            cold[key].shape == warm[key].shape and np.array_equal(cold[key], warm[key]),
            f"warm cache load differs from the cold solve in {key}",
        )


def check_events(times: np.ndarray, focal: np.ndarray, partner: np.ndarray, n: int, horizon: float) -> None:
    """The event log of one trajectory of the rate-n clock."""
    check_poisson_count(len(times), n * horizon, f"simulate n={n}")
    require(len(focal) == len(times) and len(partner) == len(times), "event columns differ in length")
    if len(times):
        require(float(times[0]) > 0.0 and float(times[-1]) <= horizon, "event time outside (0, T]")
        require(bool(np.all(np.diff(times) > 0.0)), "event times do not increase")
    require(bool(np.all(focal != partner)), "a focal particle is its own partner")
    require(bool(np.all((focal >= 0) & (focal < n) & (partner >= 0) & (partner < n))), "particle index out of range")


def check_atoms(velocities: np.ndarray, atoms: np.ndarray) -> None:
    """Jumps copy velocities, so only the initial velocity atoms can appear."""
    require(bool(np.all(np.isin(velocities, atoms))), "a velocity outside the initial atoms appears")
