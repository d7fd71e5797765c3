"""Deterministic solver for the limit kinetic equation on the 1-torus.

The unknown is a phase-space density f(x, v, t) stored as cell averages on a
periodic x-grid times a bounded v-grid.  Free streaming and velocity
redistribution are composed by Strang splitting:

    transport dt/2  ->  collision dt (explicit)  ->  transport dt/2

Transport is semi-Lagrangian (exact shift with periodic wrap and linear
interpolation, which is conservative and positivity-preserving).  The
collision step relaxes f toward the gain term

    G[x][v] = rho[x] * sum_y K(m(x, dist(x, y))) f[y][v] dx,

where m(x, r) is the mass of the closed torus ball of radius r under the
spatial density rho.  Because the kernel integrates to one, the y-integral
of K(m(x, |x-y|)) rho(y) is identically 1 in the continuum (coarea), so the
collision redistributes velocities without moving mass in x; on the grid the
defect of that identity is the midpoint-quadrature residual, which
`coarea_check` exposes and which shrinks at least linearly under refinement.

The velocity domain is truncated to [-v_max, v_max]: the gain term is an
integral over y at fixed v, so no mass is ever created outside the initial
velocity support.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .initial import InitialLaw
from .kernels import Kernel

# part of the kinetic cache key: bump it whenever a change can alter the output
SOLVER_VERSION = 2

_MASS_TOL = 1e-10
_NEGATIVITY_TOL = -1e-12


class SolverInstabilityError(RuntimeError):
    """Raised when the collision step produces genuinely negative values."""


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform periodic x-grid on [0,1) times a bounded v-grid on [-v_max, v_max]."""

    nx: int
    nv: int
    v_max: float

    def __post_init__(self) -> None:
        if self.nx < 2 or self.nv < 1 or self.v_max <= 0:
            raise ValueError("grid needs nx >= 2, nv >= 1, v_max > 0")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / self.nv

    @property
    def x_centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def x_edges(self) -> np.ndarray:
        return np.arange(self.nx + 1) * self.dx

    @property
    def v_centers(self) -> np.ndarray:
        return -self.v_max + (np.arange(self.nv) + 0.5) * self.dv

    @property
    def v_edges(self) -> np.ndarray:
        return -self.v_max + np.arange(self.nv + 1) * self.dv


@dataclass
class GridDensity:
    """Cell-averaged nonnegative phase-space density with unit total mass."""

    grid: PhaseGrid
    values: np.ndarray
    t: float = 0.0
    renorm_drift: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.nx, self.grid.nv):
            raise ValueError(f"values shape {values.shape} != grid ({self.grid.nx}, {self.grid.nv})")
        self.values = values

    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.dx * self.grid.dv

    def density(self) -> np.ndarray:
        """Spatial density rho[x] = sum_v f[x][v] dv."""
        return self.values.sum(axis=1) * self.grid.dv

    def copy(self) -> "GridDensity":
        return GridDensity(self.grid, self.values.copy(), self.t, self.renorm_drift)

    def check(self) -> None:
        if np.any(self.values < _NEGATIVITY_TOL):
            raise SolverInstabilityError(f"negative density down to {self.values.min()}")
        if abs(self.mass() - 1.0) > _MASS_TOL:
            raise SolverInstabilityError(f"total mass {self.mass()} deviates beyond {_MASS_TOL}")


def initial_density(law: InitialLaw, grid: PhaseGrid) -> GridDensity:
    """Bin a product initial law onto the grid (exact cell masses)."""
    if law.d != 1:
        raise ValueError("the grid solver is one-dimensional")
    pos_mass = law.positions[0].cell_masses(grid.x_edges)
    vel_mass = law.velocity.cell_masses(grid.v_edges)
    values = np.outer(pos_mass, vel_mass) / (grid.dx * grid.dv)
    return GridDensity(grid, values, t=0.0)


def edge_cdf(rho: np.ndarray, dx: float) -> np.ndarray:
    """Periodic CDF of a piecewise-constant spatial density at its nx + 1 cell edges."""
    return np.concatenate([[0.0], np.cumsum(rho) * dx])


class MassFunction:
    """Cumulative ball masses of a piecewise-constant spatial density.

    Holds the CDF of rho at the uniform cell edges of the unit torus (see
    `edge_cdf`); the mass of the closed ball of radius r around any center
    is CDF(center+r) - CDF(center-r), evaluated exactly for the
    piecewise-constant density (linear interpolation between edges).  Radii
    are capped at 1/2, where the ball covers the whole torus.
    """

    def __init__(self, edge_cdf: np.ndarray):
        self.edge_cdf = edge_cdf
        self.total = float(edge_cdf[-1])

    def _cdf(self, u: np.ndarray) -> np.ndarray:
        # the edges are uniform, so the bracketing cell is index arithmetic
        nx = self.edge_cdf.size - 1
        k = np.floor(u)
        pos = (u - k) * nx
        i0 = np.minimum(pos.astype(np.int64), nx - 1)
        frac = pos - i0
        return (1.0 - frac) * self.edge_cdf[i0] + frac * self.edge_cdf[i0 + 1] + k * self.total

    def ball_mass(self, center, radius) -> np.ndarray:
        """Mass of the closed ball; broadcasts over centers and radii."""
        center = np.asarray(center, dtype=float)
        r = np.minimum(np.asarray(radius, dtype=float), 0.5)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        return self._cdf(center + r) - self._cdf(center - r)

    def center_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Views A, B whose difference is the table M[i, k] = m(x_i, k dx), k <= nx // 2."""
        nx = self.edge_cdf.size - 1
        h = nx // 2
        # x_i +- k dx is a cell center: M[i, k] = C[i+k] - C[i-k] for the CDF C there
        centers = (np.arange(-h, nx + h) + 0.5) * (1.0 / nx)
        windows = np.lib.stride_tricks.sliding_window_view(self._cdf(centers), h + 1)
        return windows[h:h + nx], windows[:nx, ::-1]


def ball_mass_between(
    cdf_lo: list[float], cdf_hi: list[float], w: float, center: float, radius: float
) -> float:
    """``MassFunction((1 - w) * cdf_lo + w * cdf_hi).ball_mass(center, radius)`` for one ball.

    Interpolates in time only the edge-CDF entries the ball reads (two around
    each of center +- r, and the total) and follows `MassFunction._cdf`'s
    operation order, so the result has the same bits.  The edge CDFs are
    lists, so nothing here calls numpy.
    """
    r = min(radius, 0.5)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    nx = len(cdf_lo) - 1
    v = 1.0 - w
    total = v * cdf_lo[-1] + w * cdf_hi[-1]

    def cdf(u: float) -> float:
        k = math.floor(u)
        pos = (u - k) * nx
        i0 = min(int(pos), nx - 1)
        frac = pos - i0
        left = v * cdf_lo[i0] + w * cdf_hi[i0]
        right = v * cdf_lo[i0 + 1] + w * cdf_hi[i0 + 1]
        return (1.0 - frac) * left + frac * right + k * total

    return cdf(center + r) - cdf(center - r)


def gain_weights(mass_fn: MassFunction, grid: PhaseGrid, kernel: Kernel, weights=None) -> np.ndarray:
    """Quadrature matrix W[i, j] = K(m(x_i, dist(x_i, x_j))) * dx, over ``weights`` if given.

    dist is k <= nx // 2 whole cells, so row i of W is the nx-periodic row
    P_i[m] = half[i, min(m, nx - m)] turned right by i, for half = K(M) dx and
    M of `MassFunction.center_windows`.  W is written by blocks of rows, each
    read from a block of P with a view that starts one column further left
    on each row; half and P are held for one block only.
    """
    nx, width = grid.nx, grid.nx // 2 + 1
    block = min(nx, max(1, (1 << 15) // nx))  # so a block of rows, about 256 kB, stays in cache
    weights = np.empty((nx, nx)) if weights is None else weights
    half_rows, rows_buf = np.empty((block, width)), np.empty((block, block + nx))
    skew = (rows_buf.strides[0] - rows_buf.itemsize, rows_buf.itemsize)
    outer, inner = mass_fn.center_windows()
    for a in range(0, nx, block):
        b = min(a + block, nx)
        half = np.subtract(outer[a:b], inner[a:b], out=half_rows[: b - a])
        kernel(half, out=half)
        half *= grid.dx
        rows = rows_buf[: b - a]  # rows[r, c] = P_{a+r}[(c - block) mod nx]
        rows[:, block : block + width] = half
        rows[:, block + width :] = half[:, nx - width : 0 : -1]
        rows[:, :block] = rows[:, nx:]
        # W[a + r, j] = rows[r, block + (j - a - r) mod nx], for j >= a and then j < a
        for lo, hi, col in ((a, nx, block), (0, a, block + nx - a)):
            weights[a:b, lo:hi] = as_strided(rows[:, col:], (b - a, hi - lo), skew)  # read only
    return weights


def gain(f: GridDensity, kernel: Kernel, weights: np.ndarray | None = None) -> np.ndarray:
    """Gain term G[x][v] of the collision operator for the current density."""
    rho = f.density()
    weights = gain_weights(MassFunction(edge_cdf(rho, f.grid.dx)), f.grid, kernel, weights)
    return rho[:, None] * (weights @ f.values)


def coarea_check(f: GridDensity, kernel: Kernel) -> np.ndarray:
    """Signed per-x defect of the discrete coarea identity sum_y K(m(x,d)) rho(y) dx = 1.

    Uses the same quadrature as `gain`, so rho times this residual is exactly
    the spurious spatial mass flux of one collision application.
    """
    rho = f.density()
    weights = gain_weights(MassFunction(edge_cdf(rho, f.grid.dx)), f.grid, kernel)
    return weights @ rho - 1.0


def transport(values: np.ndarray, grid: PhaseGrid, dt: float) -> np.ndarray:
    """Exact periodic shift of every velocity row by v*dt with linear interpolation."""
    out = np.empty_like(values)
    shifts = grid.v_centers * dt / grid.dx
    whole = np.floor(shifts).astype(int)
    frac = shifts - whole
    for col in range(grid.nv):
        rolled = np.roll(values[:, col], whole[col])
        out[:, col] = (1.0 - frac[col]) * rolled + frac[col] * np.roll(values[:, col], whole[col] + 1)
    return out


def step(f: GridDensity, kernel: Kernel, dt: float, weights=None) -> GridDensity:
    """One Strang step; returns a new density at time t + dt.

    The collision substep is the convex combination (1-dt) f + dt G, so
    nonnegativity is preserved for dt <= 1.  A single multiplicative
    renormalization repairs the quadrature mass drift; its magnitude is
    recorded on the result as ``renorm_drift``.  ``weights`` goes to `gain`.
    """
    if not 0.0 < dt <= 1.0:
        raise ValueError(f"collision substep needs 0 < dt <= 1, got {dt}")
    values = transport(f.values, f.grid, 0.5 * dt)
    values = values + dt * (gain(GridDensity(f.grid, values), kernel, weights) - values)
    if values.min() < _NEGATIVITY_TOL:
        raise SolverInstabilityError(f"collision produced negative values down to {values.min()}")
    np.maximum(values, 0.0, out=values)
    values = transport(values, f.grid, 0.5 * dt)
    total = values.sum() * f.grid.dx * f.grid.dv
    values /= total
    return GridDensity(f.grid, values, t=f.t + dt, renorm_drift=abs(total - 1.0))


@dataclass
class KineticSolution:
    """Snapshots of the solved equation, linearly interpolable in time."""

    grid: PhaseGrid
    times: np.ndarray
    snapshots: list[GridDensity]
    drift_total: float = 0.0

    def __post_init__(self) -> None:
        self._times = np.asarray(self.times, dtype=float).tolist()

    def bracket(self, t: float) -> tuple[int, int, float]:
        """Snapshot indices around t and the weight of the upper one.

        On a stored time ``lo == hi`` and ``w == 0``: that snapshot, exactly.
        The times are bisected as a list, which costs no numpy call.
        """
        times = self._times
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise ValueError(f"time {t} outside stored range [{times[0]}, {times[-1]}]")
        t = min(max(t, times[0]), times[-1])
        idx = bisect_left(times, t)
        if times[idx] == t:
            return idx, idx, 0.0
        return idx - 1, idx, (t - times[idx - 1]) / (times[idx] - times[idx - 1])

    def values_at(self, t: float) -> np.ndarray:
        """Phase-space density at time t (linear interpolation between snapshots)."""
        lo, hi, w = self.bracket(t)
        return (1.0 - w) * self.snapshots[lo].values + w * self.snapshots[hi].values


def solve(
    f0: GridDensity,
    kernel: Kernel,
    horizon: float,
    dt: float,
    snapshot_times: tuple[float, ...] | np.ndarray,
) -> KineticSolution:
    """March f0 to the horizon, emitting snapshots at the requested times.

    Snapshot times (and the horizon) must sit on the dt-grid so that a run is
    bitwise independent of which snapshots are requested.  Its steps share one W.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n_steps = int(round(horizon / dt)) if horizon > 0 else 0
    if abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a multiple of dt={dt}")
    wanted: dict[int, float] = {}
    for s in snapshot_times:
        k = int(round(s / dt))
        if abs(k * dt - s) > 1e-9 or not 0 <= k <= n_steps:
            raise ValueError(f"snapshot time {s} not on the dt-grid within [0, {horizon}]")
        wanted[k] = float(s)

    f0.check()
    weights = np.empty((f0.grid.nx, f0.grid.nx))  # refilled by every step
    current = f0.copy()
    times: list[float] = []
    snaps: list[GridDensity] = []
    drift = 0.0
    if 0 in wanted:
        times.append(wanted[0])
        snaps.append(current.copy())
    for k in range(1, n_steps + 1):
        current = step(current, kernel, dt, weights)
        current.t = k * dt
        drift += current.renorm_drift
        current.check()
        if k in wanted:  # stored at the requested time; the march keeps k * dt
            times.append(wanted[k])
            snaps.append(GridDensity(f0.grid, current.values.copy(), wanted[k], current.renorm_drift))
    if not snaps:
        times.append(current.t)
        snaps.append(current.copy())
    return KineticSolution(f0.grid, np.asarray(times), snaps, drift_total=drift)


def l1_distance(a: GridDensity, b: GridDensity) -> float:
    """L1 phase-space distance between two densities on the same grid."""
    if a.grid != b.grid:
        raise ValueError("densities live on different grids")
    return float(np.abs(a.values - b.values).sum()) * a.grid.dx * a.grid.dv
