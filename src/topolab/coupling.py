"""Coupled simulation of the particle system and its kinetic reference.

Two worlds share one event clock.  The Z world is the rank-interaction jump
process; the sigma world is a system of reference particles whose jump rates
come from ball masses of the limit spatial density instead of empirical
ranks.  At every event with focal particle i:

  * partner j is drawn from the Z-world rank probabilities pi_n(i, .), so the
    Z marginal is exact by construction, whatever happens on the sigma side.
    The rank law alpha K(h/(n-1)) is fixed, so the rank h is drawn first and
    j is the Z particle of rank h around i, found in the sorted runs that the
    Z world's configuration keeps (`Configuration.partner_at_rank`; in d = 2
    by one partition);
  * with probability min(pi_n, pi_rho)/pi_n at the drawn partner both worlds
    adopt their own particle j's velocity (joint jump).  Only the two rates
    at (i, j) are needed: pi_n = alpha K(h/(n-1)) and one ball mass for
    pi_rho = alpha K(m_rho(x_i, |x_i - x_j|)) in the sigma world, both
    computed in Python floats (`pair_rates`, the references' `ball_mass`);
  * otherwise Z alone adopts v_j, and the sigma world completes its jump law
    from the full rows pi_n(i, .) and pi_rho(i, .), built on such events only:
    with the residual atom mass it adopts the velocity of a sigma-world
    partner drawn from (pi_rho - min)/residual, and with the leftover weight
    it draws a fresh velocity from the reference redistribution density at
    its own position (snapped to the velocity grid).

Both worlds store comoving coordinates u = wrap(x - v t), so streaming
between events only advances the clock; positions are materialized
(`Configuration.transported`) at snapshots and on one-sided events.  Both
worlds change velocities through `Configuration.set_velocity`.  A joint event
reads and writes a handful of Python floats and list entries, so its cost
does not grow with n in d = 1.

Pairs start identical (delta coupling).  A pair stays flagged as coupled only
while its two states (u, v) are exactly equal; any one-sided velocity change
decouples it, and decoupling is absorbing because the positions then drift
apart under free streaming.  The average decoupled fraction is the estimator
of the total-variation distance between the one-particle marginal and the
kinetic solution, and the event bookkeeping exposes the error terms (rank vs
ball-mass discrepancies, residual-mass rescalings, law-of-large-numbers gaps)
that drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import torus
from .initial import VelocityLaw
from .kernels import Kernel
from .kinetic import KineticSolution, MassFunction, PhaseGrid, ball_mass_between, edge_cdf
from .particle import Draws, categorical, empirical_marginal, run_clock
from .ranks import Configuration, draw_index, partner_distribution, rank_cdf

_RESIDUAL_TOL = -1e-12


def decoupling_bound(kernel: Kernel, n: int, t: float) -> float:
    """Proved upper bound exp(growth_constant * t) / sqrt(n - 1) for the mean decoupled fraction."""
    return math.exp(kernel.growth_constant * t) / math.sqrt(n - 1)


# -- reference dynamics ----------------------------------------------------------


class SolutionReference:
    """Kinetic reference backed by stored solver snapshots (d = 1).

    Ball masses and redistribution densities are evaluated on the snapshot
    linearly interpolated to the event time.  The spatial edge CDFs of all
    snapshots are precomputed once.  The ball mass of one pair (`ball_mass`)
    then interpolates only the few edge-CDF entries it reads, in Python
    floats; a whole row of radii (`ball_masses`) interpolates all nx + 1
    entries once.  Both give the same bits.  Histogram cell masses are kept,
    read-only, per time and edges: only `tv_estimate` asks, at snapshot times.
    """

    def __init__(self, solution: KineticSolution, kernel: Kernel):
        self.solution = solution
        self.kernel = kernel
        self.grid = solution.grid
        self._edge_cdfs = np.stack(
            [edge_cdf(snap.density(), self.grid.dx) for snap in solution.snapshots]
        )
        self._edge_lists = self._edge_cdfs.tolist()
        self._cells: dict[tuple, np.ndarray] = {}

    def mass_function(self, t: float) -> MassFunction:
        lo, hi, w = self.solution.bracket(t)
        return MassFunction((1.0 - w) * self._edge_cdfs[lo] + w * self._edge_cdfs[hi])

    def ball_mass(self, t: float, center: np.ndarray, radius: float) -> float:
        """Reference mass of the closed ball of one radius around ``center`` (1,) at time t."""
        lo, hi, w = self.solution.bracket(t)
        return ball_mass_between(
            self._edge_lists[lo], self._edge_lists[hi], w, float(center[0]), radius
        )

    def ball_masses(self, t: float, center: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """`ball_mass` for an array of radii."""
        return self.mass_function(t).ball_mass(float(center[0]), radii)

    def fresh_velocity(self, t: float, center: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw from g(u) ~ sum_y K(m(center, dist)) f[y][u] dx, snapped to the v-grid."""
        grid = self.grid
        mass_fn = self.mass_function(t)
        dist = np.abs(grid.x_centers - float(center[0]))
        dist = np.minimum(dist, 1.0 - dist)
        weights = self.kernel(mass_fn.ball_mass(float(center[0]), dist)) * grid.dx
        g = weights @ self.solution.values_at(t)
        cell = categorical(rng, g)
        return np.array([grid.v_centers[cell]])

    def cell_masses(self, t: float, x_edges: np.ndarray, v_edges: np.ndarray) -> np.ndarray:
        """Reference cell masses on a coarse histogram grid aligned with the solver grid."""
        key = (t, x_edges.tobytes(), v_edges.tobytes())
        if key not in self._cells:
            masses = self.solution.values_at(t) * (self.grid.dx * self.grid.dv)
            self._cells[key] = _aggregate_cells(masses, self.grid, x_edges, v_edges)
            self._cells[key].flags.writeable = False
        return self._cells[key]


class UniformReference:
    """Exact reference for spatially uniform data: the solution is stationary.

    With rho identically 1 the ball mass is the ball volume and the
    redistribution density is the initial velocity law itself, so this
    reference has no grid or time-stepping error.  Works in d = 1 and d = 2,
    the dimension of the velocity law.
    """

    def __init__(self, velocity_law: VelocityLaw):
        self.velocity_law = velocity_law
        self.d = velocity_law.d

    def ball_mass(self, t: float, center: np.ndarray, radius: float) -> float:
        if self.d == 1:
            return min(2.0 * radius, 1.0)
        return float(torus.uniform_ball_mass(radius, self.d))

    def ball_masses(self, t: float, center: np.ndarray, radii: np.ndarray) -> np.ndarray:
        return torus.uniform_ball_mass(radii, self.d)

    def fresh_velocity(self, t: float, center: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        idx = categorical(rng, self.velocity_law.weights)
        return self.velocity_law.atoms[idx]

    def cell_masses(self, t: float, x_edges: np.ndarray, v_edges: np.ndarray) -> np.ndarray:
        if self.d != 1:
            raise ValueError("histogram comparison is one-dimensional")
        pos = np.diff(x_edges)
        vel = self.velocity_law.cell_masses(v_edges)
        return np.outer(pos, vel)


Reference = SolutionReference | UniformReference


def _aggregate_cells(
    masses: np.ndarray, grid: PhaseGrid, x_edges: np.ndarray, v_edges: np.ndarray
) -> np.ndarray:
    """Sum fine-grid cell masses into uniform x bins that divide nx, per solver v cell.

    The transposed copy makes each bin's fine cells contiguous, so every bin
    sums in the same order as ``masses[a * k : (a + 1) * k, b].sum()``.
    """
    bins = len(x_edges) - 1
    if bins < 1 or grid.nx % bins:
        raise ValueError(f"{bins} x bins do not divide nx={grid.nx}")
    k = grid.nx // bins
    if (
        np.any(np.abs(x_edges - grid.x_edges[::k]) > 1e-9)
        or len(v_edges) != grid.nv + 1
        or np.any(np.abs(v_edges - grid.v_edges) > 1e-9)
    ):
        raise ValueError("histogram needs uniform x edges and the solver's own v edges")
    return np.ascontiguousarray(masses.T).reshape(grid.nv, bins, k).sum(axis=2).T


# -- coupled state and diagnostics -----------------------------------------------


@dataclass
class CoupledState:
    """Paired comoving configurations at time t and the per-pair identity flags."""

    z: Configuration
    sigma: Configuration
    coupled: np.ndarray
    t: float = 0.0

    @classmethod
    def delta(cls, initial: Configuration) -> "CoupledState":
        """Start both worlds from the same configuration with all pairs coupled."""
        return cls(z=initial.copy(), sigma=initial.copy(), coupled=np.ones(initial.n, dtype=bool))

    def transport(self, dt: float) -> None:
        """Free streaming for time dt: on comoving coordinates, only the clock moves."""
        self.t += dt

    def decoupled_fraction(self) -> float:
        return float(np.count_nonzero(~self.coupled)) / self.coupled.size


@dataclass
class CouplingDiagnostics:
    """Event classification counts and running error-term magnitudes."""

    joint: int = 0
    z_only: int = 0
    sigma_atom: int = 0
    fresh_draw: int = 0
    rescale_sum: float = 0.0
    partner_ranks: list = field(default_factory=list)

    @property
    def events(self) -> int:
        return self.joint + self.z_only

    def rescale_mean(self) -> float:
        return self.rescale_sum / self.events if self.events else 0.0


def pair_rates(
    state: CoupledState, kernel: Kernel, reference: Reference, alpha: float, i: int, j: int, h: int
) -> tuple[float, float]:
    """pi_n(i, j) and pi_rho(i, j) for the partner j of Z rank h around focal i.

    Both are Python floats.  The positions and the radius are computed like
    entries of the materialized sigma world and of its full distance vector,
    so pi_rho equals the full row's entry to the bit.
    """
    n = state.z.n
    x_i = state.sigma.position(i, state.t)
    radius = torus.pair_distance(state.sigma.position(j, state.t), x_i)
    pi_n = alpha * kernel(h / (n - 1))
    pi_rho = alpha * kernel(reference.ball_mass(state.t, x_i, radius))
    return pi_n, pi_rho


def coupled_event(
    state: CoupledState,
    kernel: Kernel,
    reference: Reference,
    ranks_cdf: list[float],
    draws: Draws,
    diag: CouplingDiagnostics,
    record_ranks: bool = False,
) -> None:
    """One clock ring at time ``state.t``: joint maximal-coupling jump or one-sided completion.

    ``ranks_cdf`` is `rank_cdf` for n, fixed for a trajectory; its total is
    the rate normalization 1/alpha.  The focal index, the rank and the
    joint-jump uniform come from ``draws``; a one-sided completion draws from
    ``draws.rng``.
    """
    t = state.t
    alpha = 1.0 / ranks_cdf[-1]
    i = next(draws.focals)
    h = draw_index(next(draws.uniforms), ranks_cdf)
    j = state.z.partner_at_rank(i, h, t)
    if record_ranks:
        diag.partner_ranks.append(h)

    pi_n_j, pi_rho_j = pair_rates(state, kernel, reference, alpha, i, j, h)
    v_z = state.z.velocities[j].tolist()
    if next(draws.uniforms) * pi_n_j < min(pi_n_j, pi_rho_j):
        # joint jump: both worlds adopt their particle j's velocity
        v_sigma = state.sigma.velocities[j].tolist()
        state.z.set_velocity(i, v_z, t)
        state.sigma.set_velocity(i, v_sigma, t)
        state.coupled[i] = state.coupled[i] and v_z == v_sigma
        diag.joint += 1
        return

    # Z jumps alone; any sigma-side velocity change decouples the pair
    z_now, sigma_now = state.z.transported(t), state.sigma.transported(t)
    state.z.set_velocity(i, v_z, t)
    state.coupled[i] = False
    diag.z_only += 1

    rng = draws.rng
    x_i = sigma_now.positions[i]
    pi_n = partner_distribution(z_now, kernel, i)
    radii = torus.distances_from(sigma_now.positions, x_i)
    pi_rho = alpha * kernel(reference.ball_masses(t, x_i, radii))
    pi_rho[i] = 0.0
    lam = np.minimum(pi_n, pi_rho)
    big_lambda = float(lam.sum())
    residual = pi_rho - lam
    if residual.min() < _RESIDUAL_TOL:
        raise AssertionError(f"negative residual mass {residual.min()}")
    np.maximum(residual, 0.0, out=residual)
    resid_mass = float(residual.sum())
    available = 1.0 - big_lambda

    if resid_mass >= available:
        # sigma-side atoms exceed the remaining probability: rescale and log
        diag.rescale_sum += resid_mass - available
        atom_prob = 1.0
    else:
        atom_prob = resid_mass / available if available > 0.0 else 0.0

    if resid_mass > 0.0 and rng.random() < atom_prob:
        v_sigma = state.sigma.velocities[categorical(rng, residual)].tolist()
        diag.sigma_atom += 1
    else:
        v_sigma = reference.fresh_velocity(t, x_i, rng).tolist()
        diag.fresh_draw += 1
    state.sigma.set_velocity(i, v_sigma, t)


# -- distance estimators ----------------------------------------------------------


def tv_estimate(
    config: Configuration,
    reference: Reference,
    t: float,
    x_edges: np.ndarray,
    v_edges: np.ndarray,
) -> float:
    """Half-L1 distance between the pooled particle histogram and the reference masses."""
    hist = empirical_marginal(config, x_edges, v_edges)
    ref = reference.cell_masses(t, x_edges, v_edges)
    return 0.5 * float(np.abs(hist - ref).sum())


def lln_diagnostic(config: Configuration, reference: Reference, t: float) -> float:
    """Mean gap between empirical and reference ball masses at particle 0.

    Averages |M_emp(B_r(y_0)) - M_rho(B_r(y_0))| over the balls with radii
    reaching each other particle; for i.i.d. samples of the reference spatial
    density this decays like 1/sqrt(n-1).
    """
    n = config.n
    r = torus.distances_from(config.positions, config.positions[0])[1:]
    sorted_r = np.sort(r)
    empirical = np.searchsorted(sorted_r, r, side="right") / (n - 1)
    ref = reference.ball_masses(t, config.positions[0], r)
    return float(np.mean(np.abs(empirical - ref)))


# -- marginal exactness report ------------------------------------------------------


@dataclass
class MarginalReport:
    """Two-sample comparison between the coupled Z world and the standalone process."""

    total_events: int
    rank_pvalue: float
    velocity_pvalues: dict[float, float]
    event_count_pvalue: float

    def passed(self, significance: float = 0.01) -> bool:
        return (
            self.rank_pvalue > significance
            and all(p > significance for p in self.velocity_pvalues.values())
            and self.event_count_pvalue > significance
        )


def z_marginal_report(
    kernel: Kernel,
    law,
    n: int,
    horizon: float,
    trials: int,
    reference: Reference,
    seed: int,
    probe_times: tuple[float, ...] = (0.5, 1.0),
    tail_rank: int | None = None,
) -> MarginalReport:
    """Distributional comparison of the coupled Z component with the plain simulator.

    The Z marginal is exact by construction (the partner is drawn from the
    rank probabilities before any coupling decision), so this is a check of
    the implementation: partner-rank frequencies, positive-velocity counts
    at the probe times, and per-trial event counts are compared.  Ranks past
    ``tail_rank`` are merged into one bucket because the kernel weight
    vanishes toward the top rank.

    Both runs of a trial start from the same initial configuration, so each
    trial gives one paired difference of positive-velocity counts (coupled
    minus standalone) per probe time, and a paired t-test asks whether their
    mean is 0.  The signs within one trajectory are correlated (jumps copy
    velocities), but the trials are i.i.d., so the test keeps its level.
    """
    from scipy import stats

    from .initial import sample_initial
    from .particle import simulate

    coupled_ranks, standalone_ranks = [], []
    coupled_counts, standalone_counts = [], []
    coupled_plus: dict[float, list[int]] = {t: [] for t in probe_times}
    standalone_plus: dict[float, list[int]] = {t: [] for t in probe_times}
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial, 0)))
        initial = sample_initial(law, n, np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1)))
        rec = run_coupled_trial(
            kernel, reference, initial, horizon, rng, probe_times,
            record_ranks=True, record_z_snapshots=True,
        )
        coupled_ranks.append(rec.partner_ranks)
        coupled_counts.append(rec.event_count)
        for t in probe_times:
            coupled_plus[t].append(int(np.sum(rec.z_snapshots[t].velocities > 0)))

        rng2 = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial, 2)))
        traj = simulate(
            kernel, initial, horizon, rng2, probe_times, record_events=False, record_ranks=True
        )
        standalone_ranks.append(traj.event_rank)
        standalone_counts.append(traj.event_count)
        for t in probe_times:
            standalone_plus[t].append(int(np.sum(traj.snapshots[t].velocities > 0)))

    a = np.bincount(np.concatenate(coupled_ranks), minlength=n)[1:]
    b = np.bincount(np.concatenate(standalone_ranks), minlength=n)[1:]
    cut = tail_rank if tail_rank is not None else max(2, int(0.8 * (n - 1)))
    table = np.stack(
        [np.concatenate([a[:cut], [a[cut:].sum()]]), np.concatenate([b[:cut], [b[cut:].sum()]])]
    )
    rank_pvalue = float(stats.chi2_contingency(table).pvalue)

    velocity_pvalues = {}
    for t in probe_times:
        diff = np.subtract(coupled_plus[t], standalone_plus[t])
        # identical counts in every trial leave nothing to reject (the t statistic is 0/0)
        velocity_pvalues[t] = float(stats.ttest_1samp(diff, 0.0).pvalue) if diff.any() else 1.0

    count_pvalue = float(stats.mannwhitneyu(coupled_counts, standalone_counts).pvalue)
    return MarginalReport(
        total_events=int(sum(coupled_counts) + sum(standalone_counts)),
        rank_pvalue=rank_pvalue,
        velocity_pvalues=velocity_pvalues,
        event_count_pvalue=count_pvalue,
    )


# -- trial runner -----------------------------------------------------------------


@dataclass
class TrialRecord:
    """Snapshot time series of one coupled trajectory."""

    times: np.ndarray
    d_n: np.ndarray
    tv: np.ndarray
    lln: np.ndarray
    joint: np.ndarray
    z_only: np.ndarray
    sigma_only: np.ndarray
    fresh: np.ndarray
    rescale_mean: np.ndarray
    event_count: int
    partner_ranks: np.ndarray
    z_snapshots: dict[float, Configuration] | None = None


def run_coupled_trial(
    kernel: Kernel,
    reference: Reference,
    initial: Configuration,
    horizon: float,
    rng: np.random.Generator,
    snapshot_times: tuple[float, ...],
    tv_edges: tuple[np.ndarray, np.ndarray] | None = None,
    record_ranks: bool = False,
    record_z_snapshots: bool = False,
) -> TrialRecord:
    """One coupled trajectory from the delta coupling, sampled at snapshot times.

    ``tv_edges`` holds the (x, v) histogram edges of `tv_estimate`; without
    them the TV column is NaN.
    """
    ranks_cdf = rank_cdf(kernel, initial.n)
    state = CoupledState.delta(initial)
    draws = Draws(rng, initial.n)
    diag = CouplingDiagnostics()
    rows: list[tuple] = []
    z_snapshots: dict[float, Configuration] = {}

    def snapshot(s: float) -> None:
        z_now = state.z.transported(s)
        sigma_now = state.sigma.transported(s)
        if record_z_snapshots:
            z_snapshots[s] = z_now
        tv = tv_estimate(z_now, reference, s, *tv_edges) if tv_edges is not None else float("nan")
        rows.append(
            (
                s,
                state.decoupled_fraction(),
                tv,
                lln_diagnostic(sigma_now, reference, s),
                diag.joint,
                diag.z_only,
                diag.sigma_atom,
                diag.fresh_draw,
                diag.rescale_mean(),
            )
        )

    def event(t: float) -> None:
        coupled_event(state, kernel, reference, ranks_cdf, draws, diag, record_ranks=record_ranks)

    run_clock(horizon, draws.gaps, snapshot_times, state.transport, snapshot, event)
    cols = list(zip(*rows)) if rows else [[] for _ in range(9)]
    return TrialRecord(
        times=np.asarray(cols[0]),
        d_n=np.asarray(cols[1]),
        tv=np.asarray(cols[2]),
        lln=np.asarray(cols[3]),
        joint=np.asarray(cols[4], dtype=np.int64),
        z_only=np.asarray(cols[5], dtype=np.int64),
        sigma_only=np.asarray(cols[6], dtype=np.int64),
        fresh=np.asarray(cols[7], dtype=np.int64),
        rescale_mean=np.asarray(cols[8]),
        event_count=diag.events,
        partner_ranks=np.asarray(diag.partner_ranks, dtype=np.int64),
        z_snapshots=z_snapshots if record_z_snapshots else None,
    )
