import math

import numpy as np
import pytest
from scipy import stats

from topolab import coupling, particle, torus
from topolab.coupling import (
    _RESIDUAL_TOL,
    CoupledState,
    CouplingDiagnostics,
    SolutionReference,
    UniformReference,
    _aggregate_cells,
    coupled_event,
    decoupling_bound,
    lln_diagnostic,
    pair_rates,
    run_coupled_trial,
    tv_estimate,
)
from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial
from topolab.kernels import Kernel, preset_kernels, rate_normalization
from topolab.kinetic import PhaseGrid, initial_density, solve
from topolab.particle import Draws, categorical, simulate
from topolab.ranks import Configuration, partner_distribution, rank_cdf, rank_vector

V_EDGES = PhaseGrid(nx=8, nv=5, v_max=1.25).v_edges


def uniform_law() -> InitialLaw:
    return InitialLaw((PositionLaw.uniform(),), VelocityLaw.two_point())


def kinetic_reference(kernel, horizon=1.0, nx=128, amplitude=0.0):
    pos = PositionLaw.cosine(amplitude) if amplitude else PositionLaw.uniform()
    law = InitialLaw((pos,), VelocityLaw.two_point())
    grid = PhaseGrid(nx=nx, nv=5, v_max=1.25)
    times = tuple(np.round(np.arange(0, horizon + 1e-12, 0.02), 10))
    sol = solve(initial_density(law, grid), kernel, horizon, 0.01, times)
    return SolutionReference(sol, kernel)


def test_decoupling_bound_values():
    assert decoupling_bound(Kernel.uniform(), 65, 1.0) == pytest.approx(1.0 / 8.0)
    assert decoupling_bound(Kernel.linear(), 2, 0.0) == 1.0
    # c = 8 sqrt(e) 200 = 2638 for the steepest ramp of the sweep: exp(c) is past the float range
    assert decoupling_bound(Kernel.truncated_linear(0.1), 32, 1.0) == math.inf


def test_flat_kernel_every_event_joint():
    # K = 1 makes both rate vectors identical, so pairs never decouple
    kernel = Kernel.uniform()
    initial = sample_initial(uniform_law(), 32, 5)
    ref = UniformReference(VelocityLaw.two_point())
    rng = np.random.default_rng(0)
    record = run_coupled_trial(kernel, ref, initial, 2.0, rng, snapshot_times=(1.0, 2.0))
    assert record.z_only[-1] == 0
    assert record.joint[-1] == record.event_count
    np.testing.assert_array_equal(record.d_n, 0.0)


def test_lattice_construction_suppresses_one_sided_jumps():
    # particles on a half-arc lattice with spacing 1/(2(n-1)): the uniform
    # ball mass at the k-th neighbor distance never exceeds the normalized
    # rank, so the joint rate saturates at pi_n and every event is joint
    n = 64
    positions = np.arange(n) / (2.0 * (n - 1))
    initial = Configuration(positions, np.zeros(n))
    kernel = Kernel.linear()
    ref = UniformReference(VelocityLaw.two_point())
    cdf = rank_cdf(kernel, n)
    draws = Draws(np.random.default_rng(3), n)
    state = CoupledState.delta(initial)
    diag = CouplingDiagnostics()
    for _ in range(500):
        coupled_event(state, kernel, ref, cdf, draws, diag)
    assert diag.z_only == 0
    assert diag.joint == 500
    assert state.decoupled_fraction() == 0.0


def test_z_only_jump_decouples_and_is_absorbing():
    kernel = Kernel.linear()
    initial = sample_initial(uniform_law(), 16, 9)
    ref = UniformReference(VelocityLaw.two_point())
    rng = np.random.default_rng(11)
    record = run_coupled_trial(
        kernel, ref, initial, 4.0, rng, snapshot_times=tuple(np.linspace(0.25, 4.0, 16))
    )
    assert record.z_only[-1] > 0
    # decoupled fraction is non-decreasing (absorbing flags)
    assert np.all(np.diff(record.d_n) >= 0)
    assert record.d_n[0] >= 0.0
    # event bookkeeping: joint + z_only = all events, and the sigma-side
    # completions split z_only into atom adoptions and fresh draws
    assert record.joint[-1] + record.z_only[-1] == record.event_count
    assert record.sigma_only[-1] + record.fresh[-1] == record.z_only[-1]


def test_coupled_trial_rejects_a_negative_horizon():
    initial = sample_initial(uniform_law(), 8, 1)
    ref = UniformReference(VelocityLaw.two_point())
    with pytest.raises(ValueError, match="horizon"):
        run_coupled_trial(Kernel.linear(), ref, initial, -0.25, np.random.default_rng(0), ())


def test_initial_delta_coupling_has_zero_distance():
    initial = sample_initial(uniform_law(), 8, 1)
    state = CoupledState.delta(initial)
    assert state.decoupled_fraction() == 0.0
    np.testing.assert_array_equal(state.z.positions, state.sigma.positions)


def test_residual_probabilities_sane_per_event():
    # direct check of the per-event split: rates nonnegative, residual
    # nonnegative, and the sigma branch probabilities sum to one
    kernel = Kernel.linear()
    n = 64
    initial = sample_initial(uniform_law(), n, 21)
    ref = kinetic_reference(kernel)
    alpha = rate_normalization(kernel, n)
    state = CoupledState.delta(initial)
    rng = np.random.default_rng(2)
    for _ in range(200):
        gap = rng.exponential(1.0 / n)
        if state.t + gap > 0.95:
            break
        state.transport(gap)
        i = int(rng.integers(n))
        pi_n, _, pi_rho = _full_rows(state, kernel, ref, alpha, i)
        lam = np.minimum(pi_n, pi_rho)
        assert np.all(lam >= 0)
        assert np.all(pi_rho - lam >= -1e-12)
        assert pi_n.sum() == pytest.approx(1.0, abs=1e-12)
        big = lam.sum()
        resid = float(np.maximum(pi_rho - lam, 0).sum())
        atom = min(resid, 1.0 - big)
        fresh = max(1.0 - big - resid, 0.0)
        assert big + atom + fresh == pytest.approx(1.0, abs=1e-12)


def test_ball_mass_rejects_a_negative_radius_and_an_outside_time():
    ref = kinetic_reference(Kernel.linear(), horizon=0.2, nx=32)
    center = np.array([0.3])
    for query in (
        lambda t, r: ref.ball_mass(t, center, r),
        lambda t, r: ref.ball_masses(t, center, np.array([r])),
    ):
        assert query(0.2 + 1e-9, 0.1) > 0.0  # inside the 1e-9 slack
        for t, r in ((0.1, -1e-12), (-2e-9, 0.1), (0.2 + 2e-9, 0.1)):
            with pytest.raises(ValueError):
                query(t, r)


def _full_rows(state, kernel, reference, alpha, i):
    """pi_n(i, .), its rank vector and pi_rho(i, .), built over all n partners
    from the positions at time state.t."""
    z, sigma = state.z.transported(state.t), state.sigma.transported(state.t)
    pi_n, ranks = partner_distribution(z, kernel, i), rank_vector(z, i)
    radii = torus.distances_from(sigma.positions, sigma.positions[i])
    pi_rho = alpha * kernel(reference.ball_masses(state.t, sigma.positions[i], radii))
    pi_rho[i] = 0.0
    return pi_n, ranks, pi_rho


def logged_draws(draw, log: list[int]):
    """``draw`` (a `draw_index`) that also appends every index it returns to ``log``."""

    def logged(u, cdf):
        h = draw(u, cdf)
        log.append(h)
        return h

    return logged


def logged_tv_estimate(log: list[tuple]):
    """`tv_estimate` that also appends each (t, Z configuration) it is handed to ``log``."""

    def logged(config, reference, t, x_edges, v_edges):
        log.append((t, config))
        return tv_estimate(config, reference, t, x_edges, v_edges)

    return logged


def _oracle_coupled_event(state, kernel, reference, alpha, rng, diag, ranks_log):
    """The coupled event drawn from the full rows: partner by categorical(pi_n),
    joint with probability lam[j] / pi_n[j].  The law the rank-first event must keep.
    The partner's rank goes to ``ranks_log``."""
    n, t = state.z.n, state.t
    i = int(rng.integers(n))
    pi_n, ranks, pi_rho = _full_rows(state, kernel, reference, alpha, i)
    lam = np.minimum(pi_n, pi_rho)
    big_lambda = float(lam.sum())
    j = categorical(rng, pi_n)
    ranks_log.append(int(ranks[j]))
    v_z, v_sigma = state.z.velocities[j].tolist(), state.sigma.velocities[j].tolist()
    x_i = state.sigma.transported(t).positions[i]
    state.z.set_velocity(i, v_z, t)
    if rng.random() * pi_n[j] < lam[j]:
        state.sigma.set_velocity(i, v_sigma, t)
        state.coupled[i] = state.coupled[i] and v_z == v_sigma
        diag.joint += 1
        return
    state.coupled[i] = False
    diag.z_only += 1
    residual = pi_rho - lam
    assert residual.min() >= _RESIDUAL_TOL
    np.maximum(residual, 0.0, out=residual)
    resid_mass = float(residual.sum())
    available = 1.0 - big_lambda
    if resid_mass >= available:
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


def _evolved_state(kernel, reference, n, seed, events=150):
    """A coupled state after some transported events, with decoupled pairs apart."""
    rng = np.random.default_rng(seed)
    draws = Draws(rng, n)
    state = CoupledState.delta(sample_initial(uniform_law(), n, seed))
    cdf = rank_cdf(kernel, n)
    diag = CouplingDiagnostics()
    for _ in range(events):
        state.transport(0.2 * rng.exponential(1.0 / n))  # about 0.75 in all, inside the reference
        coupled_event(state, kernel, reference, cdf, draws, diag)
    return state


@pytest.mark.parametrize("preset", sorted(preset_kernels()))
def test_pair_rates_match_full_row_oracle(preset):
    # the joint-jump probability at every (i, j) is the oracle's lam[j] / pi_n[j],
    # and pi_rho at the pair is the full row's entry to the bit
    kernel = preset_kernels()[preset]
    n = 40
    alpha = rate_normalization(kernel, n)
    for reference in (UniformReference(VelocityLaw.two_point()), kinetic_reference(kernel, nx=64)):
        state = _evolved_state(kernel, reference, n, seed=len(preset))
        assert preset == "uniform" or not state.coupled.all()  # K = 1 never decouples
        worst = 0.0
        for i in range(n):
            pi_n, ranks, pi_rho = _full_rows(state, kernel, reference, alpha, i)
            lam = np.minimum(pi_n, pi_rho)
            for j in np.flatnonzero(pi_n > 0.0):
                a, b = pair_rates(state, kernel, reference, alpha, i, int(j), int(ranks[j]))
                assert b == pi_rho[j]
                worst = max(worst, abs(min(a, b) / a - lam[j] / pi_n[j]))
        assert worst <= 1e-15


def _event_class_tables(kernel, reference, initial, t, events):
    """Per-rank counts of joint, sigma-atom and fresh-draw events at time t, for
    the rank-first event and for the full-row oracle, from the same state."""
    n = initial.n
    alpha, cdf = rate_normalization(kernel, n), rank_cdf(kernel, n)
    tables = []
    for oracle in (False, True):
        state = CoupledState.delta(initial)
        state.t = t
        diag = CouplingDiagnostics()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=43, spawn_key=(int(oracle),)))
        draws = Draws(rng, n)
        classes = np.zeros((n, 3), dtype=np.int64)  # per rank: joint, sigma atom, fresh draw
        ranks_log: list[int] = []
        with pytest.MonkeyPatch.context() as mp:
            # the rank-first event's rank is the one its `draw_index` returns
            mp.setattr(coupling, "draw_index", logged_draws(coupling.draw_index, ranks_log))
            for _ in range(events):
                before = (diag.joint, diag.sigma_atom, diag.fresh_draw)
                if oracle:
                    _oracle_coupled_event(state, kernel, reference, alpha, rng, diag, ranks_log)
                else:
                    coupled_event(state, kernel, reference, cdf, draws, diag)
                after = (diag.joint, diag.sigma_atom, diag.fresh_draw)
                classes[ranks_log[-1]] += np.subtract(after, before)
        assert len(ranks_log) == events
        tables.append(classes)
    return tables


def _assert_same_event_law(new, old):
    by_rank = np.stack([new.sum(axis=1), old.sum(axis=1)])
    by_rank = by_rank[:, by_rank.sum(axis=0) > 0]  # rank 0 and the top rank weigh 0
    assert stats.chi2_contingency(by_rank).pvalue > 0.01
    by_class = np.stack([new.sum(axis=0), old.sum(axis=0)])
    assert np.all(by_class[:, 0] > 0) and np.all(by_class[:, 1:].sum(axis=1) > 200)
    assert stats.chi2_contingency(by_class).pvalue > 0.01
    one_sided = np.stack([new[:, 1:].sum(axis=1), old[:, 1:].sum(axis=1)])
    one_sided = one_sided[:, one_sided.sum(axis=0) > 0]
    assert stats.chi2_contingency(one_sided).pvalue > 0.01


def test_rank_first_event_has_the_oracle_law():
    # positions stay fixed, so every event draws (i, rank, class) from one law;
    # the rank-first event and the full-row oracle must agree on it
    kernel = Kernel.linear()
    n, events = 16, 20_000
    reference = UniformReference(VelocityLaw.two_point())
    initial = sample_initial(uniform_law(), n, 29)
    _assert_same_event_law(*_event_class_tables(kernel, reference, initial, 0.0, events))


def test_rank_first_event_has_the_oracle_law_on_a_moving_state():
    # the same at t = 0.37 on comoving coordinates with four velocities in the
    # Z runs: a velocity change keeps the particle in place, so the law stays
    # fixed; the kinetic reference reads its snapshots at that time
    kernel = Kernel.linear()
    n = 16
    rng = np.random.default_rng(31)
    initial = Configuration(rng.uniform(0.0, 1.0, n), rng.choice([-1.0, -0.5, 0.5, 1.0], n))
    _assert_same_event_law(*_event_class_tables(kernel, kinetic_reference(kernel), initial, 0.37, 20_000))


def test_tv_estimate_identical_and_disjoint():
    ref = UniformReference(VelocityLaw.two_point())
    x_edges = np.linspace(0, 1, 9)
    # identical: particles exactly at the uniform-product cell masses is not
    # constructible, but the reference against itself is zero by definition
    masses = ref.cell_masses(0.0, x_edges, V_EDGES)
    assert 0.5 * np.abs(masses - masses).sum() == 0.0
    # disjoint supports: all particles at +1 velocity vs a reference at -1
    config = Configuration(np.linspace(0, 1, 50, endpoint=False), np.full(50, 1.0))
    one_sided = UniformReference(VelocityLaw.discrete([[-1.0]], [1.0]))
    assert tv_estimate(config, one_sided, 0.0, x_edges, V_EDGES) == pytest.approx(1.0)


def test_aggregate_cells_matches_cell_loop():
    # the reference loop sums each bin's slice; the vectorised sum must agree
    # to the last bit, since tv_estimate is written with 12 digits
    rng = np.random.default_rng(8)
    for nx in (8, 64, 512):
        grid = PhaseGrid(nx=nx, nv=5, v_max=1.25)
        masses = rng.uniform(0, 1, (nx, grid.nv))
        for bins in (1, 2, 8, nx):
            k = nx // bins
            x_edges = np.linspace(0.0, 1.0, bins + 1)
            loop = np.array(
                [[masses[a * k : (a + 1) * k, b : b + 1].sum() for b in range(grid.nv)]
                 for a in range(bins)]
            )
            np.testing.assert_array_equal(_aggregate_cells(masses, grid, x_edges, grid.v_edges), loop)
    for x_edges, v_edges in (
        (np.linspace(0.0, 1.0, 4), grid.v_edges),  # 3 bins do not divide 512
        (np.array([0.0, 0.25, 1.0]), grid.v_edges),  # not uniform
        (np.linspace(0.0, 1.0, 9), grid.v_edges[::5]),  # coarser v bins
    ):
        with pytest.raises(ValueError):
            _aggregate_cells(masses, grid, x_edges, v_edges)


def test_lln_diagnostic_quantile_construction():
    # reference-world particles at the quantiles of rho: the empirical mass
    # tracks the true mass within one quantile spacing
    kernel = Kernel.linear()
    ref = kinetic_reference(kernel, amplitude=0.3)
    nx = ref.grid.nx
    n = 2 * nx + 1
    law = PositionLaw.cosine(0.3)
    u = (np.arange(n - 1) + 0.5) / (n - 1)
    lo, hi = np.zeros(n - 1), np.ones(n - 1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = law.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    quantiles = 0.5 * (lo + hi)
    positions = np.concatenate([[0.37], quantiles])
    config = Configuration(positions, np.zeros(n))
    assert lln_diagnostic(config, ref, 0.0) <= 1.0 / nx


def test_lln_diagnostic_two_particles_bounds():
    ref = UniformReference(VelocityLaw.two_point())
    config = Configuration(np.array([0.1, 0.4]), np.zeros(2))
    val = lln_diagnostic(config, ref, 0.0)
    assert 0.0 <= val <= 1.0


def test_lln_diagnostic_iid_rate():
    # slope of log mean diagnostic against log(n-1) near -1/2 for i.i.d. samples
    ref = UniformReference(VelocityLaw.two_point())
    rng = np.random.default_rng(8)
    ns = [64, 256, 1024]
    means = []
    for n in ns:
        vals = [
            lln_diagnostic(
                Configuration(rng.uniform(0, 1, n), np.zeros(n)), ref, 0.0
            )
            for _ in range(200)
        ]
        means.append(np.mean(vals))
    slope = np.polyfit(np.log(np.asarray(ns) - 1.0), np.log(means), 1)[0]
    assert -0.65 < slope < -0.35


def test_two_dimensional_coupling_runs():
    kernel = Kernel.linear()
    law = InitialLaw((PositionLaw.uniform(), PositionLaw.uniform()), VelocityLaw.four_point())
    initial = sample_initial(law, 32, 13)
    ref = UniformReference(VelocityLaw.four_point())
    rng = np.random.default_rng(4)
    record = run_coupled_trial(kernel, ref, initial, 1.0, rng, snapshot_times=(0.5, 1.0))
    assert record.event_count > 0
    assert np.all(np.diff(record.d_n) >= 0)
    assert 0.0 <= record.d_n[-1] <= 1.0


def test_coupled_flags_imply_exact_equality():
    kernel = Kernel.linear()
    initial = sample_initial(uniform_law(), 48, 17)
    ref = kinetic_reference(kernel)
    rng = np.random.default_rng(5)
    draws = Draws(rng, 48)
    cdf = rank_cdf(kernel, 48)
    state = CoupledState.delta(initial)
    diag = CouplingDiagnostics()
    for _ in range(300):
        gap = rng.exponential(1.0 / 48)
        if state.t + gap > 0.98:
            break
        state.transport(gap)
        coupled_event(state, kernel, ref, cdf, draws, diag)
        still = state.coupled
        np.testing.assert_array_equal(
            state.z.positions[still], state.sigma.positions[still]
        )
        np.testing.assert_array_equal(
            state.z.velocities[still], state.sigma.velocities[still]
        )


def test_two_particle_consensus_probability_analytic(monkeypatch):
    # with one partner the first event forces consensus, so the initial
    # velocity pair survives to time t with probability exactly e^{-2t}; the
    # Z world at t is the configuration that the trial hands to tv_estimate
    kernel = Kernel.uniform()
    ref = UniformReference(VelocityLaw.two_point())
    t_probe, trials = 0.7, 3000
    z_snapshots = []
    monkeypatch.setattr(coupling, "tv_estimate", logged_tv_estimate(z_snapshots))
    tv_edges = (np.linspace(0.0, 1.0, 9), V_EDGES)
    survived = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=37, spawn_key=(trial,)))
        initial = Configuration(np.array([0.2, 0.6]), np.array([-1.0, 1.0]))
        run_coupled_trial(kernel, ref, initial, t_probe, rng, (t_probe,), tv_edges)
        z = z_snapshots[-1][1]
        survived += int(z.velocities[0, 0] != z.velocities[1, 0])
    assert len(z_snapshots) == trials
    expected = np.exp(-2 * t_probe)
    stderr = np.sqrt(expected * (1 - expected) / trials)
    assert abs(survived / trials - expected) < 3.5 * stderr


def test_z_marginal_matches_standalone_rank_frequencies(monkeypatch):
    # the partner-rank law of the coupled Z world equals the standalone law;
    # each run's ranks are the ones its event's draw_index returns
    kernel = Kernel.linear()
    n, horizon, trials = 16, 1.0, 400
    law = uniform_law()
    ref = UniformReference(VelocityLaw.two_point())

    coupled_ranks, standalone_ranks = [], []
    events = [0, 0]
    monkeypatch.setattr(coupling, "draw_index", logged_draws(coupling.draw_index, coupled_ranks))
    for trial in range(trials):
        initial = sample_initial(law, n, 1000 + trial)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(trial,)))
        events[0] += run_coupled_trial(kernel, ref, initial, horizon, rng, ()).event_count
        rng2 = np.random.default_rng(np.random.SeedSequence(entropy=78, spawn_key=(trial,)))
        standalone = sample_initial(law, n, 5000 + trial)
        # particle.categorical, which one-sided coupled events call, draws through it too
        with monkeypatch.context() as mp:
            mp.setattr(particle, "draw_index", logged_draws(particle.draw_index, standalone_ranks))
            events[1] += simulate(kernel, standalone, horizon, rng2).event_count
    assert [len(coupled_ranks), len(standalone_ranks)] == events

    a = np.bincount(coupled_ranks, minlength=n)[1:]
    b = np.bincount(standalone_ranks, minlength=n)[1:]
    keep = (a + b) > 0  # the top rank has kernel weight exactly 0
    res = stats.chi2_contingency(np.stack([a[keep], b[keep]]))
    assert res.pvalue > 0.01


def test_cell_masses_are_kept_per_time_and_edges():
    reference = kinetic_reference(Kernel.linear(), horizon=0.5, nx=64, amplitude=0.3)
    grid = reference.grid
    x_edges, v_edges = np.linspace(0.0, 1.0, 9), grid.v_edges
    times = (0.125, 0.3, 0.375, 0.5)  # two on stored kinetic times, two between them
    for t in times:
        cells = reference.cell_masses(t, x_edges, v_edges)
        masses = reference.solution.values_at(t) * (grid.dx * grid.dv)
        assert cells.tobytes() == _aggregate_cells(masses, grid, x_edges, v_edges).tobytes()
        assert not cells.flags.writeable
        # fresh arrays of equal edges, as another chunk of trials builds them, hit the store
        assert reference.cell_masses(t, x_edges.copy(), v_edges.copy()) is cells
    # other edges give their own entry; a bad one is still rejected
    coarse = reference.cell_masses(0.3, np.linspace(0.0, 1.0, 5), v_edges)
    assert coarse.shape == (4, grid.nv)
    assert coarse is not reference.cell_masses(0.3, x_edges, v_edges)
    assert len(reference._cells) == len(times) + 1
    with pytest.raises(ValueError):
        reference.cell_masses(0.3, np.linspace(0.0, 1.0, 4), v_edges)


def test_trial_diagnostics_equal_the_references_own(monkeypatch):
    # tv_estimate and lln_diagnostic on the trial's own Z and sigma snapshots,
    # recomputed from a reference that has stored nothing
    kernel = Kernel.linear()
    reference = kinetic_reference(kernel, horizon=0.5, nx=64, amplitude=0.3)
    x_edges, v_edges = np.linspace(0.0, 1.0, 9), reference.grid.v_edges
    times = (0.125, 0.3, 0.5)
    z_snapshots, sigma_snapshots = [], {}

    def lln_recorded(config, ref, t):
        sigma_snapshots[t] = config
        return lln_diagnostic(config, ref, t)

    monkeypatch.setattr(coupling, "tv_estimate", logged_tv_estimate(z_snapshots))
    monkeypatch.setattr(coupling, "lln_diagnostic", lln_recorded)
    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    rec = run_coupled_trial(
        kernel, reference, sample_initial(law, 48, 3), 0.5, np.random.default_rng(3), times,
        (x_edges, v_edges),
    )
    assert rec.z_only[-1] > 0  # one-sided events ask the reference at their own times
    # the store holds one entry per snapshot time and nothing for event times
    assert sorted(t for t, *_ in reference._cells) == list(times)
    assert [t for t, _ in z_snapshots] == list(times)
    fresh = SolutionReference(reference.solution, kernel)
    for k, (t, z) in enumerate(z_snapshots):
        assert rec.tv[k] == tv_estimate(z, fresh, t, x_edges, v_edges)
        assert rec.lln[k] == lln_diagnostic(sigma_snapshots[t], fresh, t)
    plain = run_coupled_trial(
        kernel, reference, sample_initial(law, 48, 3), 0.5, np.random.default_rng(3), times
    )
    assert rec.lln.tobytes() == plain.lln.tobytes()
    assert np.all(np.isnan(plain.tv))
