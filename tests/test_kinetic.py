import tracemalloc

import numpy as np
import pytest

from topolab.experiments import _DENSITY_SCHEMA, density_to_csv
from topolab.initial import InitialLaw, PositionLaw, VelocityLaw
from topolab.kernels import Kernel, preset_kernels
from topolab.kinetic import (
    GridDensity,
    MassFunction,
    PhaseGrid,
    SolverInstabilityError,
    coarea_check,
    edge_cdf,
    gain,
    gain_weights,
    initial_density,
    l1_distance,
    solve,
    step,
    transport,
)

GRID = PhaseGrid(nx=64, nv=5, v_max=1.25)


def law(amplitude: float = 0.3) -> InitialLaw:
    pos = PositionLaw.cosine(amplitude) if amplitude else PositionLaw.uniform()
    return InitialLaw((pos,), VelocityLaw.two_point())


def _dense_gain_weights(mass_fn: MassFunction, grid: PhaseGrid, kernel: Kernel) -> np.ndarray:
    """Oracle for `gain_weights`: one CDF interpolation per (center, distance) pair."""
    k = np.abs(np.arange(grid.nx)[:, None] - np.arange(grid.nx)[None, :])
    dist = np.minimum(k, grid.nx - k) * grid.dx
    masses = mass_fn.ball_mass(np.broadcast_to(grid.x_centers[:, None], dist.shape), dist)
    return kernel(masses) * grid.dx


def scaled_kernel(kernel: Kernel, scale: float):
    """``kernel`` times ``scale``; like `Kernel`, it writes into ``out`` when given one.

    A scale of 1.01 is a kernel 1% off its normalization: W must carry it as
    it is, since the oracle's coarea check fails on exactly such a W.
    """
    if scale == 1.0:
        return kernel

    def scaled(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        values = kernel(r, out=out)
        return np.multiply(values, scale, out=values)

    return scaled


def center_ball_masses(mass_fn: MassFunction) -> np.ndarray:
    """The table M[i, k] = m(x_i, k dx), k <= nx // 2, that `gain_weights` reads by blocks of rows."""
    outer, inner = mass_fn.center_windows()
    return outer - inner


def gathered_gain_weights(mass_fn: MassFunction, grid: PhaseGrid, kernel: Kernel) -> np.ndarray:
    """Oracle for `gain_weights`: one gather from the whole half table through an nx^2 index."""
    nx = grid.nx
    half = kernel(center_ball_masses(mass_fn)) * grid.dx
    k = np.abs(np.arange(nx)[:, None] - np.arange(nx))
    return np.take(half, np.minimum(k, nx - k) + (nx // 2 + 1) * np.arange(nx)[:, None])


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape and actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def assert_matches_dense(weights: np.ndarray, dense: np.ndarray) -> None:
    """Bit-identical on dyadic grids; elsewhere x_i + k dx and x_{i+k} may round apart."""
    nx = dense.shape[0]
    if nx & (nx - 1) == 0:
        np.testing.assert_array_equal(weights, dense)
    else:
        np.testing.assert_allclose(weights, dense, rtol=0.0, atol=1e-15)


def test_initial_density_mass_and_marginals():
    f0 = initial_density(law(), GRID)
    assert f0.mass() == pytest.approx(1.0, abs=1e-13)
    rho = f0.density()
    expected = law().positions[0].cell_masses(GRID.x_edges) / GRID.dx
    np.testing.assert_allclose(rho, expected, atol=1e-13)


def test_density_uniform():
    f = GridDensity(GRID, np.full((GRID.nx, GRID.nv), 1.0 / (2 * GRID.v_max)))
    np.testing.assert_allclose(f.density(), 1.0, atol=1e-13)


def test_density_sum_normalized_random():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 1, (GRID.nx, GRID.nv))
    vals /= vals.sum() * GRID.dx * GRID.dv
    f = GridDensity(GRID, vals)
    assert np.sum(f.density()) * GRID.dx == pytest.approx(1.0, abs=1e-12)


# -- mass function ---------------------------------------------------------------


def _profile(mass_fn: MassFunction, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Radius knots and ball masses around the center of cell i.

    Between consecutive knots the mass is exactly linear in the radius, so
    this is a complete description of m(x_i, .).
    """
    nx = mass_fn.edge_cdf.size - 1
    dx = 1.0 / nx
    inner = (np.arange(nx // 2) + 0.5) * dx
    radii = np.concatenate([[0.0], inner[inner < 0.5], [0.5]])
    return radii, mass_fn.ball_mass((i + 0.5) * dx, radii)


def test_mass_function_profile_invariants():
    f0 = initial_density(law(0.4), GRID)
    rho = f0.density()
    mass_fn = MassFunction(edge_cdf(rho, GRID.dx))
    for i in (0, 13, 50):
        radii, masses = _profile(mass_fn, i)
        assert np.all(np.diff(masses) >= -1e-15)
        assert 0.0 <= masses[0] <= rho[i] * GRID.dx + 1e-15
        assert masses[-1] == pytest.approx(1.0, abs=1e-10)
        assert radii[0] == 0.0 and radii[-1] == 0.5


def test_mass_function_matches_direct_integral():
    # compare against dense numerical integration of the binned density
    f0 = initial_density(law(0.35), GRID)
    rho = f0.density()
    mass_fn = MassFunction(edge_cdf(rho, GRID.dx))
    fine = 1 << 14
    xs = (np.arange(fine) + 0.5) / fine
    rho_fine = rho[np.floor(xs * GRID.nx).astype(int)]
    rng = np.random.default_rng(3)
    for center in rng.uniform(0, 1, 5):
        for radius in rng.uniform(0, 0.5, 5):
            dist = np.abs(xs - center)
            dist = np.minimum(dist, 1.0 - dist)
            direct = rho_fine[dist <= radius].sum() / fine
            assert mass_fn.ball_mass(center, radius) == pytest.approx(direct, abs=2e-4)


def test_mass_function_radius_cap():
    mass_fn = MassFunction(edge_cdf(np.ones(GRID.nx), GRID.dx))
    assert mass_fn.ball_mass(0.3, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert mass_fn.ball_mass(0.3, 2.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        mass_fn.ball_mass(0.3, -0.1)


# -- gain and coarea -------------------------------------------------------------


def test_gain_flat_kernel_factorizes():
    f0 = initial_density(law(0.3), GRID)
    g = gain(f0, Kernel.uniform())
    rho = f0.density()
    marginal = f0.values.sum(axis=0) * GRID.dx
    np.testing.assert_allclose(g, np.outer(rho, marginal), atol=1e-12)


def test_gain_homogeneous_fixed_point():
    # exact for kernels affine in the mass (the trapezoid rule has no error
    # there); at quadrature accuracy O(dx^2) for kinked or curved kernels
    f0 = initial_density(law(0.0), GRID)
    for name, kernel in preset_kernels().items():
        g = gain(f0, kernel)
        defect = np.max(np.abs(g - f0.values))
        if name in ("uniform", "linear"):
            assert defect <= 1e-12
        else:
            assert defect <= 1e-3
            fine = initial_density(law(0.0), PhaseGrid(nx=2 * GRID.nx, nv=5, v_max=1.25))
            fine_defect = np.max(np.abs(gain(fine, kernel) - fine.values))
            assert fine_defect <= 0.5 * defect + 1e-12


def test_gain_near_delta_concentration():
    # all mass in two adjacent x-cells: the gain redistributes velocities there
    values = np.zeros((4, 2))
    values[1, 0] = 0.7
    values[1, 1] = 0.2
    values[2, 0] = 0.1
    grid = PhaseGrid(nx=4, nv=2, v_max=1.0)
    values /= values.sum() * grid.dx * grid.dv
    f = GridDensity(grid, values)
    g = gain(f, Kernel.linear())
    rho = f.density()
    weights = _dense_gain_weights(MassFunction(edge_cdf(rho, grid.dx)), grid, Kernel.linear())
    np.testing.assert_allclose(g, rho[:, None] * (weights @ f.values), atol=1e-14)
    assert g[0].sum() == pytest.approx(0.0, abs=1e-12)  # rho[0] = 0 stays empty


@pytest.mark.parametrize("quad_scale", [1.0, 1.01])
@pytest.mark.parametrize("preset", sorted(preset_kernels()))
@pytest.mark.parametrize("nx", [2, 3, 4, 7, 64, 100, 127, 128, 300, 512])
def test_gain_weights_match_dense_oracle(nx, preset, quad_scale):
    grid = PhaseGrid(nx=nx, nv=1, v_max=1.0)
    rho = np.random.default_rng(nx).uniform(0.05, 2.0, nx)
    mass_fn = MassFunction(edge_cdf(rho / (rho.sum() * grid.dx), grid.dx))
    kernel = scaled_kernel(preset_kernels()[preset], quad_scale)
    assert_matches_dense(
        gain_weights(mass_fn, grid, kernel), _dense_gain_weights(mass_fn, grid, kernel)
    )


def test_solve_equals_steps_with_fresh_weights():
    # a W entry that one step of a solve leaves stale would show here
    grid = PhaseGrid(nx=300, nv=5, v_max=1.25)  # several row blocks, the last one short
    f0 = initial_density(law(0.4), grid)
    for kernel in preset_kernels().values():
        sol = solve(f0, kernel, 0.1, 0.02, snapshot_times=(0.02, 0.06, 0.1))
        f, steps = f0, {}
        for k in range(1, 6):
            f = steps[k] = step(f, kernel, 0.02)
        for k, snap in zip((1, 3, 5), sol.snapshots):
            assert_same_bits(snap.values, steps[k].values)


def test_steps_allocate_no_table_and_solve_keeps_none():
    # after the first step, a step allocates nothing of nx (nx/2 + 1) or nx^2
    # entries, and nothing that size outlives `solve`
    nx = 512
    table_bytes = nx * (nx // 2 + 1) * 8
    f = initial_density(law(0.3), PhaseGrid(nx=nx, nv=5, v_max=1.25))
    weights = np.empty((nx, nx))
    f = step(f, Kernel.linear(), 0.01, weights)
    tracemalloc.start()
    try:
        for name, kernel in preset_kernels().items():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f = step(f, kernel, 0.01, weights)
            grown = tracemalloc.get_traced_memory()[1] - before
            assert grown < table_bytes, f"{name}: a step allocated {grown} bytes at once"
        # a grid no earlier call used, so no cache for it exists yet
        nx = 384
        f0 = initial_density(law(0.3), PhaseGrid(nx=nx, nv=5, v_max=1.25))
        before = tracemalloc.get_traced_memory()[0]
        sol = solve(f0, Kernel.linear(), 0.03, 0.01, snapshot_times=(0.03,))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sol.snapshots) == 1
    assert kept < nx * (nx // 2 + 1) * 8, f"{kept} bytes outlived solve"


def test_coarea_flat_kernel_exact():
    f0 = initial_density(law(0.3), GRID)
    assert np.max(np.abs(coarea_check(f0, Kernel.uniform()))) <= 1e-10


@pytest.mark.parametrize("preset", ["linear", "truncated_linear", "tabulated"])
@pytest.mark.parametrize("pos", ["cosine", "two_mode", "bump"])
def test_coarea_residual_small_and_refining(preset, pos):
    kernel = preset_kernels()[preset]
    if pos == "cosine":
        plaw = PositionLaw.cosine(0.3)
    elif pos == "two_mode":
        plaw = PositionLaw.two_mode(0.25, 0.15)
    else:
        plaw = PositionLaw.bump()
    ilaw = InitialLaw((plaw,), VelocityLaw.two_point())
    res = {}
    for nx in (512, 1024):
        f0 = initial_density(ilaw, PhaseGrid(nx=nx, nv=5, v_max=1.25))
        res[nx] = float(np.max(np.abs(coarea_check(f0, kernel))))
    assert res[512] <= 5e-3
    assert res[1024] <= 0.5 * res[512] + 1e-14


def test_collision_neutrality_identity():
    # velocity-summed collision increment equals rho times the signed residual
    f0 = initial_density(law(0.4), GRID)
    for kernel in (Kernel.linear(), preset_kernels()["tabulated"]):
        g = gain(f0, kernel)
        rho = f0.density()
        lhs = (g - f0.values).sum(axis=1) * GRID.dv
        rhs = rho * coarea_check(f0, kernel)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# -- transport and stepping ------------------------------------------------------


def test_transport_exact_integer_shift():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, (GRID.nx, GRID.nv))
    dt = GRID.dx / GRID.v_centers[-1] * 3  # shifts fastest row by 3 cells
    out = transport(values, GRID, dt)
    shift = GRID.v_centers * dt / GRID.dx
    assert shift[-1] == pytest.approx(3.0)
    np.testing.assert_allclose(out[:, -1], np.roll(values[:, -1], 3), atol=1e-12)


def test_transport_conserves_mass_and_positivity():
    rng = np.random.default_rng(2)
    values = rng.uniform(0, 1, (GRID.nx, GRID.nv))
    out = transport(values, GRID, 0.0371)
    assert out.sum() == pytest.approx(values.sum(), rel=1e-13)
    assert out.min() >= 0


def test_zero_velocity_grid_transport_trivial():
    grid = PhaseGrid(nx=32, nv=1, v_max=0.5)  # single cell centered at v=0
    assert grid.v_centers[0] == 0.0
    rng = np.random.default_rng(4)
    values = rng.uniform(0, 1, (32, 1))
    np.testing.assert_array_equal(transport(values, grid, 0.3), values)


def test_step_homogeneous_stationary():
    grid = PhaseGrid(nx=128, nv=5, v_max=1.25)
    f0 = initial_density(law(0.0), grid)
    f = f0
    for _ in range(10):
        f = step(f, Kernel.linear(), 0.1)
    assert np.max(np.abs(f.values - f0.values)) <= 1e-8


def test_step_rejects_bad_dt():
    f0 = initial_density(law(), GRID)
    with pytest.raises(ValueError):
        step(f0, Kernel.linear(), 1.5)
    with pytest.raises(ValueError):
        step(f0, Kernel.linear(), 0.0)


def test_mass_drift_logged_and_small():
    # inhomogeneous data: the quadrature drift per step is tiny and is logged
    grid = PhaseGrid(nx=512, nv=5, v_max=1.25)
    f = initial_density(law(0.3), grid)
    drift = 0.0
    for _ in range(20):
        f = step(f, Kernel.linear(), 0.001)
        drift += f.renorm_drift
        assert f.mass() == pytest.approx(1.0, abs=1e-12)
    assert drift < 20 * 1e-9


def test_mass_drift_accumulation_over_1000_steps():
    # pre-renormalization drift budget over a thousand steps at nx=512:
    # exactly zero for x-uniform data, below 1e-7 for mild inhomogeneity,
    # and below 1e-6 even for amplitude 0.3 (the drift scales like
    # amplitude^2 * dx^2 * elapsed time with the midpoint collision weights)
    grid = PhaseGrid(nx=512, nv=5, v_max=1.25)
    budgets = [(0.0, 1e-12), (0.1, 1e-7), (0.3, 1e-6)]
    for amplitude, budget in budgets:
        f = initial_density(law(amplitude), grid)
        drift = 0.0
        for _ in range(1000):
            f = step(f, Kernel.linear(), 0.001)
            drift += f.renorm_drift
        assert drift < budget, f"amplitude {amplitude}: drift {drift} over budget {budget}"
        assert abs(f.mass() - 1.0) <= 1e-10


def test_solve_horizon_zero_returns_f0():
    f0 = initial_density(law(), GRID)
    sol = solve(f0, Kernel.linear(), 0.0, 0.01, snapshot_times=(0.0,))
    np.testing.assert_array_equal(sol.snapshots[0].values, f0.values)


def test_solve_flat_kernel_keeps_product_form():
    # K = 1 with x-uniform initial data: the solution is stationary
    grid = PhaseGrid(nx=128, nv=5, v_max=1.25)
    f0 = initial_density(law(0.0), grid)
    sol = solve(f0, Kernel.uniform(), 1.0, 0.01, snapshot_times=(1.0,))
    assert l1_distance(sol.snapshots[-1], f0) <= 1e-9


def test_solve_snapshot_grid_validation():
    f0 = initial_density(law(), GRID)
    with pytest.raises(ValueError):
        solve(f0, Kernel.linear(), 1.0, 0.01, snapshot_times=(0.505,))
    with pytest.raises(ValueError):
        solve(f0, Kernel.linear(), 1.0, 0.03, snapshot_times=(0.3,))  # horizon off-grid


def test_solve_self_convergence_order():
    # successive dt-halvings contract the error at the splitting order
    grid = PhaseGrid(nx=64, nv=5, v_max=1.25)
    f0 = initial_density(law(0.4), grid)
    kernel = Kernel.linear()
    finals = {}
    for dt in (0.1, 0.05, 0.025):
        sol = solve(f0, kernel, 1.0, dt, snapshot_times=(1.0,))
        finals[dt] = sol.snapshots[-1]
    err_coarse = l1_distance(finals[0.1], finals[0.05])
    err_fine = l1_distance(finals[0.05], finals[0.025])
    assert 1.7 <= err_coarse / err_fine <= 4.3


def test_solution_time_interpolation():
    f0 = initial_density(law(0.3), GRID)
    sol = solve(f0, Kernel.linear(), 0.5, 0.01, snapshot_times=(0.0, 0.25, 0.5))
    mid = sol.values_at(0.125)
    expected = 0.5 * (sol.snapshots[0].values + sol.snapshots[1].values)
    np.testing.assert_allclose(mid, expected, atol=1e-14)
    np.testing.assert_allclose(sol.values_at(0.25), sol.snapshots[1].values)
    with pytest.raises(ValueError):
        sol.values_at(0.75)


def density_from_csv(path) -> GridDensity:
    """Read back a `density_to_csv` file."""
    with open(path, "r", encoding="utf-8") as fh:
        schema_line = fh.readline().strip()
        if schema_line != f"# schema={_DENSITY_SCHEMA}":
            raise ValueError(f"unknown grid-density schema line {schema_line!r}")
        meta = dict(
            item.split("=") for item in fh.readline().strip().lstrip("# ").split()
        )
        grid = PhaseGrid(nx=int(meta["nx"]), nv=int(meta["nv"]), v_max=float(meta["v_max"]))
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return GridDensity(grid, values, t=float(meta["t"]))


def test_density_csv_round_trip(tmp_path):
    f0 = initial_density(law(0.3), GRID)
    f0.t = 0.625
    path = tmp_path / "density.csv"
    density_to_csv(f0, path)
    loaded = density_from_csv(path)
    assert loaded.grid == GRID
    assert loaded.t == 0.625
    np.testing.assert_array_equal(loaded.values, f0.values)
    # schema line is checked
    bad = tmp_path / "bad.csv"
    bad.write_text("# schema=unknown.v9\n# nx=4 nv=1 v_max=1.0 t=0\n1.0\n")
    with pytest.raises(ValueError):
        density_from_csv(bad)


def test_instability_detection():
    values = np.full((GRID.nx, GRID.nv), 1.0 / (2 * GRID.v_max))
    values[0, 0] = -1e-6
    with pytest.raises(SolverInstabilityError):
        GridDensity(GRID, values).check()
