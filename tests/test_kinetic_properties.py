"""Property tests of the kinetic gain weights and the center ball masses."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from test_kinetic import (  # noqa: E402
    _dense_gain_weights,
    assert_matches_dense,
    assert_same_bits,
    center_ball_masses,
    gathered_gain_weights,
    scaled_kernel,
)

from topolab.kernels import preset_kernels  # noqa: E402
from topolab.kinetic import MassFunction, PhaseGrid, edge_cdf, gain_weights  # noqa: E402


@st.composite
def mass_functions(draw, sizes=st.integers(2, 256)) -> tuple[PhaseGrid, MassFunction]:
    """A grid of 2 to 256 cells (or of a drawn size) and a positive density of unit mass on it."""
    nx = draw(sizes)
    rho = draw(arrays(np.float64, nx, elements=st.floats(0.01, 100.0)))
    grid = PhaseGrid(nx=nx, nv=1, v_max=1.0)
    return grid, MassFunction(edge_cdf(rho / (rho.sum() * grid.dx), grid.dx))


@settings(max_examples=60, deadline=None)
@given(mass_functions(), st.sampled_from(sorted(preset_kernels())))
def test_gain_weights_match_dense_oracle_on_random_densities(case, preset):
    grid, mass_fn = case
    kernel = preset_kernels()[preset]
    assert_matches_dense(gain_weights(mass_fn, grid, kernel), _dense_gain_weights(mass_fn, grid, kernel))


@settings(max_examples=60, deadline=None)
@given(mass_functions())
def test_center_ball_mass_never_decreases_with_radius(case):
    grid, mass_fn = case
    masses = center_ball_masses(mass_fn)
    assert masses.shape == (grid.nx, grid.nx // 2 + 1)
    assert np.all(masses[:, 0] == 0.0)
    assert np.all(np.diff(masses, axis=1) >= 0.0)
    if grid.nx % 2 == 0:
        np.testing.assert_allclose(masses[:, -1], mass_fn.total, rtol=0.0, atol=1e-12)


def _stale(nx: int) -> np.ndarray:
    """An (nx, nx) array for `gain_weights` to overwrite, every entry NaN (so none is left unwritten)."""
    return np.full((nx, nx), np.nan)


@pytest.mark.parametrize("quad_scale", [1.0, 1.01])
@pytest.mark.parametrize("preset", sorted(preset_kernels()))
@pytest.mark.parametrize("nx", [2, 3, 1000])
def test_gain_weights_equal_the_gather_on_the_smallest_and_a_many_block_grid(nx, preset, quad_scale):
    # nx = 1000 is written in blocks of 32 rows, the last one of 8
    grid = PhaseGrid(nx=nx, nv=1, v_max=1.0)
    rho = np.random.default_rng(nx).uniform(0.05, 2.0, nx)
    mass_fn = MassFunction(edge_cdf(rho / (rho.sum() * grid.dx), grid.dx))
    kernel = scaled_kernel(preset_kernels()[preset], quad_scale)
    weights = gain_weights(mass_fn, grid, kernel, _stale(nx))
    assert_same_bits(weights, gathered_gain_weights(mass_fn, grid, kernel))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(preset_kernels())), st.sampled_from([1.0, 1.01, 0.75]))
def test_gain_weights_equal_the_gather_from_the_half_table(data, preset, quad_scale):
    """W is the gather through the nx^2 index, bit for bit, also when written over an earlier W."""
    # above nx = 181 a block holds fewer rows than W, and the last block is short
    grid, mass_fn = data.draw(mass_functions(st.integers(2, 300)))
    _, earlier = data.draw(mass_functions(st.just(grid.nx)))
    kernel = preset_kernels()[preset]
    weights = gain_weights(earlier, grid, kernel, _stale(grid.nx))
    assert_same_bits(weights, gathered_gain_weights(earlier, grid, kernel))
    scaled = scaled_kernel(kernel, quad_scale)
    assert gain_weights(mass_fn, grid, scaled, weights) is weights
    assert weights.flags.c_contiguous
    assert_same_bits(weights, gathered_gain_weights(mass_fn, grid, scaled))
    assert_same_bits(gain_weights(mass_fn, grid, scaled), weights)
