"""Property tests of the kinetic gain weights and the center ball masses."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from test_kinetic import _dense_gain_weights, assert_matches_dense  # noqa: E402

from topolab.kernels import preset_kernels  # noqa: E402
from topolab.kinetic import MassFunction, PhaseGrid, edge_cdf, gain_weights  # noqa: E402


@st.composite
def mass_functions(draw) -> tuple[PhaseGrid, MassFunction]:
    """A grid of 2 to 256 cells and a positive density of unit mass on it."""
    nx = draw(st.integers(2, 256))
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
    masses = mass_fn.center_ball_masses()
    assert masses.shape == (grid.nx, grid.nx // 2 + 1)
    assert np.all(masses[:, 0] == 0.0)
    assert np.all(np.diff(masses, axis=1) >= 0.0)
    if grid.nx % 2 == 0:
        np.testing.assert_allclose(masses[:, -1], mass_fn.total, rtol=0.0, atol=1e-12)
