"""Property tests of short coupled runs (coupled pairs are identical, decoupling is
absorbing, the Z world's sorted runs find the partner of every rank) and of the
scalar ball-mass query that the coupled event uses."""

import math
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from topolab.coupling import (  # noqa: E402
    CoupledState,
    CouplingDiagnostics,
    SolutionReference,
    UniformReference,
    coupled_event,
)
from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial  # noqa: E402
from topolab.kernels import preset_kernels  # noqa: E402
from topolab.kinetic import PhaseGrid, initial_density, solve  # noqa: E402
from topolab.particle import Draws  # noqa: E402
from topolab.ranks import partner_at_rank, rank_cdf  # noqa: E402

HORIZON = 0.5


@lru_cache(maxsize=None)
def kinetic_reference(preset: str) -> SolutionReference:
    kernel = preset_kernels()[preset]
    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    grid = PhaseGrid(nx=64, nv=5, v_max=1.25)
    times = tuple(np.round(np.arange(0.0, HORIZON + 1e-12, 0.02), 10))
    return SolutionReference(solve(initial_density(law, grid), kernel, HORIZON, 0.01, times), kernel)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 24),
    d=st.sampled_from([1, 2]),
    preset=st.sampled_from(sorted(preset_kernels())),
    kinetic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupled_pairs_identical_and_decoupling_never_reverses(n, d, preset, kinetic, seed):
    kernel = preset_kernels()[preset]
    if d == 1:
        law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
        reference = kinetic_reference(preset) if kinetic else UniformReference(law.velocity)
    else:
        law = InitialLaw((PositionLaw.uniform(), PositionLaw.uniform()), VelocityLaw.four_point())
        reference = UniformReference(law.velocity)
    rng = np.random.default_rng(seed)
    draws = Draws(rng, n)
    state = CoupledState.delta(sample_initial(law, n, seed))
    cdf = rank_cdf(kernel, n)
    diag = CouplingDiagnostics()
    while True:
        gap = rng.exponential(1.0 / n)
        if state.t + gap > HORIZON:
            break
        before = state.coupled.copy()
        state.transport(gap)
        coupled_event(state, kernel, reference, cdf, draws, diag)
        assert not np.any(state.coupled & ~before)
        kept = state.coupled
        np.testing.assert_array_equal(state.z.positions[kept], state.sigma.positions[kept])
        np.testing.assert_array_equal(state.z.velocities[kept], state.sigma.velocities[kept])
    assert diag.sigma_atom + diag.fresh_draw == diag.z_only


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 24),
    preset=st.sampled_from(sorted(preset_kernels())),
    seed=st.integers(0, 2**32 - 1),
)
def test_z_runs_of_a_coupled_run_find_the_partner_at_rank(n, preset, seed):
    # one-sided events put fresh grid velocities into the sigma world and copy
    # Z velocities across runs; coupled pairs share (u, v) in the two worlds
    kernel = preset_kernels()[preset]
    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    rng = np.random.default_rng(seed)
    draws = Draws(rng, n)
    state = CoupledState.delta(sample_initial(law, n, seed))
    cdf = rank_cdf(kernel, n)
    diag = CouplingDiagnostics()
    while state.t + 0.05 <= HORIZON:
        state.transport(0.05)
        coupled_event(state, kernel, kinetic_reference(preset), cdf, draws, diag)
        z = state.z.transported(state.t)
        for i in range(n):
            for h in range(n):
                assert state.z.partner_at_rank(i, h, state.t) == partner_at_rank(z, i, h)
        for v, (us, ids) in state.z._runs.items():
            assert us == sorted(us)
            assert state.z.positions[ids, 0].tolist() == us
            assert np.all(state.z.velocities[ids, 0] == v)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


_EDGE = 1.0 / 64  # the cell width of `kinetic_reference`


@st.composite
def ball_queries(draw) -> tuple[float, float, float]:
    """(t, center, radius): snapshot times, times between them and up to 1e-9 outside
    [0, HORIZON]; centers 0 and 1 - 1e-17; radii 0, 0.5, past 0.5, and on cell edges."""
    t = draw(
        st.sampled_from([0.0, 0.02, 0.26, HORIZON, -1e-9, -0.5e-9, HORIZON + 0.5e-9, HORIZON + 1e-9])
        | st.floats(0.0, HORIZON)
    )
    center = draw(
        st.sampled_from([0.0, 1.0 - 1e-17, 0.5, 3 * _EDGE]) | st.floats(0.0, 1.0, exclude_max=True)
    )
    radius = draw(
        st.sampled_from([0.0, _EDGE, 5 * _EDGE, 0.5 - _EDGE, 0.5, 0.5 + 1e-12, 0.7, 2.0])
        | st.floats(0.0, 0.6)
        | st.integers(0, 64).map(lambda k: abs(k * _EDGE - center))  # center - r on an edge
    )
    return t, center, radius


@settings(max_examples=300, deadline=None)
@given(preset=st.sampled_from(sorted(preset_kernels())), query=ball_queries())
def test_scalar_ball_mass_has_the_row_bits(preset, query):
    t, center, radius = query
    reference = kinetic_reference(preset)
    c = np.array([center])
    scalar = reference.ball_mass(t, c, radius)
    assert type(scalar) is float
    row = reference.ball_masses(t, c, np.array([0.25, radius, 0.0]))
    assert _bits(scalar) == _bits(row[1])


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    radius=st.sampled_from([0.0, 0.25, 0.5, 0.6, math.sqrt(0.5), 1.0]) | st.floats(0.0, 1.0),
)
def test_uniform_scalar_ball_mass_has_the_row_bits(d, radius):
    reference = UniformReference(VelocityLaw.four_point() if d == 2 else VelocityLaw.two_point())
    c = np.full(d, 0.5)
    scalar = reference.ball_mass(0.3, c, radius)
    assert type(scalar) is float
    assert _bits(scalar) == _bits(reference.ball_masses(0.3, c, np.array([0.1, radius]))[1])
