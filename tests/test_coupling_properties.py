"""Property tests of short coupled runs: coupled pairs are identical, decoupling is absorbing."""

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
from topolab.ranks import rank_cdf  # noqa: E402

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
        reference = kinetic_reference(preset) if kinetic else UniformReference(law.velocity, d=1)
    else:
        law = InitialLaw((PositionLaw.uniform(), PositionLaw.uniform()), VelocityLaw.four_point())
        reference = UniformReference(law.velocity, d=2)
    rng = np.random.default_rng(seed)
    state = CoupledState.delta(sample_initial(law, n, seed))
    cdf = rank_cdf(kernel, n)
    diag = CouplingDiagnostics()
    while True:
        gap = rng.exponential(1.0 / n)
        if state.t + gap > HORIZON:
            break
        before = state.coupled.copy()
        state.transport(gap)
        coupled_event(state, kernel, reference, cdf, rng, diag)
        assert not np.any(state.coupled & ~before)
        kept = state.coupled
        np.testing.assert_array_equal(state.z.positions[kept], state.sigma.positions[kept])
        np.testing.assert_array_equal(state.z.velocities[kept], state.sigma.velocities[kept])
    assert diag.sigma_atom + diag.fresh_draw == diag.z_only
