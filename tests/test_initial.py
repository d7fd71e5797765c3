import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from topolab import initial
from topolab.initial import (
    InitialLaw,
    InitialLawError,
    PositionLaw,
    VelocityLaw,
    sample_initial,
    sample_initials,
)


def all_position_laws():
    return [
        PositionLaw.uniform(),
        PositionLaw.cosine(0.3),
        PositionLaw.cosine(0.5, frequency=2),
        PositionLaw.two_mode(0.25, 0.15),
        PositionLaw.bump(),
    ]


def test_pdf_nonnegative_and_normalized():
    x = np.linspace(0.0, 1.0, 20001)
    for law in all_position_laws():
        pdf = law.pdf(x)
        assert np.all(pdf >= -1e-12)
        assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-6)


def test_cdf_matches_pdf_and_boundaries():
    x = np.linspace(0.0, 1.0, 2001)
    for law in all_position_laws():
        cdf = law.cdf(x)
        assert cdf[0] == pytest.approx(0.0, abs=1e-14)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= -1e-12)
        # derivative check away from endpoints
        num = np.gradient(cdf, x)
        assert np.max(np.abs(num[5:-5] - law.pdf(x[5:-5]))) < 5e-4


def test_sampling_ks_statistic_below_critical():
    # 1% critical value of the one-sample KS statistic is ~1.63/sqrt(n)
    n = 10_000
    rng = np.random.default_rng(42)
    for law in all_position_laws():
        xs = law.sample(n, rng)
        res = stats.kstest(xs, law.cdf)
        assert res.statistic < 1.63 / np.sqrt(n)
        assert res.pvalue > 0.01


def test_cell_masses_sum_to_one():
    edges = np.linspace(0.0, 1.0, 65)
    for law in all_position_laws():
        masses = law.cell_masses(edges)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(masses >= -1e-15)


def test_velocity_two_point_mean_and_support():
    law = VelocityLaw.two_point(1.0)
    rng = np.random.default_rng(0)
    v = law.sample(10_000, rng)
    assert set(np.unique(v)) == {-1.0, 1.0}
    # CLT sanity: mean within 3/sqrt(n)
    assert abs(v.mean()) < 3.0 / np.sqrt(10_000)


def test_velocity_cell_masses():
    law = VelocityLaw.discrete([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])
    edges = np.linspace(-1.25, 1.25, 6)  # cells centered at -1,-0.5,0,0.5,1
    masses = law.cell_masses(edges)
    np.testing.assert_allclose(masses, [0.25, 0.0, 0.5, 0.0, 0.25])
    with pytest.raises(InitialLawError):
        law.cell_masses(np.linspace(-0.5, 0.5, 3))


def test_sample_initial_deterministic():
    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    a = sample_initial(law, 500, 123)
    b = sample_initial(law, 500, 123)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)
    c = sample_initial(law, 500, 124)
    assert not np.array_equal(a.positions, c.positions)


def test_two_dimensional_law():
    law = InitialLaw(
        (PositionLaw.uniform(), PositionLaw.cosine(0.2)), VelocityLaw.four_point()
    )
    config = sample_initial(law, 100, 7)
    assert config.d == 2
    assert config.positions.shape == (100, 2)
    speeds = np.linalg.norm(config.velocities, axis=1)
    np.testing.assert_allclose(speeds, 1.0)


def test_mismatched_dimensions_rejected():
    with pytest.raises(InitialLawError):
        InitialLaw((PositionLaw.uniform(),), VelocityLaw.four_point())


def drawn_one_by_one(law: InitialLaw, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """One trial's own draw: each axis's uniforms and inversion, then the velocities."""
    rng = np.random.default_rng(seed)
    positions = np.column_stack([p.sample(n, rng) for p in law.positions])
    return positions, law.velocity.sample(n, rng)


@pytest.mark.parametrize(
    "positions",
    [
        (PositionLaw.uniform(),),
        (PositionLaw.cosine(0.3),),
        (PositionLaw.cosine(0.6, frequency=3),),
        (PositionLaw.two_mode(0.25, 0.15),),
        (PositionLaw.bump(),),
        (PositionLaw.cosine(0.3), PositionLaw.cosine(0.6, frequency=3)),
        (PositionLaw.two_mode(0.25, 0.15), PositionLaw.bump()),
        (PositionLaw.uniform(), PositionLaw.cosine(0.3)),
    ],
    ids=lambda laws: "+".join(p.form + str(p.frequency) for p in laws),
)
def test_batched_inversion_equals_each_trials_own_draw(positions):
    velocity = VelocityLaw.two_point() if len(positions) == 1 else VelocityLaw.four_point()
    law = InitialLaw(positions, velocity)
    for n, chunk in ((2, 13), (3, 1), (7, 12), (64, 10), (100, 4), (511, 3), (4096, 2), (4097, 1)):
        seeds = [np.random.SeedSequence(entropy=99, spawn_key=(n, trial, 1)) for trial in range(chunk)]
        for seed, config in zip(seeds, sample_initials(law, n, seeds)):
            positions_alone, velocities_alone = drawn_one_by_one(law, n, seed)
            assert config.positions.tobytes() == positions_alone.tobytes()
            assert config.velocities.tobytes() == velocities_alone.tobytes()
        assert sample_initial(law, n, seeds[0]).positions.tobytes() == (
            drawn_one_by_one(law, n, seeds[0])[0].tobytes()
        )


def inverted_by_the_where_loop(law: PositionLaw, u: np.ndarray) -> np.ndarray:
    """`PositionLaw.invert` as a loop of whole-batch temporaries: the reference for its bits."""
    lo, hi = np.zeros(u.shape), np.ones(u.shape)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = law.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("law", all_position_laws()[1:], ids=lambda p: p.form + str(p.frequency))
def test_inversion_in_place_keeps_the_bits_of_the_where_loop(law):
    # the edges u = 0 and u just below 1, the law's own cell edges, and draws
    edges = [0.0, np.nextafter(1.0, 0.0), 1.0 - 2.0**-40, 2.0**-60, 0.25, 0.5, 0.75]
    for u in (np.array(edges), np.concatenate([edges, np.random.default_rng(7).random(5000)])):
        assert law.invert(u).tobytes() == inverted_by_the_where_loop(law, u).tobytes()
    # the cosine CDF computed in one buffer keeps the bits of its expression
    x = np.concatenate([edges, np.random.default_rng(8).random(1000)])
    if law.form == "cosine":
        k = law.frequency
        expected = x + law.amplitude * np.sin(2.0 * np.pi * k * x) / (2.0 * np.pi * k)
        assert law.cdf(x).tobytes() == expected.tobytes()


def bracket_level(law: PositionLaw) -> int:
    """The bisection step the inversion starts from: floor(44 + log2 of the density floor)."""
    floor = law.density_floor()
    return math.floor(44.0 + math.log2(floor)) if floor > 0.0 else 43


position_laws = st.one_of(
    st.builds(
        PositionLaw.cosine,
        st.sampled_from([0.3, -0.5, 0.9, 0.999]),
        st.integers(min_value=1, max_value=5),
    ),
    st.builds(
        PositionLaw.two_mode,
        st.floats(-0.6, 0.6),
        st.floats(-0.39, 0.39),
    ),
    st.just(PositionLaw.bump()),
    st.just(PositionLaw.uniform()),
)


@settings(max_examples=150, deadline=None)
@given(
    law=position_laws,
    cells=st.lists(st.integers(min_value=0, max_value=2**44), max_size=40),
    draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    newton_steps=st.sampled_from([0, 2, None]),
)
def test_inversion_keeps_the_bits_of_the_bisection(law, cells, draws, newton_steps):
    # u at the CDF of the level-k grid puts the root on a cell end, so the
    # one-cell move runs; with the Newton steps cut short the bracket check
    # fails and the full bisection runs
    k = bracket_level(law)
    on_grid = law.cdf(np.array([j % 2**k for j in cells], dtype=float) * 2.0**-k)
    u = np.concatenate([[0.0, 2.0**-60, 1.0 - 2.0**-53], on_grid[on_grid < 1.0], draws])
    expected = u if law.form == "uniform" else inverted_by_the_where_loop(law, u)
    calls = Counter()
    cdf = PositionLaw.cdf

    def counted(self, x):
        calls["cdf"] += 1
        return cdf(self, x)

    steps = initial._NEWTON_STEPS if newton_steps is None else newton_steps
    with mock.patch.object(initial, "_NEWTON_STEPS", steps), mock.patch.object(PositionLaw, "cdf", counted):
        assert law.invert(u).tobytes() == expected.tobytes()
    if newton_steps is None and law.density_floor() > 0.0:
        # every bracket held: no entry ran all 60 steps
        assert calls["cdf"] < 60
