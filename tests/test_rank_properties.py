"""Property tests of the rank-first partner lookups (`partner_at_rank` and
`Configuration.partner_at_rank` on the sorted runs of comoving coordinates)
and of the rank draw."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from test_ranks import lattice_config  # noqa: E402

from topolab import torus  # noqa: E402
from topolab.kernels import (  # noqa: E402
    DegenerateNormalizationError,
    Kernel,
    preset_kernels,
    rate_normalization,
)
from topolab.ranks import (  # noqa: E402
    Configuration,
    draw_index,
    partner_at_rank,
    rank_cdf,
    rank_vector,
)


def assert_partner_is_stable_argsort(config: Configuration) -> None:
    for i in range(config.n):
        dist = torus.distances_from(config.positions, config.positions[i])
        dist[i] = -1.0
        order = np.argsort(dist, kind="stable")
        ranks = rank_vector(config, i)
        for h in range(config.n):
            j = partner_at_rank(config, i, h)
            assert j == order[h]
            assert ranks[j] == h


@st.composite
def configurations(draw) -> Configuration:
    """2 to 64 particles in d = 1 or 2: free floats (with repeats) or the 1/16 lattice."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 64))
    if draw(st.booleans()):
        return lattice_config(n, d)
    coords = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.25, 0.5, 0.75])
    return Configuration(draw(arrays(np.float64, (n, d), elements=coords)), np.zeros((n, d)))


@settings(max_examples=60, deadline=None)
@given(configurations())
def test_partner_at_rank_is_stable_argsort(config):
    assert_partner_is_stable_argsort(config)


@pytest.mark.parametrize("d", [1, 2])
def test_partner_at_rank_on_lattice_ties(d):
    # four particles per site of the 1/16 lattice: exact ties, also across the wrap
    assert_partner_is_stable_argsort(lattice_config(64, d))


# the velocity grid centres of the convergence config (nv = 5, v_max = 1.25),
# where fresh sigma-world velocities land, and a speed off that grid
_ATOMS = [-1.0, -0.5, 0.0, 0.5, 1.0, 0.3]
_TIMES = st.sampled_from([0.0, 1.0 / 16, 0.5, 1.0, 3.25]) | st.floats(0.0, 4.0)


@st.composite
def comoving_histories(draw) -> tuple[Configuration, list]:
    """A d = 1 configuration of comoving coordinates and a few (time, velocity switches)
    steps; positions are free floats (with repeats and the wrap edge) or the 1/16
    lattice, which multiples of 1/16 in time keep exact."""
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        positions = lattice_config(n, 1).positions
    else:
        coords = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.5, 0.75, 1.0 - 1e-17])
        positions = draw(arrays(np.float64, n, elements=coords))
    velocities = draw(arrays(np.float64, n, elements=st.sampled_from(_ATOMS)))
    switch = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1) | st.sampled_from(_ATOMS))
    steps = draw(st.lists(st.tuples(_TIMES, st.lists(switch, max_size=6)), min_size=1, max_size=3))
    return Configuration(positions, velocities), steps


def assert_runs_mirror(config: Configuration) -> None:
    """Each run holds, sorted, the u of every particle of its velocity and nothing else."""
    members = []
    for v, (us, ids) in config._runs.items():
        assert us == sorted(us)
        assert config.positions[ids, 0].tolist() == us
        assert np.all(config.velocities[ids, 0] == v)
        members += ids
    assert sorted(members) == list(range(config.n))


@settings(max_examples=60, deadline=None)
@given(comoving_histories(), st.booleans(), st.integers(0, 3))
def test_sorted_runs_find_the_partner_at_rank(history, moving, first_lookup):
    # after any sequence of velocity changes (copies of another particle's
    # velocity and fresh atoms), made before or after the first lookup builds
    # the runs, the lookup at time t is `partner_at_rank` on the positions at
    # that time for every (i, h).  Frozen positions (as `simulate` keeps them)
    # change velocities at time 0 and are looked up in a copy with velocity 0.
    config, steps = history
    lookup = config if moving else Configuration(config.positions, np.zeros(config.n))
    for step, (t, switches) in enumerate(steps):
        t = t if moving else 0.0
        if step >= first_lookup:
            positions = lookup.transported(t)
            for i in range(config.n):
                for h in range(config.n):
                    assert lookup.partner_at_rank(i, h, t) == partner_at_rank(positions, i, h)
        for i, source in switches:
            v = [source] if isinstance(source, float) else config.velocities[source].tolist()
            x = config.position(i, t)
            config.set_velocity(i, v, t)
            assert config.velocities[i].tolist() == v
            if t == 0.0:  # frozen positions never move
                assert config.position(i, t) == x
            else:  # the particle stays where it was, up to the rounding of the new u
                assert torus.pair_distance(config.position(i, t), x) <= 1e-15 * (1.0 + 2 * t)
        if config._runs is not None:
            assert_runs_mirror(config)
    assert (config._runs is None) == (not moving or first_lookup >= len(steps))
    t = steps[-1][0] if moving else 0.0
    positions = lookup.transported(t)
    for i in range(config.n):
        for h in range(config.n):
            assert lookup.partner_at_rank(i, h, t) == partner_at_rank(positions, i, h)
    assert_runs_mirror(lookup)


def test_sorted_runs_errors_and_two_dimensions():
    config = lattice_config(5, 1)
    for i, h in ((-1, 1), (5, 1), (0, -1), (0, 5)):
        with pytest.raises(IndexError):
            config.partner_at_rank(i, h, 0.0)
    # runs belong to the configuration that built them: copies and
    # transported configurations start without any
    config.partner_at_rank(0, 1, 0.0)
    assert config._runs is not None
    assert config.copy()._runs is None and config.transported(0.5)._runs is None
    # d = 2 has no runs: the lookup is `partner_at_rank` on the materialized positions
    rng = np.random.default_rng(3)
    config = Configuration(rng.uniform(0.0, 1.0, (30, 2)), rng.choice([-1.0, 0.0, 1.0], (30, 2)))
    moved = config.transported(0.7)
    for i in range(30):
        for h in range(30):
            assert config.partner_at_rank(i, h, 0.7) == partner_at_rank(moved, i, h)
        config.set_velocity(i, [0.5, -0.5], 0.7)
    assert config._runs is None


def test_partner_at_rank_errors():
    config = lattice_config(5, 1)
    for i, h in ((-1, 1), (5, 1), (0, -1), (0, 5)):
        with pytest.raises(IndexError):
            partner_at_rank(config, i, h)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 300),
    st.sampled_from(sorted(preset_kernels())),
    st.floats(0.0, 1.0, exclude_max=True) | st.just(1.0 - 2.0**-53),
)
def test_draw_index_lands_on_a_weighted_rank(n, preset, u):
    kernel = preset_kernels()[preset]
    weights = kernel(np.arange(n) / (n - 1))
    weights[0] = 0.0
    if weights.sum() <= 0.0:  # K(1) = 0 with two particles
        with pytest.raises(DegenerateNormalizationError):
            rank_cdf(kernel, n)
        return
    cdf = rank_cdf(kernel, n)
    np.testing.assert_array_equal(cdf, np.cumsum(weights))
    # coupled_event takes alpha as 1 / cdf[-1]
    assert 1.0 / cdf[-1] == pytest.approx(rate_normalization(kernel, n), rel=1e-12)
    h = draw_index(u, cdf)
    assert 1 <= h < n
    assert weights[h] > 0.0
    # inverse CDF: the drawn rank's segment of the cumulative weights holds u * total
    assert cdf[h - 1] <= u * cdf[-1] <= cdf[h]


def test_draw_index_past_the_total_takes_the_last_weighted_rank():
    # truncated_linear(0.5) weighs ranks up to half of n-1 only
    cdf = rank_cdf(Kernel.truncated_linear(0.5), 11)
    assert draw_index(1.0, cdf) == 4
    assert draw_index(0.0, cdf) == 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 300),
    st.sampled_from(sorted(preset_kernels())),
    st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0 - 2.0**-53, 1.0]),
)
def test_draw_index_bisect_is_the_old_searchsorted(n, preset, u):
    kernel = preset_kernels()[preset]
    try:
        cdf = rank_cdf(kernel, n)
    except DegenerateNormalizationError:
        return
    hand = [0.0, 1.0, 1.0, 3.0, 3.0, 3.0]  # flat runs inside and at the end
    for seq in (cdf, np.asarray(cdf), hand, np.asarray(hand)):
        arr = np.asarray(seq)
        old = int(np.searchsorted(arr, u * arr[-1], side="right"))
        if old == arr.size:
            old = int(np.searchsorted(arr, arr[-1]))
        assert draw_index(u, seq) == old


_COORDS = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - 1e-17, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda d: arrays(np.float64, (12, d), elements=_COORDS)))
def test_pair_distance_is_the_distances_from_entry(points):
    # halves (Python round and np.round both go to even), ties and the wrap
    for i in range(len(points)):
        row = torus.distances_from(points, points[i])
        pair = np.array([torus.pair_distance(p, points[i]) for p in points])
        np.testing.assert_array_equal(pair.view(np.int64), row.view(np.int64))
