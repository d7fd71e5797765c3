"""Property tests of the rank-first partner lookup and the rank draw."""

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


def test_partner_at_rank_errors():
    config = lattice_config(5, 1)
    for i, h in ((-1, 1), (5, 1), (0, -1), (0, 5)):
        with pytest.raises(IndexError):
            partner_at_rank(config, i, h)


class _FixedUniform:
    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


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
    h = draw_index(_FixedUniform(u), cdf)
    assert 1 <= h < n
    assert weights[h] > 0.0
    # inverse CDF: the drawn rank's segment of the cumulative weights holds u * total
    assert cdf[h - 1] <= u * cdf[-1] <= cdf[h]


def test_draw_index_past_the_total_takes_the_last_weighted_rank():
    # truncated_linear(0.5) weighs ranks up to half of n-1 only
    cdf = rank_cdf(Kernel.truncated_linear(0.5), 11)
    assert draw_index(_FixedUniform(1.0), cdf) == 4
    assert draw_index(_FixedUniform(0.0), cdf) == 1


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
        assert draw_index(_FixedUniform(u), seq) == old


_COORDS = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - 1e-17, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda d: arrays(np.float64, (12, d), elements=_COORDS)))
def test_pair_distance_is_the_distances_from_entry(points):
    # halves (Python round and np.round both go to even), ties and the wrap
    for i in range(len(points)):
        row = torus.distances_from(points, points[i])
        pair = np.array([torus.pair_distance(p, points[i]) for p in points])
        np.testing.assert_array_equal(pair.view(np.int64), row.view(np.int64))
