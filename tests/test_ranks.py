import numpy as np
import pytest

from topolab import torus
from topolab.kernels import (
    DegenerateNormalizationError,
    Kernel,
    preset_kernels,
    rate_normalization,
)
from topolab.ranks import (
    Configuration,
    empirical_mass,
    normalized_ranks,
    partner_distribution,
    rank_vector,
)


def brute_force_rank(config: Configuration, i: int, j: int) -> int:
    """Independent oracle: full sort of (distance, index) pairs per focal."""
    keyed = sorted(
        (float(torus.distance(config.positions[h], config.positions[i])), h)
        for h in range(config.n)
        if h != i
    )
    return [h for _, h in keyed].index(j) + 1


def random_config(n: int, d: int, seed: int) -> Configuration:
    rng = np.random.default_rng(seed)
    return Configuration(rng.uniform(0, 1, (n, d)), rng.normal(0, 1, (n, d)))


def lattice_config(n: int, d: int) -> Configuration:
    """Positions on multiples of 1/16: n/16 particles share each site, so
    distances tie exactly, also across the wrap."""
    k = np.arange(n) % 16
    coords = np.stack([k, 5 * k % 16], axis=1)[:, :d] / 16.0
    return Configuration(coords, np.zeros((n, d)))


def test_four_particle_line_with_torus_tie():
    # torus distance from 0.0 to 0.7 is 0.3, tying particle 2 (up to float
    # rounding of the wrap); the lower index comes first either way
    config = Configuration(np.array([0.0, 0.1, 0.3, 0.7]), np.zeros(4))
    assert list(rank_vector(config, 0)) == [0, 1, 2, 3]


def test_exact_tie_is_broken_by_index():
    # 0.25 and 0.75 are exactly representable; both sit at distance 0.25 from 0
    config = Configuration(np.array([0.0, 0.25, 0.75, 0.5]), np.zeros(4))
    assert list(rank_vector(config, 0)) == [0, 1, 2, 3]


def test_two_particles():
    config = Configuration(np.array([0.2, 0.9]), np.zeros(2))
    assert rank_vector(config, 0)[1] == 1
    assert rank_vector(config, 1)[0] == 1


def test_rank_errors():
    config = random_config(5, 1, 0)
    for focal in (-1, config.n):
        with pytest.raises(IndexError):
            rank_vector(config, focal)


@pytest.mark.parametrize("d", [1, 2])
def test_rank_matches_brute_force_64(d):
    for config in (random_config(64, d, seed=101 + d), lattice_config(64, d)):
        for i in range(config.n):
            ranks = rank_vector(config, i)
            for j in range(config.n):
                if j != i:
                    assert ranks[j] == brute_force_rank(config, i, j)


def test_rank_is_bijection():
    config = random_config(41, 1, seed=5)
    for i in range(config.n):
        ranks = rank_vector(config, i)
        others = np.delete(ranks, i)
        assert sorted(others) == list(range(1, config.n))


def test_empirical_mass_examples():
    # dyadic positions so the wrapped distance to 0.75 is exactly 0.25
    config = Configuration(np.array([0.0, 0.125, 0.25, 0.75]), np.zeros(4))
    # closed ball of radius 0.25 around 0 catches 0.125, 0.25 and (via the wrap) 0.75
    assert empirical_mass(config, 0.0, 0.25, exclude=0) == 1.0
    assert empirical_mass(config, 0.0, 0.0, exclude=0) == 0.0
    assert empirical_mass(config, 0.0, 0.05, exclude=0) == 0.0
    assert empirical_mass(config, 0.0, 0.125, exclude=0) == pytest.approx(1.0 / 3.0)


def test_empirical_mass_radius_validation():
    config = random_config(4, 1, 0)
    with pytest.raises(ValueError):
        empirical_mass(config, 0.1, -0.5, exclude=0)
    with pytest.raises(IndexError):
        empirical_mass(config, 0.1, 0.5, exclude=9)


@pytest.mark.parametrize("d", [1, 2])
def test_mass_equals_normalized_rank(d):
    config = random_config(128, d, seed=23 + d)
    for i in range(0, config.n, 13):
        norm_ranks = normalized_ranks(config, i)
        for j in range(0, config.n, 7):
            if j == i:
                continue
            radius = float(torus.distance(config.positions[i], config.positions[j]))
            mass = empirical_mass(config, config.positions[i], radius, exclude=i)
            assert mass == pytest.approx(norm_ranks[j], abs=1e-15)


def test_transition_probs_uniform_kernel():
    config = random_config(4, 1, seed=3)
    probs = partner_distribution(config, Kernel.uniform(), 2)
    expected = np.full(4, 1.0 / 3.0)
    expected[2] = 0.0
    np.testing.assert_allclose(probs, expected, atol=1e-15)


def test_transition_probs_linear_n3_nearest_takes_all():
    config = Configuration(np.array([0.1, 0.35, 0.7]), np.zeros(3))
    probs = partner_distribution(config, Kernel.linear(), 0)
    # normalized ranks are 1/2 and 1; K(1/2)=1, K(1)=0
    assert probs[1] == pytest.approx(1.0)
    assert probs[2] == 0.0


@pytest.mark.parametrize("name", ["uniform", "linear", "truncated_linear", "tabulated"])
def test_transition_probs_sum_to_one_and_forms_agree(name):
    kernel = preset_kernels()[name]
    for n in (3, 10, 100, 1000):
        config = random_config(n, 1, seed=n)
        alpha = rate_normalization(kernel, n)
        for i in (0, n // 2):
            probs = partner_distribution(config, kernel, i)
            assert abs(probs.sum() - 1.0) <= 1e-12
            direct = alpha * kernel(normalized_ranks(config, i))
            direct[i] = 0.0
            np.testing.assert_allclose(probs, direct, atol=1e-12, rtol=0)


def test_transition_probs_translation_invariant():
    kernel = preset_kernels()["tabulated"]
    rng = np.random.default_rng(17)
    for d in (1, 2):
        config = random_config(50, d, seed=29 + d)
        shift = rng.uniform(0, 1, d)
        shifted = Configuration(config.positions + shift, config.velocities)
        for i in (0, 7, 49):
            np.testing.assert_allclose(
                partner_distribution(config, kernel, i),
                partner_distribution(shifted, kernel, i),
                atol=1e-12,
            )


def test_transition_probs_degenerate_two_particles():
    config = Configuration(np.array([0.0, 0.4]), np.zeros(2))
    with pytest.raises(DegenerateNormalizationError):
        partner_distribution(config, Kernel.linear(), 0)
    # a kernel positive at rank 1 is fine with two particles
    probs = partner_distribution(config, Kernel.uniform(), 0)
    assert probs[1] == 1.0


def test_configuration_wraps_and_validates():
    config = Configuration(np.array([1.2, -0.3]), np.zeros(2))
    np.testing.assert_allclose(config.positions[:, 0], [0.2, 0.7])
    with pytest.raises(ValueError):
        Configuration(np.array([0.1]), np.array([0.0]))
    with pytest.raises(ValueError):
        Configuration(np.zeros((3, 3)), np.zeros((3, 3)))


def test_wrap_and_1d_distances_keep_the_old_bits():
    # x - floor(x) and |delta| replace np.mod(x, 1) and sqrt(delta^2); the
    # event stream is pinned byte for byte, so they must agree to the bit
    edges = np.array(
        [-1.0, -0.0, 0.0, -1e-17, 1.0 - 1e-17, 1.0, 5e-324, -5e-324, -2.5, 3.75, 1e17, -1e17]
    )
    rng = np.random.default_rng(42)
    x = np.concatenate([edges, rng.uniform(-3.0, 3.0, 100_000), rng.normal(0.0, 1e-12, 1000)])
    np.testing.assert_array_equal(torus.wrap(x).view(np.int64), np.mod(x, 1.0).view(np.int64))

    points = torus.wrap(rng.uniform(0.0, 1.0, (100_000, 1)))
    for center in (points[0], np.array([0.0]), np.array([0.5]), np.array([1.0 - 1e-17])):
        delta = torus.coordinate_delta(points, center[np.newaxis, :])
        old = np.sqrt(np.sum(delta * delta, axis=1))
        new = torus.distances_from(points, center)
        np.testing.assert_array_equal(new.view(np.int64), old.view(np.int64))

    # the one difference: once delta * delta underflows (|delta| below about
    # 1e-154), sqrt(delta^2) loses digits or returns 0, while |delta| is exact
    tiny = np.array([[1e-150], [1e-155], [1e-160], [1e-162], [5e-324], [-5e-324]])
    center = np.array([0.0])
    delta = torus.coordinate_delta(tiny, center[np.newaxis, :])[:, 0]
    new = torus.distances_from(tiny, center)
    np.testing.assert_array_equal(new, np.abs(tiny[:, 0]))
    old = np.sqrt(delta * delta)
    np.testing.assert_array_equal(old == new, [True, False, False, False, False, False])
    np.testing.assert_array_equal(old[3:], 0.0)


def test_in_place_passes_keep_the_old_bits():
    # the 1-d distances on one buffer replace the expression below; the event
    # stream is pinned byte for byte
    rng = np.random.default_rng(7)
    points = np.concatenate([torus.wrap(rng.uniform(0.0, 1.0, (20_000, 1))), [[0.0], [0.5], [1.0]]])
    for center in (points[0], np.array([0.0]), np.array([0.25]), np.array([1.0 - 1e-17])):
        old = np.abs(torus.coordinate_delta(points, center[np.newaxis, :])[:, 0])
        new = torus.distances_from(points, center)
        np.testing.assert_array_equal(new.view(np.int64), old.view(np.int64))

