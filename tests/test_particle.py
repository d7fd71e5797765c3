import numpy as np
import pytest
from scipy import stats

from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial
from topolab.kernels import Kernel
from topolab.particle import (
    categorical,
    empirical_marginal,
    frozen_label_trials,
    label_states,
    master_equation_law,
    simulate,
    total_variation,
)
from topolab.ranks import Configuration


def two_point_law() -> InitialLaw:
    return InitialLaw((PositionLaw.uniform(),), VelocityLaw.two_point())


def test_categorical_skips_zero_probability_atoms():
    rng = np.random.default_rng(0)
    probs = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    draws = {categorical(rng, probs) for _ in range(200)}
    assert draws == {1, 3}

    class TopUniform:  # a uniform that rounds u * total up to the total
        def random(self) -> float:
            return 1.0

    assert categorical(TopUniform(), probs) == 3


def test_two_particles_forced_partner():
    # with one partner each, the first event copies one velocity onto the other
    initial = Configuration(np.array([0.1, 0.6]), np.array([-1.0, 1.0]))
    traj = simulate(Kernel.uniform(), initial, 5.0, np.random.default_rng(1))
    assert traj.event_count >= 1
    assert traj.final.velocities[0, 0] == traj.final.velocities[1, 0]
    assert traj.final.velocities[0, 0] in (-1.0, 1.0)
    assert np.all(np.diff(traj.event_times) > 0)


def test_two_particles_first_event_time_mean():
    # the clock rings at rate n=2, so the first gap averages 1/2
    gaps = []
    for seed in range(2000):
        initial = Configuration(np.array([0.1, 0.6]), np.array([-1.0, 1.0]))
        traj = simulate(Kernel.uniform(), initial, 10.0, np.random.default_rng(seed))
        gaps.append(traj.event_times[0])
    mean = np.mean(gaps)
    assert abs(mean - 0.5) < 3 * 0.5 / np.sqrt(len(gaps))


def test_event_pairs_uniform_under_flat_kernel():
    # K = 1 weighs every rank equally, so ordered pairs (i, j) are uniform
    n = 8
    initial = sample_initial(two_point_law(), n, 7)
    traj = simulate(Kernel.uniform(), initial, 100_000 / n, np.random.default_rng(42))
    counts = np.zeros((n, n))
    np.add.at(counts, (traj.event_focal, traj.event_partner), 1)
    observed = counts[~np.eye(n, dtype=bool)]
    res = stats.chisquare(observed)
    assert res.pvalue > 0.01


def test_velocity_support_conservation():
    initial = sample_initial(two_point_law(), 32, 11)
    traj = simulate(Kernel.linear(), initial, 2.0, np.random.default_rng(3))
    initial_support = set(np.unique(initial.velocities))
    assert set(np.unique(traj.final.velocities)) <= initial_support


def test_event_count_poisson_mean():
    n, horizon = 64, 20.0
    initial = sample_initial(two_point_law(), n, 5)
    traj = simulate(Kernel.uniform(), initial, horizon, np.random.default_rng(5))
    expected = n * horizon
    assert abs(traj.event_count - expected) < 3 * np.sqrt(expected)


def test_event_count_dispersion():
    # variance/mean of a Poisson count is 1; chi-square dispersion test
    n, horizon, trials = 16, 1.0, 1000
    counts = []
    law = two_point_law()
    for seed in range(trials):
        initial = sample_initial(law, n, seed + 10_000)
        traj = simulate(Kernel.uniform(), initial, horizon, np.random.default_rng(seed))
        counts.append(traj.event_count)
    counts = np.asarray(counts, dtype=float)
    dispersion = counts.var(ddof=1) / counts.mean()
    statistic = (trials - 1) * dispersion
    lo, hi = stats.chi2.ppf([0.005, 0.995], trials - 1)
    assert lo < statistic < hi


def test_mean_velocity_preserved_in_expectation_flat_kernel():
    # partner choice is uniform under K = 1, so E[sum v] is constant in time
    n, trials = 16, 10_000
    law = two_point_law()
    diffs = np.empty(trials)
    for seed in range(trials):
        initial = sample_initial(law, n, seed)
        rng = np.random.default_rng(seed)
        traj = simulate(Kernel.uniform(), initial, 1.0, rng)
        diffs[seed] = traj.final.velocities.mean() - initial.velocities.mean()
    stderr = diffs.std(ddof=1) / np.sqrt(trials)
    assert abs(diffs.mean()) < 3 * stderr


def test_determinism_bitwise():
    initial = sample_initial(two_point_law(), 24, 1)
    a = simulate(Kernel.linear(), initial, 1.5, np.random.default_rng(99), (0.5, 1.0))
    b = simulate(Kernel.linear(), initial, 1.5, np.random.default_rng(99), (0.5, 1.0))
    np.testing.assert_array_equal(a.event_times, b.event_times)
    np.testing.assert_array_equal(a.event_focal, b.event_focal)
    np.testing.assert_array_equal(a.event_partner, b.event_partner)
    np.testing.assert_array_equal(a.final.positions, b.final.positions)
    np.testing.assert_array_equal(a.snapshots[0.5].velocities, b.snapshots[0.5].velocities)


def test_snapshots_follow_free_streaming():
    initial = sample_initial(two_point_law(), 4, 2)
    traj = simulate(Kernel.uniform(), initial, 1.0, np.random.default_rng(2), (0.0, 0.25, 1.0))
    np.testing.assert_array_equal(traj.snapshots[0.0].positions, initial.positions)
    assert set(traj.snapshots) == {0.0, 0.25, 1.0}
    np.testing.assert_array_equal(traj.snapshots[1.0].positions, traj.final.positions)


def test_snapshots_do_not_alias_live_state():
    # velocities recorded at an early time must not change when later jumps
    # mutate the simulation state
    initial = sample_initial(two_point_law(), 8, 12)
    traj = simulate(Kernel.uniform(), initial, 4.0, np.random.default_rng(12), (0.0, 4.0))
    np.testing.assert_array_equal(traj.snapshots[0.0].velocities, initial.velocities)
    assert not np.array_equal(traj.snapshots[4.0].velocities, initial.velocities)


def test_frozen_positions_stay_put():
    initial = sample_initial(two_point_law(), 5, 8)
    traj = simulate(Kernel.linear(), initial, 3.0, np.random.default_rng(8), frozen_positions=True)
    np.testing.assert_array_equal(traj.final.positions, initial.positions)
    assert traj.event_count > 0


def test_simulate_validates_inputs():
    kernel, rng = Kernel.uniform(), np.random.default_rng(0)
    initial = sample_initial(two_point_law(), 4, 0)
    with pytest.raises(ValueError):
        simulate(kernel, initial, 1.0, rng, snapshot_times=(2.0,))
    with pytest.raises(ValueError):
        simulate(kernel, initial, -0.25, rng)
    with pytest.raises(ValueError):  # a single particle has no partner
        simulate(kernel, Configuration(np.array([0.1]), np.array([1.0])), 1.0, rng)


# -- master equation -----------------------------------------------------------


def frozen_config_n3() -> Configuration:
    return Configuration(np.array([0.1, 0.35, 0.7]), np.array([0.0, 1.0, 2.0]))


def test_master_equation_t0_is_delta():
    config = frozen_config_n3()
    law = master_equation_law(config, Kernel.linear(), np.array([0, 1, 2]), 0.0, alphabet=3)
    states = label_states(3, 3)
    assert law[states.index((0, 1, 2))] == pytest.approx(1.0, abs=1e-12)
    assert law.sum() == pytest.approx(1.0, abs=1e-10)


def test_master_equation_consensus_is_absorbing():
    config = frozen_config_n3()
    for label in range(3):
        start = np.full(3, label)
        law = master_equation_law(config, Kernel.linear(), start, 2.0, alphabet=3)
        states = label_states(3, 3)
        assert law[states.index((label, label, label))] == pytest.approx(1.0, abs=1e-10)


def test_master_equation_n2_analytic():
    # from (a,b): survive with e^{-2t}, otherwise consensus, symmetric halves
    config = Configuration(np.array([0.2, 0.6]), np.array([0.0, 1.0]))
    t = 0.7
    law = master_equation_law(config, Kernel.uniform(), np.array([0, 1]), t, alphabet=2)
    states = label_states(2, 2)
    survive = np.exp(-2 * t)
    assert law[states.index((0, 1))] == pytest.approx(survive, abs=1e-12)
    assert law[states.index((0, 0))] == pytest.approx((1 - survive) / 2, abs=1e-12)
    assert law[states.index((1, 1))] == pytest.approx((1 - survive) / 2, abs=1e-12)
    assert law[states.index((1, 0))] == pytest.approx(0.0, abs=1e-12)


def test_master_equation_refuses_large_state_space():
    config = Configuration(np.random.default_rng(0).uniform(0, 1, 5), np.zeros(5))
    with pytest.raises(ValueError):
        master_equation_law(config, Kernel.uniform(), np.zeros(5, dtype=int), 1.0, alphabet=4)


def test_vectorized_frozen_trials_match_simulate():
    # the batched label runner must agree with the event-driven simulator
    config = frozen_config_n3()
    kernel = Kernel.linear()
    labels0 = np.array([0, 1, 2])
    t, trials = 1.0, 5000
    rng = np.random.default_rng(31)
    fast = frozen_label_trials(config, kernel, labels0, t, trials, rng, alphabet=3)

    counts = np.zeros(27)
    states = label_states(3, 3)
    index = {s: k for k, s in enumerate(states)}
    for seed in range(trials):
        initial = Configuration(config.positions.copy(), np.array([0.0, 1.0, 2.0]))
        rng = np.random.default_rng(seed + 50_000)
        traj = simulate(kernel, initial, t, rng, frozen_positions=True)
        key = tuple(int(v) for v in traj.final.velocities[:, 0])
        counts[index[key]] += 1
    slow = counts / trials
    # two independent 5000-sample estimates of the same law
    assert total_variation(fast, slow) < 0.04


def test_frozen_trials_match_master_equation():
    config = frozen_config_n3()
    kernel = Kernel.linear()
    labels0 = np.array([0, 1, 2])
    rng = np.random.default_rng(123)
    mc = frozen_label_trials(config, kernel, labels0, 1.0, 40_000, rng, alphabet=3)
    exact = master_equation_law(config, kernel, labels0, 1.0, alphabet=3)
    assert total_variation(mc, exact) < 0.015


def test_two_dimensional_simulate():
    from topolab.initial import InitialLaw, PositionLaw, VelocityLaw

    law = InitialLaw((PositionLaw.uniform(), PositionLaw.cosine(0.2)), VelocityLaw.four_point())
    initial = sample_initial(law, 24, 4)
    traj = simulate(Kernel.linear(), initial, 1.0, np.random.default_rng(4), (1.0,))
    assert traj.final.positions.shape == (24, 2)
    assert np.all(traj.final.positions >= 0) and np.all(traj.final.positions < 1)
    # adopted velocities stay within the initial atom rows
    initial_rows = {tuple(v) for v in initial.velocities}
    assert {tuple(v) for v in traj.final.velocities} <= initial_rows


def test_empirical_marginal_single_cell_and_consensus():
    # all particles in one phase-space cell puts the whole mass there
    config = Configuration(np.array([0.1, 0.12, 0.13]), np.array([1.0, 1.0, 1.0]))
    masses = empirical_marginal(config, np.linspace(0, 1, 5), np.linspace(-1.25, 1.25, 6))
    assert masses[0, 4] == pytest.approx(1.0)
    assert masses.sum() == pytest.approx(1.0)
    # consensus velocities give a single-atom velocity marginal
    assert np.count_nonzero(masses.sum(axis=0)) == 1


def test_empirical_marginal_monte_carlo_rate():
    # TV between the pooled t=0 histogram and the binned initial law decays
    # like C/sqrt(n); C is fitted empirically and each size stays within 2C
    from topolab.initial import InitialLaw, PositionLaw, VelocityLaw

    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    x_edges = np.linspace(0, 1, 9)
    v_edges = np.linspace(-1.25, 1.25, 6)
    binned = np.outer(
        law.positions[0].cell_masses(x_edges), law.velocity.cell_masses(v_edges)
    )
    ns = [256, 1024, 4096]
    means = []
    for n in ns:
        tvs = [
            0.5
            * np.abs(
                empirical_marginal(sample_initial(law, n, 900 + n + k), x_edges, v_edges)
                - binned
            ).sum()
            for k in range(40)
        ]
        means.append(np.mean(tvs))
    scale = np.mean([m * np.sqrt(n) for m, n in zip(means, ns)])
    for mean, n in zip(means, ns):
        assert mean <= 2.0 * scale / np.sqrt(n)
    assert means[0] > means[1] > means[2]


def test_empirical_marginal_masses():
    config = Configuration(np.array([0.1, 0.3, 0.9]), np.array([-1.0, 1.0, 1.0]))
    x_edges = np.linspace(0, 1, 3)
    v_edges = np.array([-1.25, 0.0, 1.25])
    masses = empirical_marginal(config, x_edges, v_edges)
    assert masses.sum() == pytest.approx(1.0)
    assert masses[0, 0] == pytest.approx(1 / 3)  # x=0.1, v=-1
    assert masses[0, 1] == pytest.approx(1 / 3)  # x=0.3, v=1
    assert masses[1, 1] == pytest.approx(1 / 3)  # x=0.9, v=1
    with pytest.raises(ValueError):
        empirical_marginal(config, x_edges, np.array([-0.5, 0.5]))


def test_empirical_marginal_closes_only_the_last_bin():
    x_edges = np.array([0.0, 0.25, 0.5])
    v_edges = np.array([-1.0, 0.0, 1.0])
    config = Configuration(np.array([0.25, 0.5, 0.5, 0.75]), np.array([0.0, 1.0, -1.0, 1.0]))
    # x = 0.25 opens the second bin, x = 0.5 (the last edge) closes it, x = 0.75 drops out
    assert empirical_marginal(config, x_edges, v_edges).tolist() == [[0.0, 0.0], [0.25, 0.5]]
