"""Joint and standalone events in d = 1 touch no whole-array routine, and their
partner lookup takes few radius probes.

Timing-free checks that the cost of such an event does not grow with n: the
O(n) routines (all distances from a point, the partition-based rank lookup,
materialized positions) may run on one-sided events and at snapshots only, and
a lookup's bisections are counted.
"""

from collections import Counter

import numpy as np
import pytest
from test_coupling import kinetic_reference

from topolab import coupling, ranks, torus
from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial, sample_initials
from topolab.kernels import Kernel
from topolab.particle import simulate
from topolab.ranks import Configuration

N = 4096
HORIZON = 0.25
SNAPSHOTS = (0.125, 0.25)
LAW = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())


@pytest.fixture
def calls(monkeypatch) -> Counter:
    counts: Counter = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(torus, "distances_from")
    count(ranks, "partner_at_rank")
    count(ranks.Configuration, "transported")
    return counts


def test_joint_events_touch_no_whole_array(calls, monkeypatch):
    kernel = Kernel.linear()
    reference = kinetic_reference(kernel, horizon=0.3, nx=64, amplitude=0.3)
    event = coupling.coupled_event
    in_events: Counter = Counter()
    kinds = Counter()

    def watched(state, kernel, reference, ranks_cdf, draws, diag, **kwargs):
        before, joint = Counter(calls), diag.joint
        event(state, kernel, reference, ranks_cdf, draws, diag, **kwargs)
        used = calls - before
        kinds["joint" if diag.joint > joint else "one-sided"] += 1
        if diag.joint > joint:
            assert not used, f"a joint event called {dict(used)}"
        in_events.update(used)

    monkeypatch.setattr(coupling, "coupled_event", watched)
    initial = sample_initial(LAW, N, 5)
    record = coupling.run_coupled_trial(
        kernel, reference, initial, HORIZON, np.random.default_rng(5), SNAPSHOTS
    )
    assert kinds["joint"] + kinds["one-sided"] == record.event_count > 500
    assert kinds["joint"] > 0.9 * record.event_count
    # outside the events: both worlds at each snapshot, and the
    # law-of-large-numbers diagnostic's distances at each snapshot
    outside = calls - in_events
    assert outside == Counter(transported=2 * len(SNAPSHOTS), distances_from=len(SNAPSHOTS))


@pytest.mark.parametrize("frozen", [False, True])
def test_standalone_events_touch_no_whole_array(calls, frozen):
    traj = simulate(
        Kernel.linear(), sample_initial(LAW, N, 6), HORIZON, np.random.default_rng(6),
        SNAPSHOTS, frozen_positions=frozen,
    )
    assert traj.event_count > 500
    # moving positions are materialized at each snapshot and at the end
    assert calls == (Counter() if frozen else Counter(transported=len(SNAPSHOTS) + 1))


def probes_per_lookup(monkeypatch, config: Configuration, times, lookups: int, seed: int) -> list[float]:
    """Radius probes of each `Configuration.partner_at_rank` call: its bisections over
    two per run (the arcs it reads again at near ties count too).  Every tenth
    partner is checked against `ranks.partner_at_rank` on the positions."""
    calls = Counter()

    def counted(original):
        def bisect(*args):
            calls["bisect"] += 1
            return original(*args)

        return bisect

    for name in ("bisect_left", "bisect_right"):
        monkeypatch.setattr(ranks, name, counted(getattr(ranks, name)))
    n = config.n
    cdf = ranks.rank_cdf(Kernel.linear(), n)
    rng = np.random.default_rng(seed)
    probes = []
    for k in range(lookups):
        i, h, t = int(rng.integers(n)), ranks.draw_index(rng.random(), cdf), times[k % len(times)]
        before = calls["bisect"]
        j = config.partner_at_rank(i, h, t)
        probes.append((calls["bisect"] - before) / (2 * len(config._runs)))
        if k % 10 == 0:
            assert j == ranks.partner_at_rank(config.transported(t), i, h)
    return probes


@pytest.mark.parametrize(("n", "bound"), [(512, 2.5), (8192, 3.25)])
def test_a_lookup_takes_few_probes_on_sampled_states(monkeypatch, n, bound):
    # 1.9-2.0 and 2.7-2.8 probes per lookup on average; a search that narrows
    # the radius until at most 4 particles remain takes 3.6 and 4.7
    for seed in (1, 2):
        probes = probes_per_lookup(monkeypatch, sample_initial(LAW, n, seed), (0.3,), 1000, seed)
        assert np.mean(probes) <= bound


@pytest.mark.parametrize("n", [512, 2048])
def test_a_lookup_takes_few_probes_on_a_lattice(monkeypatch, n):
    # n/48 particles of each velocity share each site of the 1/16 lattice, so
    # clusters of exact ties sit at every distance: at most 6 probes; a search
    # that narrows the radius down to 4 eps around a cluster takes up to 52
    sites = np.arange(n) % 16 / 16.0
    config = Configuration(sites, np.array([-1.0, 0.0, 1.0])[np.arange(n) % 3])
    probes = probes_per_lookup(monkeypatch, config, (0.0, 1.0 / 16, 0.5), 300, 5)
    assert max(probes) <= 8 and np.mean(probes) <= 5


def test_initial_positions_take_few_cdf_passes(monkeypatch):
    # the 60-step bisection evaluates the CDF 60 times; starting from the
    # bracket of step 43 it takes 17, after 5 Newton steps and 4 end checks
    calls = Counter()
    cdf = PositionLaw.cdf

    def counted(self, x):
        calls["cdf"] += 1
        return cdf(self, x)

    monkeypatch.setattr(PositionLaw, "cdf", counted)
    for seed in (1, 2):
        calls.clear()
        sample_initials(LAW, 8192, [seed])
        assert calls["cdf"] <= 30
