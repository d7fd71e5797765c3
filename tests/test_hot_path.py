"""Joint and standalone events in d = 1 touch no whole-array routine.

A timing-free check that the cost of such an event does not grow with n: the
O(n) routines (all distances from a point, the partition-based rank lookup,
materialized positions) may run on one-sided events and at snapshots only.
"""

from collections import Counter

import numpy as np
import pytest
from test_coupling import kinetic_reference

from topolab import coupling, ranks, torus
from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial
from topolab.kernels import Kernel
from topolab.particle import simulate

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
        SNAPSHOTS, frozen_positions=frozen, record_events=False,
    )
    assert traj.event_count > 500
    # moving positions are materialized at each snapshot and at the end
    assert calls == (Counter() if frozen else Counter(transported=len(SNAPSHOTS) + 1))
