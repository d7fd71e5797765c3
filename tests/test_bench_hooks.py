"""The package names that the benchmark wraps from outside (bench/spans.py) must stay.

The benchmark replaces module attributes with timing wrappers and labels
some spans from a call's leading arguments, so a renamed function or a
reordered parameter breaks it without breaking any other test.
"""

import dataclasses
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

from topolab import coupling, experiments, particle, ranks
from topolab.coupling import TrialRecord, UniformReference
from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial
from topolab.kernels import Kernel
from topolab.particle import Trajectory

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = _load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in spans.PHASE_POINTS + spans.LAYER_POINTS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_labelled_calls_keep_their_leading_parameters():
    def leading(fn, count):
        return list(inspect.signature(fn).parameters)[:count]

    assert leading(experiments.run_trials, 3) == ["config", "reference", "n"]
    assert leading(experiments.run_coupled_trial, 3) == ["kernel", "reference", "initial"]
    # the fields that the spans' notes read
    fields = {f.name for f in dataclasses.fields(TrialRecord)}
    assert {"event_count", "joint", "z_only", "sigma_only", "fresh"} <= fields
    assert "event_count" in {f.name for f in dataclasses.fields(Trajectory)}


def test_a_study_makes_the_calls_that_the_benchmark_times(tmp_path, monkeypatch):
    # each call is logged with the index of the call it ran inside, as bench/spans.py nests spans
    calls: list[tuple[str, int]] = []
    open_calls: list[int] = []

    def count(owner, attr):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append((attr, open_calls[-1] if open_calls else -1))
            open_calls.append(len(calls) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                open_calls.pop()

        monkeypatch.setattr(owner, attr, counted)

    for owner, attr in (
        (experiments, "run_trials"),
        (experiments, "run_coupled_trial"),
        (coupling, "coupled_event"),
        (coupling, "tv_estimate"),
        (coupling, "lln_diagnostic"),
        (ranks.Configuration, "transported"),
    ):
        count(owner, attr)
    spec = {
        "version": 1,
        "seed": 5,
        "kernel": {"form": "linear"},
        "initial": {
            "position": {"form": "cosine", "amplitude": 0.3},
            "velocity": {"form": "two_point", "speed": 1.0},
        },
        "kinetic": {"nx": 64, "nv": 5, "v_max": 1.25, "dt": 0.01, "snapshot_spacing": 0.02},
        "system": {"n": 8, "dimension": 1, "horizon": 0.5},
        "snapshot_times": [0.125, 0.25, 0.5],
        "convergence": {"n_values": [8, 16], "trials": 3, "fit": False},
    }
    experiments.run_convergence(experiments.ExperimentConfig.from_json(spec), tmp_path, threads=1)

    batches = [k for k, (name, _) in enumerate(calls) if name == "run_trials"]
    assert len(batches) == 2  # one per size
    for batch in batches:
        trials = [k for k, (name, parent) in enumerate(calls) if parent == batch]
        assert [calls[k][0] for k in trials] == ["run_coupled_trial"] * 3  # one per trial
        for trial in trials:
            snapshot_calls = [name for name, parent in calls if parent == trial and name != "coupled_event"]
            assert snapshot_calls == ["transported", "transported", "tv_estimate", "lln_diagnostic"] * 3
    assert sum(name == "run_coupled_trial" for name, _ in calls) == 6


def test_the_runs_draw_ranks_and_hand_over_z_through_the_wrapped_attributes(monkeypatch):
    # the tests log ranks and Z snapshots by wrapping these module attributes
    # (criterion 6 in tests/test_acceptance.py), so an inlined call must fail here
    calls = Counter()

    def count(owner, attr):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    initial = sample_initial(law, 16, 7)
    times = (0.25, 0.5)
    count(coupling, "draw_index")
    count(coupling, "tv_estimate")
    rec = coupling.run_coupled_trial(
        Kernel.linear(), UniformReference(law.velocity), initial, 0.5, np.random.default_rng(7),
        times, (np.linspace(0.0, 1.0, 9), np.linspace(-1.25, 1.25, 6)),
    )
    assert calls == Counter(draw_index=rec.event_count, tv_estimate=len(times))
    assert rec.event_count > 0

    calls.clear()
    count(particle, "draw_index")
    traj = particle.simulate(Kernel.linear(), initial, 0.5, np.random.default_rng(7), times)
    assert calls == Counter(draw_index=traj.event_count)
    assert traj.event_count > 0
