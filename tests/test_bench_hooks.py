"""The package names that the benchmark wraps from outside (bench/spans.py) must stay.

The benchmark replaces module attributes with timing wrappers and labels
some spans from a call's leading arguments, so a renamed function or a
reordered parameter breaks it without breaking any other test.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

from topolab import experiments
from topolab.coupling import TrialRecord
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
