"""Spans recorded around calls into topolab's modules, from outside the package.

A `Tracer` replaces module attributes (functions and methods) with wrappers
that record one span per call: a name, start and end times, and the index of
the enclosing span.  Spans are kept in compact in-memory arrays and written
out once, when the benchmark ends.  `restore` puts every original back.

The per-layer metrics are medians per call over the spans of the traced
rounds; a layer's self time is its span minus its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

from topolab import coupling, experiments, kinetic, particle, ranks

# The sizes whose per-trial and per-batch times are reported by name.
STUDY_SIZES = (64, 128, 256, 512, 2048, 8192)


def _n_of_batch(config, reference, n, *args, **kwargs) -> str:
    return f".n{n}"


def _n_of_trial(kernel, reference, initial, *args, **kwargs) -> str:
    return f".n{initial.n}"


def _trial_counts(record) -> tuple[int, int, int, int, int]:
    # counts at the last snapshot, which every workload puts at the horizon
    return (
        int(record.event_count),
        int(record.joint[-1]),
        int(record.z_only[-1]),
        int(record.sigma_only[-1]),
        int(record.fresh[-1]),
    )


# (owner, attribute, span name, label, note); label adds a suffix to the span
# name from the call's arguments, note keeps a value from the call's result.
PHASE_POINTS = (
    (experiments, "run_trials", "experiments.run_trials", _n_of_batch, None),
    (experiments, "simulate", "particle.simulate", None, lambda traj: int(traj.event_count)),
)
LAYER_POINTS = (
    (experiments, "kinetic_solution", "experiments.kinetic_solution", None, None),
    (experiments, "solve", "kinetic.solve", None, None),
    (kinetic, "step", "kinetic.step", None, None),
    (kinetic, "gain_weights", "kinetic.gain_weights", None, None),
    (kinetic, "transport", "kinetic.transport", None, None),
    (experiments, "write_trials_csv", "experiments.write_trials_csv", None, None),
    (experiments, "sample_initial", "initial.sample_initial", None, None),
    (experiments, "run_coupled_trial", "coupling.trial", _n_of_trial, _trial_counts),
    (coupling, "coupled_event", "coupling.coupled_event", None, None),
    (coupling, "partner_distribution", "ranks.partner_distribution", None, None),
    (particle, "partner_distribution", "ranks.partner_distribution", None, None),
    (coupling, "categorical", "particle.categorical", None, None),
    (particle, "categorical", "particle.categorical", None, None),
    (coupling.SolutionReference, "ball_mass", "coupling.ball_mass", None, None),
    (coupling.SolutionReference, "fresh_velocity", "coupling.fresh_velocity", None, None),
    (coupling.CoupledState, "transport", "coupling.transport", None, None),
    (coupling, "tv_estimate", "coupling.tv_estimate", None, None),
    (coupling, "lln_diagnostic", "coupling.lln_diagnostic", None, None),
    (ranks.Configuration, "transported", "ranks.transported", None, None),
)


class Tracer:
    """In-memory span recorder that wraps module attributes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self.rounds: list[tuple[int, int, bool]] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, label=None, note=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name + label(*args, **kwargs) if label else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.notes[idx] = note(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self, layers: bool) -> None:
        """Wrap the phase boundaries, and with ``layers`` every layer as well."""
        for point in PHASE_POINTS + (LAYER_POINTS if layers else ()):
            self.wrap(*point)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self, prefix: str, since: int = 0) -> list[tuple[float, float]]:
        """(start, end) of the spans from index ``since`` whose name starts with prefix."""
        wanted = {i for i, nm in enumerate(self.names) if nm.startswith(prefix)}
        return [
            (self.start[k], self.end[k])
            for k in range(since, len(self.start))
            if self.name[k] in wanted
        ]

    def save(self, path: Path, info: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            rounds=np.array(self.rounds, dtype=np.int64).reshape(-1, 3),
            note_index=np.array(list(self.notes), dtype=np.int64),
            note_value=np.array([str(v) for v in self.notes.values()]),
            info=np.array(repr(info)),
        )


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the spans of the traced rounds: {name: (value, unit)}."""
    name = np.array(tracer.name, dtype=np.int32)
    parent = np.array(tracer.parent, dtype=np.int32)
    dur = np.array(tracer.end, dtype=np.float64) - np.array(tracer.start, dtype=np.float64)
    keep = np.zeros(len(name), dtype=bool)
    traced_rounds = 0
    for lo, hi, traced in tracer.rounds:
        if traced:
            keep[lo:hi] = True
            traced_rounds += 1
    ids = {nm: i for i, nm in enumerate(tracer.names)}
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def mask(nm: str) -> np.ndarray:
        return keep & (name == ids.get(nm, -1))

    def median(values: np.ndarray, scale: float) -> float:
        return float(np.median(values)) * scale if values.size else 0.0

    def per_call(nm: str, scale: float) -> float:
        return median(dur[mask(nm)], scale)

    def self_time(nm: str, scale: float) -> float:
        m = mask(nm)
        return median(dur[m] - child_sum[m], scale)

    out: dict[str, tuple[float, str]] = {}
    out["ranks.partner_distribution.us"] = (per_call("ranks.partner_distribution", 1e6), "us")
    out["coupling.coupled_event.us"] = (per_call("coupling.coupled_event", 1e6), "us")
    out["coupling.coupled_event.self_us"] = (self_time("coupling.coupled_event", 1e6), "us")
    in_event = mask("coupling.ball_mass") & (parent_name == ids.get("coupling.coupled_event", -2))
    out["coupling.ball_mass.us"] = (median(dur[in_event], 1e6), "us")
    out["coupling.transport.us"] = (per_call("coupling.transport", 1e6), "us")
    out["coupling.fresh_velocity.us"] = (per_call("coupling.fresh_velocity", 1e6), "us")
    fresh_calls = int(np.count_nonzero(mask("coupling.fresh_velocity")))
    out["coupling.fresh_velocity.calls"] = (fresh_calls / max(traced_rounds, 1), "count")

    # one snapshot = the two transported copies, tv_estimate and lln_diagnostic
    # that run_coupled_trial makes at a snapshot time, in that order
    trial_ids = [i for nm, i in ids.items() if nm.startswith("coupling.trial.")]
    in_trial = np.isin(parent_name, trial_ids)
    parts = keep & in_trial & np.isin(
        name,
        [ids.get(nm, -1) for nm in ("ranks.transported", "coupling.tv_estimate", "coupling.lln_diagnostic")],
    )
    closes = name[parts] == ids.get("coupling.lln_diagnostic", -1)
    group = np.cumsum(closes) - closes
    snaps = np.bincount(group, weights=dur[parts]) if closes.any() else np.zeros(0)
    out["coupling.snapshot.ms"] = (median(snaps, 1e3), "ms")
    for n in STUDY_SIZES:
        out[f"coupling.trial_s.n{n}"] = (per_call(f"coupling.trial.n{n}", 1.0), "s")

    counts = np.zeros(5)
    for k in np.nonzero(keep & np.isin(name, trial_ids))[0]:
        counts += tracer.notes[int(k)]
    counts /= max(traced_rounds, 1)
    events, joint, z_only, sigma_atom, fresh = counts
    out["coupling.events"] = (events, "count")
    out["coupling.joint"] = (joint, "count")
    out["coupling.z_only"] = (z_only, "count")
    out["coupling.sigma_atom"] = (sigma_atom, "count")
    out["coupling.fresh_draw"] = (fresh, "count")
    out["coupling.joint_per_event"] = (joint / events if events else 0.0, "ratio")

    out["particle.categorical.us"] = (per_call("particle.categorical", 1e6), "us")
    sim = np.nonzero(mask("particle.simulate"))[0]
    per_event = np.array([dur[k] / tracer.notes[int(k)] for k in sim if tracer.notes[int(k)]])
    out["particle.simulate.event_us"] = (median(per_event, 1e6), "us")
    out["initial.sample_initial.ms"] = (per_call("initial.sample_initial", 1e3), "ms")

    out["kinetic.step.ms"] = (per_call("kinetic.step", 1e3), "ms")
    out["kinetic.gain_weights.ms"] = (per_call("kinetic.gain_weights", 1e3), "ms")
    out["kinetic.transport.ms"] = (per_call("kinetic.transport", 1e3), "ms")
    out["kinetic.step.self_ms"] = (self_time("kinetic.step", 1e3), "ms")
    out["kinetic.solve.s"] = (per_call("kinetic.solve", 1.0), "s")
    solves = mask("kinetic.solve")
    cold = np.zeros(len(name), dtype=bool)
    cold[parent[solves & has_parent]] = True
    loads = mask("experiments.kinetic_solution")
    out["experiments.kinetic_solution.cold_s"] = (median(dur[loads & cold], 1.0), "s")
    out["experiments.kinetic_solution.warm_s"] = (median(dur[loads & ~cold], 1.0), "s")
    for n in STUDY_SIZES:
        out[f"experiments.run_trials.s.n{n}"] = (per_call(f"experiments.run_trials.n{n}", 1.0), "s")
    out["experiments.write_trials_csv.ms"] = (per_call("experiments.write_trials_csv", 1e3), "ms")
    return out
