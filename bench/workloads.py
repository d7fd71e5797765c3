"""The benchmark's workloads: inputs, one timed round, and the checks on its outputs.

Every workload uses the law of configs/convergence.json (linear kernel,
cosine(0.3) positions, two-point velocities) and reaches the package only
through its public entry points, called as attributes of their modules so
that a `Tracer` can wrap them.  A round writes the config to disk, then
times loading it and the workload's work up to its last output; the checks
run after the clock stops.  Rounds with the same seed repeat the same work,
so their outputs must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import D_N, require
from topolab import experiments
from topolab.experiments import ExperimentConfig

LAW = {
    "kernel": {"form": "linear"},
    "initial": {
        "position": {"form": "cosine", "amplitude": 0.3},
        "velocity": {"form": "two_point", "speed": 1.0},
    },
}
UNIFORM_POSITION = {"form": "uniform"}


def config_spec(
    seed: int,
    *,
    horizon: float,
    nx: int,
    n: int = 64,
    n_values: tuple[int, ...] = (),
    trials: int = 1,
    fit: bool = False,
    position: dict | None = None,
) -> dict:
    """A version-1 config of the convergence law with four snapshots up to the horizon."""
    initial = dict(LAW["initial"])
    if position is not None:
        initial["position"] = position
    return {
        "version": 1,
        "seed": seed,
        "kernel": LAW["kernel"],
        "initial": initial,
        "kinetic": {"nx": nx, "nv": 5, "v_max": 1.25, "dt": 0.01, "snapshot_spacing": 0.02},
        "system": {"n": n, "dimension": 1, "horizon": horizon},
        "snapshot_times": snapshot_times(horizon),
        "coupling": {"tv_bins_x": 8},
        "convergence": {"n_values": list(n_values), "trials": trials, "fit": fit},
    }


def snapshot_times(horizon: float) -> list[float]:
    return [round(horizon * k / 4, 10) for k in range(1, 5)]


def _write_config(out: Path, name: str, spec: dict) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _load_config(path: Path) -> ExperimentConfig:
    return ExperimentConfig.from_json(path.read_text(encoding="utf-8"))


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class Round:
    """Timings and output digest of one round of a workload."""

    setup_s: float
    wall_s: float
    events: int
    event_s: float
    digest: str


@dataclass(frozen=True)
class Study:
    """`run_convergence` over a set of sizes, from a cold kinetic cache.

    Operations are trials; events are the jump events of all trials; the
    event phase is the time spent inside `run_trials`.
    """

    n_values: tuple[int, ...]
    trials: int
    horizon: float
    nx: int
    fit: bool

    @property
    def operations(self) -> int:
        return self.trials * len(self.n_values)

    def run(self, seed: int, out: Path, tracer, workers: int) -> Round:
        spec = config_spec(
            seed, horizon=self.horizon, nx=self.nx, n_values=self.n_values,
            trials=self.trials, fit=self.fit,
        )
        path = _write_config(out, "config.json", spec)
        mark = len(tracer)
        t0 = time.perf_counter()
        config = _load_config(path)
        result = experiments.run_convergence(config, out, threads=workers)
        wall = time.perf_counter() - t0
        batches = tracer.spans("experiments.run_trials", mark)
        require(len(batches) == len(self.n_values), "run_trials was not called once per size")
        setup = batches[0][0] - t0
        event_s = sum(end - start for start, end in batches)

        times = tuple(spec["snapshot_times"])
        events = 0
        means, stderrs = [], []
        for n, trial_file in zip(self.n_values, result.trial_files):
            data = np.loadtxt(trial_file, delimiter=",", skiprows=2, ndmin=2)
            events += checks.check_trials(data, n, self.trials, times)
            final = data.reshape(self.trials, len(times), -1)[:, -1, D_N]
            means.append(final.mean())
            stderrs.append(final.std(ddof=1) / math.sqrt(self.trials))
        if self.fit:
            slope, se = checks.fitted_slope(self.n_values, means, stderrs)
            reported = json.loads(result.fit_file.read_text(encoding="utf-8"))["slope"]
            require(abs(reported - slope) <= 1e-9, f"ratefit.json slope {reported} != recomputed {slope}")
            checks.check_slope(slope, se)
        outputs = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".json") and p != path)
        return Round(setup, wall, events, event_s, _digest(*(p.read_bytes() for p in outputs)))


@dataclass(frozen=True)
class KineticFineGrid:
    """`kinetic_solution` of the cosine data cold, then warm, plus uniform data cold.

    Operations are the three calls; events are the solver steps of the two
    cold solves, and the event phase is the time of those two calls.
    """

    nx: int
    horizon: float
    operations = 3

    def run(self, seed: int, out: Path, tracer, workers: int) -> Round:
        cos_path = _write_config(out, "cosine.json", config_spec(seed, horizon=self.horizon, nx=self.nx))
        uni_path = _write_config(
            out, "uniform.json",
            config_spec(seed, horizon=self.horizon, nx=self.nx, position=UNIFORM_POSITION),
        )
        t0 = time.perf_counter()
        cos_config = _load_config(cos_path)
        uni_config = _load_config(uni_path)
        t1 = time.perf_counter()
        cold = experiments.kinetic_solution(cos_config, out)
        t2 = time.perf_counter()
        warm = experiments.kinetic_solution(cos_config, out)
        t3 = time.perf_counter()
        uniform = experiments.kinetic_solution(uni_config, out)
        t4 = time.perf_counter()

        grid = cos_config.grid()
        steps = int(round(self.horizon / cos_config.dt))
        expected = np.round(np.arange(0.0, self.horizon + 1e-9, cos_config.snapshot_spacing), 10)
        for solution in (cold, uniform):
            require(np.allclose(solution.times, expected, rtol=0, atol=1e-9), f"snapshot times {solution.times}")
            for snap in solution.snapshots:
                checks.check_density(snap.values, grid.dx, grid.dv, snap.t)
        f0 = np.zeros((grid.nx, grid.nv))
        law = uni_config.initial.velocity
        for atom, weight in zip(law.atoms[:, 0], law.weights):
            f0[:, np.searchsorted(grid.v_edges, atom, side="right") - 1] += weight / grid.dv
        for snap in uniform.snapshots:
            checks.check_stationary(snap.values, f0, grid.dx, grid.dv, snap.t)

        def fields(solution) -> dict[str, np.ndarray]:
            return {
                "times": np.asarray(solution.times),
                "values": np.stack([s.values for s in solution.snapshots]),
                "drift": np.asarray(solution.drift_total),
            }

        checks.check_same_arrays(fields(cold), fields(warm))
        digest = _digest(fields(cold)["values"].tobytes(), fields(uniform)["values"].tobytes())
        return Round(t1 - t0, t4 - t0, 2 * steps, (t2 - t1) + (t4 - t3), digest)


@dataclass(frozen=True)
class SimulateLargeN:
    """`run_particle_simulation`, the `topolab simulate` path: one trajectory.

    The event phase is the time inside `particle.simulate`.
    """

    n: int
    horizon: float
    operations = 1

    def run(self, seed: int, out: Path, tracer, workers: int) -> Round:
        path = _write_config(out, "config.json", config_spec(seed, horizon=self.horizon, nx=512, n=self.n))
        mark = len(tracer)
        t0 = time.perf_counter()
        config = _load_config(path)
        trajectory = experiments.run_particle_simulation(config, out)
        wall = time.perf_counter() - t0
        runs = tracer.spans("particle.simulate", mark)
        require(len(runs) == 1, "particle.simulate was not called once")
        (start, end), = runs

        checks.check_events(
            trajectory.event_times, trajectory.event_focal, trajectory.event_partner,
            self.n, self.horizon,
        )
        events = np.loadtxt(out / "events.csv", delimiter=",", skiprows=2, ndmin=2)
        require(
            events.shape[0] == trajectory.event_count
            and np.array_equal(events[:, 1], trajectory.event_focal)
            and np.array_equal(events[:, 2], trajectory.event_partner),
            "events.csv differs from the returned trajectory",
        )
        snaps = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=2, ndmin=2)
        require(snaps.shape[0] == 4 * self.n, f"snapshots.csv has {snaps.shape[0]} rows")
        atoms = config.initial.velocity.atoms
        checks.check_atoms(snaps[:, 3], atoms)
        checks.check_atoms(trajectory.final.velocities, atoms)
        digest = _digest((out / "events.csv").read_bytes(), (out / "snapshots.csv").read_bytes())
        return Round(start - t0, wall, trajectory.event_count, end - start, digest)


# Sizes: see README.md for why each workload has the sizes it has.
WORKLOADS = {
    "study-small-n": Study(n_values=(64, 128, 256, 512), trials=80, horizon=0.5, nx=512, fit=True),
    "study-large-n": Study(n_values=(2048, 8192), trials=2, horizon=0.2, nx=512, fit=False),
    "kinetic-fine-grid": KineticFineGrid(nx=2048, horizon=0.04),
    "simulate-large-n": SimulateLargeN(n=8192, horizon=0.25),
}

# Small sizes of the same workloads, for the benchmark's own tests.
SMOKE = {
    "study-small-n": Study(n_values=(64, 128, 256, 512), trials=6, horizon=0.1, nx=64, fit=False),
    "study-large-n": Study(n_values=(256, 512), trials=2, horizon=0.04, nx=64, fit=False),
    "kinetic-fine-grid": KineticFineGrid(nx=128, horizon=0.04),
    "simulate-large-n": SimulateLargeN(n=256, horizon=0.25),
}
