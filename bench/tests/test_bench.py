"""Tests of the benchmark itself: its checks reject corrupted outputs, its
smoke sizes run in seconds, and its output matches BENCHMARK.json.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from topolab import experiments  # noqa: E402
from topolab.experiments import ExperimentConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_law_is_the_convergence_config_law():
    config = json.loads((ROOT / "configs" / "convergence.json").read_text(encoding="utf-8"))
    assert {key: config[key] for key in workloads.LAW} == workloads.LAW


# -- the checks reject corrupted outputs ---------------------------------------------


@pytest.fixture(scope="module")
def study_output(tmp_path_factory):
    """A small real study: (trial tables by n, trials, snapshot times)."""
    out = tmp_path_factory.mktemp("study")
    spec = workloads.config_spec(7, horizon=0.5, nx=64, n_values=(32, 64), trials=6)
    result = experiments.run_convergence(ExperimentConfig.from_json(spec), out)
    tables = {
        n: np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        for n, path in zip((32, 64), result.trial_files)
    }
    return tables, 6, tuple(spec["snapshot_times"])


def test_trials_check_accepts_real_output(study_output):
    tables, trials, times = study_output
    for n, data in tables.items():
        assert checks.check_trials(data, n, trials, times) > 0


def test_trials_check_rejects_decreasing_d_n(study_output):
    tables, trials, times = study_output
    data = tables[64].copy()
    rows = len(times)
    data[rows - 1, checks.D_N] = 0.5
    data[rows - 2, checks.D_N] = 0.75
    with pytest.raises(CheckError, match="decreases"):
        checks.check_trials(data, 64, trials, times)


def test_trials_check_rejects_event_total_far_from_poisson_mean(study_output):
    tables, trials, times = study_output
    data = tables[64].copy()
    data[len(times) - 1, checks.JOINT] += 10 * np.sqrt(trials * 64 * times[-1])
    with pytest.raises(CheckError, match="Poisson mean"):
        checks.check_trials(data, 64, trials, times)


def test_trials_check_rejects_more_sigma_only_than_z_only(study_output):
    tables, trials, times = study_output
    data = tables[64].copy()
    data[0, checks.SIGMA_ONLY] = data[0, checks.Z_ONLY] + 1
    with pytest.raises(CheckError, match="sigma_only_count"):
        checks.check_trials(data, 64, trials, times)


def test_slope_check_accepts_the_proved_rate_and_rejects_no_decay():
    n_values = np.array([64, 128, 256, 512])
    means = 0.1 / np.sqrt(n_values - 1)
    slope, se = checks.fitted_slope(n_values, means, 0.05 * means)
    assert slope == pytest.approx(-0.5)
    checks.check_slope(slope, se)
    flat, se = checks.fitted_slope(n_values, np.full(4, 0.02), np.full(4, 0.001))
    with pytest.raises(CheckError, match="slope"):
        checks.check_slope(flat, se)


@pytest.fixture(scope="module")
def cosine_solution(tmp_path_factory):
    out = tmp_path_factory.mktemp("kinetic")
    config = ExperimentConfig.from_json(workloads.config_spec(7, horizon=0.04, nx=64))
    return config, out, experiments.kinetic_solution(config, out)


def test_density_check_accepts_real_output(cosine_solution):
    config, _, solution = cosine_solution
    grid = config.grid()
    for snap in solution.snapshots:
        checks.check_density(snap.values, grid.dx, grid.dv, snap.t)


def test_density_check_rejects_broken_mirror_symmetry(cosine_solution):
    config, _, solution = cosine_solution
    grid = config.grid()
    values = solution.snapshots[-1].values.copy()
    values[3, 0] += 1e-6
    values[10, 0] -= 1e-6
    with pytest.raises(CheckError, match="mirror"):
        checks.check_density(values, grid.dx, grid.dv, 0.04)


def test_density_check_rejects_lost_mass_and_negative_values(cosine_solution):
    config, _, solution = cosine_solution
    grid = config.grid()
    with pytest.raises(CheckError, match="mass"):
        checks.check_density(solution.snapshots[-1].values * (1 + 1e-8), grid.dx, grid.dv, 0.04)
    values = solution.snapshots[-1].values.copy()
    values[0, 2] = -1e-3
    values[0, 0] += 1e-3
    with pytest.raises(CheckError):
        checks.check_density(values, grid.dx, grid.dv, 0.04)


def test_stationary_check_rejects_drift(cosine_solution):
    config, _, solution = cosine_solution
    grid = config.grid()
    f0 = solution.snapshots[0].values
    checks.check_stationary(f0.copy(), f0, grid.dx, grid.dv, 0.0)
    with pytest.raises(CheckError, match="drifted"):
        checks.check_stationary(solution.snapshots[-1].values, f0, grid.dx, grid.dv, 0.04)


def test_warm_check_rejects_a_load_that_differs_from_the_solve(cosine_solution):
    config, out, solution = cosine_solution
    warm = experiments.kinetic_solution(config, out)
    cold = {"values": np.stack([s.values for s in solution.snapshots])}
    loaded = {"values": np.stack([s.values for s in warm.snapshots])}
    checks.check_same_arrays(cold, loaded)
    loaded["values"][1, 5, 0] = np.nextafter(loaded["values"][1, 5, 0], 2.0)
    with pytest.raises(CheckError, match="warm cache load"):
        checks.check_same_arrays(cold, loaded)


def test_event_checks_reject_corrupted_logs():
    n, horizon = 100, 1.0
    rng = np.random.default_rng(3)
    times = np.sort(rng.random(100))
    focal = rng.integers(n, size=100)
    partner = (focal + 1 + rng.integers(n - 1, size=100)) % n
    checks.check_events(times, focal, partner, n, horizon)
    with pytest.raises(CheckError, match="own partner"):
        checks.check_events(times, focal, np.where(np.arange(100) == 7, focal, partner), n, horizon)
    with pytest.raises(CheckError, match="increase"):
        checks.check_events(times[::-1], focal, partner, n, horizon)
    with pytest.raises(CheckError, match="Poisson mean"):
        checks.check_events(times[:20], focal[:20], partner[:20], n, horizon)
    checks.check_atoms(np.array([-1.0, 1.0, 1.0]), np.array([[-1.0], [1.0]]))
    with pytest.raises(CheckError, match="atoms"):
        checks.check_atoms(np.array([-1.0, 0.5]), np.array([[-1.0], [1.0]]))


# -- smoke sizes of every workload --------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_smoke_workload_runs_in_seconds_and_traces_every_layer(name, tmp_path):
    began = time.perf_counter()
    rounds, tracer, correct, attempted, failed = run.run_rounds(
        workloads.SMOKE[name], 11, 0.0, True, 1, tmp_path
    )
    assert time.perf_counter() - began < 30
    assert correct and attempted == 2 and failed == 0, "a smoke round failed or tracing changed its outputs"
    assert [traced for traced, _ in rounds] == [False, True]
    for _, result in rounds:
        assert 0 < result.setup_s < result.wall_s
        assert result.events > 0 and result.event_s > 0
    metrics = spans.layer_metrics(tracer)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert {u for _, u in metrics.values()} <= {m["unit"] for m in SPEC["per_layer"]}


# -- the command line ------------------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-large-n",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {nm: m["unit"] for nm, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-large-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_are_unique_and_units_declared():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
