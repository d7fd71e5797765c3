import json
from pathlib import Path

import numpy as np
import pytest

import topolab.experiments as experiments
from topolab.coupling import UniformReference
from topolab.experiments import (
    ConfigError,
    ExperimentConfig,
    kinetic_solution,
    rate_fit,
    read_aggregate_csv,
    read_trials_csv,
    run_convergence,
    run_particle_simulation,
    run_single_coupled,
)
from topolab.kernels import preset_kernels

ROOT = Path(__file__).parent.parent


def base_spec(**overrides) -> dict:
    spec = {
        "version": 1,
        "seed": 20260809,
        "kernel": {"form": "linear"},
        "initial": {
            "position": {"form": "cosine", "amplitude": 0.3},
            "velocity": {"form": "two_point", "speed": 1.0},
        },
        "kinetic": {"nx": 64, "nv": 5, "v_max": 1.25, "dt": 0.01, "snapshot_spacing": 0.02},
        "system": {"n": 12, "dimension": 1, "horizon": 0.5},
        "snapshot_times": [0.25, 0.5],
        "coupling": {"tv_bins_x": 8},
        "convergence": {"n_values": [8, 16, 32], "trials": 4, "fit": False},
    }
    spec.update(overrides)
    return spec


def test_config_round_trip():
    config = ExperimentConfig.from_json(base_spec())
    assert config.n == 12
    assert config.kernel.form == "linear"
    assert config.n_values == (8, 16, 32)
    assert config.default_snapshot_times() == (0.25, 0.5)


def test_config_rejects_unknown_version():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(base_spec(version=99))


def test_config_rejects_non_object_json():
    for spec in ([1, 2], "[1, 2]", "3", None):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_json(spec)


def test_config_rejects_bad_n_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            base_spec(convergence={"n_values": [16, 8], "trials": 4})
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            base_spec(convergence={"n_values": [1, 8], "trials": 4})
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            base_spec(convergence={"n_values": [8, 16], "trials": 0})
        )


def test_config_rejects_offgrid_velocity_atoms():
    spec = base_spec(
        initial={
            "position": {"form": "uniform"},
            "velocity": {"form": "two_point", "speed": 0.9},
        }
    )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(spec)


def test_config_rejects_wide_snapshot_spacing():
    # a zero or negative spacing is rejected too, not divided by later
    for spacing in (0.2, 0.0, -0.02):
        spec = base_spec(
            kinetic={"nx": 64, "nv": 5, "v_max": 1.25, "dt": 0.01, "snapshot_spacing": spacing}
        )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(spec)


def spec_with(path: str, value) -> dict:
    """`base_spec` with the entry at a dotted path set to value."""
    spec = base_spec()
    *owners, key = path.split(".")
    target = spec
    for owner in owners:
        target = target[owner]
    target[key] = value
    return spec


@pytest.mark.parametrize(
    "path, value",
    [
        ("kinetic", 5),
        ("system", [1]),
        ("coupling", "x"),
        ("convergence", 5),
        ("kernel", 5),
        ("kernel", "linear"),
        ("initial.velocity", 5),
        ("initial.position", [5]),
    ],
)
def test_config_sections_must_be_objects(path, value):
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ExperimentConfig.from_json(spec_with(path, value))


@pytest.mark.parametrize(
    "path, value",
    [
        ("kinetic.v_max", float("nan")),
        ("kernel", {"form": "tabulated", "table": [[0.0, 2.0], [0.5, float("nan")], [1.0, 0.0]]}),
        ("initial.velocity", {"form": "two_point", "speed": float("nan")}),
        ("system.horizon", float("inf")),
        ("snapshot_times", [0.25, float("-inf")]),
    ],
)
def test_config_rejects_non_finite_numbers(path, value):
    spec = spec_with(path, value)
    with pytest.raises(ConfigError, match="NaN, Infinity"):
        ExperimentConfig.from_json(spec)
    # the same as a config file spells it: NaN, Infinity, -Infinity
    with pytest.raises(ConfigError, match="NaN, Infinity"):
        ExperimentConfig.from_json(json.dumps(spec))


def test_config_rejects_an_overflowing_number():
    text = json.dumps(base_spec()).replace('"horizon": 0.5', '"horizon": 1e999')
    with pytest.raises(ConfigError, match="NaN, Infinity"):
        ExperimentConfig.from_json(text)


def test_config_fit_needs_four_sizes():
    for n_values in ([8], [8, 16, 32]):
        with pytest.raises(ConfigError, match="at least 4 n_values"):
            ExperimentConfig.from_json(base_spec(convergence={"n_values": n_values, "trials": 4}))
    # without sizes, without the fit, or with four sizes, the config loads
    for conv in (
        {"trials": 4},
        {"n_values": [8, 16, 32], "trials": 4, "fit": False},
        {"n_values": [8, 16, 32, 64], "trials": 4},
    ):
        assert ExperimentConfig.from_json(base_spec(convergence=conv)).trials == 4


# each value loaded at the parent of this check: bool(), int() and float() cast it, and a
# constant kernel ran every trial of a study before its rate fit failed
@pytest.mark.parametrize(
    "path, value, message",
    [
        ("system.frozen_positions", "false", "frozen_positions must be true or false"),
        ("system.frozen_positions", 0, "frozen_positions must be true or false"),
        ("convergence.fit", "false", "fit must be true or false"),
        ("seed", 3.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("kinetic.nx", 64.5, "kinetic.nx must be an integer"),
        ("kinetic.nv", "5", "kinetic.nv must be an integer"),
        ("system.n", 12.9, "system.n must be an integer"),
        ("system.dimension", True, "system.dimension must be an integer"),
        ("coupling.tv_bins_x", 8.5, "tv_bins_x must be an integer"),
        ("convergence.trials", "4", "trials must be an integer"),
        ("convergence.n_values", [8, 16.5, 32, 64], "n_values must be an integer"),
        ("convergence.n_values", [8, "16", 32, 64], "n_values must be an integer"),
        ("initial.position.frequency", 1.5, "frequency must be an integer"),
        ("system.horizon", True, "horizon must be a number"),
        ("kinetic.dt", "0.01", "dt must be a number"),
        ("kinetic.v_max", "1.25", "v_max must be a number"),
        ("kinetic.snapshot_spacing", "0.02", "snapshot_spacing must be a number"),
        ("snapshot_times", ["0.5"], "snapshot_times must be a number"),
        ("initial.position.amplitude", "0.3", "amplitude must be a number"),
        ("initial.position", {"form": "two_mode", "amplitude": 0.2, "amplitude2": "0.1"}, "amplitude2"),
        ("initial.velocity.speed", True, "speed must be a number"),
        ("initial.velocity", {"form": "discrete", "atoms": [[-1.0], ["1.0"]], "weights": [0.5, 0.5]},
         "atoms must be a number"),
        ("initial.velocity", {"form": "discrete", "atoms": [[-1.0], [1.0]], "weights": ["0.5", 0.5]},
         "weights must be a number"),
        ("kernel", {"form": "uniform"}, "fit needs a kernel that is not constant"),
        ("kernel", {"form": "tabulated", "table": [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]]}, "not constant"),
    ],
)
def test_config_flags_are_booleans_and_counts_are_integers(path, value, message):
    spec = spec_with("convergence", {"n_values": [8, 16, 32, 64], "trials": 4, "fit": True})
    *owners, key = path.split(".")
    target = spec
    for owner in owners:
        target = target[owner]
    target[key] = value
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_json(spec)
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_json(json.dumps(spec))


def test_config_reads_integral_numbers_and_json_booleans():
    spec = base_spec(system={"n": 12.0, "dimension": 1, "horizon": 0.5, "frozen_positions": True})
    spec["kinetic"]["nx"] = 64.0
    spec["initial"]["position"]["frequency"] = 2.0
    spec["system"]["horizon"] = 1  # a float field takes an integer too
    spec["convergence"] = {"n_values": [8.0, 16, 32.0], "trials": 4.0, "fit": False}
    config = ExperimentConfig.from_json(spec)
    assert type(config.horizon) is float and config.horizon == 1.0
    assert (config.n, config.nx, config.trials, config.n_values) == (12, 64, 4, (8, 16, 32))
    assert all(type(v) is int for v in (config.n, config.nx, config.trials, *config.n_values))
    assert config.initial.positions[0].frequency == 2
    assert config.frozen_positions is True and config.fit is False


@pytest.mark.parametrize(
    "path, value, message",
    [
        # float() reads "0.5" and True, and True == 1: the reader takes only JSON numbers
        ("kernel", {"form": "truncated_linear", "epsilon": True}, "kernel.epsilon must be a number"),
        ("kernel", {"form": "truncated_linear", "epsilon": "0.5"}, "kernel.epsilon must be a number"),
        ("kernel", {"form": "tabulated", "table": [["0", 2], [1, "0"]]}, "kernel.table must be a number"),
        ("version", True, "version must be an integer"),
        ("kernel", {"form": "truncated_linear"}, "kernel.epsilon is missing"),
        ("kernel", {"form": "step"}, "kernel.form must be one of uniform, linear, truncated_linear"),
        ("kernel", {"form": "tabulated", "table": [0.0, 2.0, 1.0, 0.0]}, "kernel.table must be a list"),
        ("convergence.n_values", 8, "convergence.n_values must be a list"),
        ("initial.velocity", {"form": "discrete", "atoms": [[0.0]], "weights": 1.0}, "weights must be a list"),
    ],
)
def test_reader_types_every_value_and_names_its_path(path, value, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_json(spec_with(path, value))


def kernel_spec(kernel) -> dict:
    """The JSON object of a kernel in a config."""
    spec = {"form": kernel.form}
    if kernel.epsilon is not None:
        spec["epsilon"] = kernel.epsilon
    if kernel.breakpoints is not None:
        spec["table"] = [[float(r), float(v)] for r, v in zip(kernel.breakpoints, kernel.table_values)]
    return spec


def test_reader_round_trips_the_preset_kernels():
    for kernel in preset_kernels().values():
        clone = ExperimentConfig.from_json(base_spec(kernel=kernel_spec(kernel))).kernel
        grid = np.linspace(0.0, 1.0, 257)
        np.testing.assert_allclose(clone(grid), kernel(grid), rtol=0, atol=0)
        assert clone.lipschitz == pytest.approx(kernel.lipschitz)


def test_reader_reads_initial_laws():
    law = ExperimentConfig.from_json(base_spec()).initial
    assert law.d == 1
    assert law.positions[0].amplitude == 0.3
    spec = base_spec(
        initial={
            "position": [{"form": "uniform"}, {"form": "bump"}],
            "velocity": {"form": "four_point"},
        }
    )
    spec["system"]["dimension"] = 2
    law2 = ExperimentConfig.from_json(spec).initial
    assert law2.d == 2
    assert [p.form for p in law2.positions] == ["uniform", "bump"]
    with pytest.raises(ConfigError, match="initial.position.form must be one of"):
        ExperimentConfig.from_json(spec_with("initial.position", {"form": "nope"}))


def test_one_law_has_one_cache_key():
    key = ExperimentConfig.from_json(base_spec()).kinetic_cache_key()
    for path, value in (
        ("initial.velocity.speed", 1),
        ("initial.position.frequency", 1),
        ("initial.position", [{"form": "cosine", "amplitude": 0.3}]),
    ):
        assert ExperimentConfig.from_json(spec_with(path, value)).kinetic_cache_key() == key, path
    other = ExperimentConfig.from_json(spec_with("initial.position.amplitude", 0.25))
    assert other.kinetic_cache_key() != key
    ramp = [spec_with("kernel", {"form": "truncated_linear", "epsilon": e}) for e in (1, 1.0, 0.5)]
    keys = [ExperimentConfig.from_json(spec).kinetic_cache_key() for spec in ramp]
    assert keys[0] == keys[1] != keys[2]


def test_documented_and_shipped_configs_load():
    # the README's example, every file in configs/ and the golden config use declared keys only
    example = (ROOT / "README.md").read_text().split("## Config schema")[1].split("```json")[1]
    files = [*sorted((ROOT / "configs").glob("*.json")), ROOT / "tests" / "data" / "golden_config.json"]
    assert len(files) >= 3
    for text in [example.split("```")[0], *(path.read_text() for path in files)]:
        assert ExperimentConfig.from_json(text).kernel.form == "linear"


def test_kinetic_cache_round_trip(tmp_path):
    config = ExperimentConfig.from_json(base_spec())
    first = kinetic_solution(config, tmp_path)
    cache_files = list((tmp_path / "cache").glob("kinetic_*.npz"))
    assert len(cache_files) == 1
    second = kinetic_solution(config, tmp_path)
    np.testing.assert_array_equal(first.times, second.times)
    for a, b in zip(first.snapshots, second.snapshots):
        np.testing.assert_array_equal(a.values, b.values)


def test_kinetic_cache_key_changes_with_solver_version(monkeypatch):
    # a cache file written by an older solver sits at another key: a miss
    config = ExperimentConfig.from_json(base_spec())
    key = config.kinetic_cache_key()
    monkeypatch.setattr(experiments, "SOLVER_VERSION", experiments.SOLVER_VERSION - 1)
    assert config.kinetic_cache_key() != key


def test_kinetic_cache_with_wrong_times_is_recomputed(tmp_path):
    # a cache file at the right key but holding other snapshot times (as
    # written by older code), or one that is not a whole .npz file (garbage,
    # empty, truncated), is a miss: solved again and atomically replaced
    config = ExperimentConfig.from_json(base_spec())
    fresh = kinetic_solution(config, None)
    path = tmp_path / "cache" / f"kinetic_{config.kinetic_cache_key()}.npz"
    path.parent.mkdir()
    values = np.stack([s.values for s in fresh.snapshots])
    np.savez_compressed(path, times=fresh.times, values=values, drift=0.0)
    whole = path.read_bytes()
    np.savez_compressed(path, times=fresh.times * 0.5, values=np.zeros_like(values), drift=0.0)
    for planted in (path.read_bytes(), b"not a zip!!\n", b"", whole[: len(whole) // 2]):
        path.write_bytes(planted)
        served = kinetic_solution(config, tmp_path)
        np.testing.assert_array_equal(served.times, fresh.times)
        np.testing.assert_array_equal(np.stack([s.values for s in served.snapshots]), values)
        with np.load(path) as data:
            np.testing.assert_array_equal(data["times"], fresh.times)
        assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_rate_fit_recovers_planted_slope():
    ns = np.array([64, 128, 256, 512, 1024])
    means = 0.7 * (ns - 1.0) ** -0.5
    fit = rate_fit(ns, means)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.ci_low <= -0.5 <= fit.ci_high


def test_rate_fit_needs_four_points():
    with pytest.raises(ConfigError):
        rate_fit(np.array([8, 16, 32]), np.array([0.1, 0.08, 0.05]))
    with pytest.raises(ConfigError):
        rate_fit(np.array([8, 16, 32, 64]), np.array([0.1, 0.08, 0.0, 0.0]))


def test_convergence_writes_all_schemas(tmp_path):
    config = ExperimentConfig.from_json(base_spec())
    result = run_convergence(config, tmp_path)
    agg = read_aggregate_csv(result.aggregate_file)
    assert agg.shape == (6, 5)  # 3 sizes x 2 snapshot times
    for path in result.trial_files:
        n, data = read_trials_csv(path)
        assert data.shape[1] == 9
        trials = int(data[:, 0].max()) + 1
        assert trials == config.trials
        # joint + z_only reproduces the total event count per trial row
        assert np.all(data[:, 4] + data[:, 5] >= 0)
    # bound column matches exp(c*t)/sqrt(n-1)
    from topolab.coupling import decoupling_bound

    for row in agg:
        assert row[4] == pytest.approx(decoupling_bound(config.kernel, int(row[0]), row[1]))


def test_convergence_smoke_two_particles(tmp_path):
    # tiniest possible run completes and writes every schema (flat kernel so
    # the two-particle system is not rank-degenerate)
    spec = base_spec(
        kernel={"form": "uniform"},
        convergence={"n_values": [2], "trials": 1, "fit": False},
        snapshot_times=[0.5],
    )
    config = ExperimentConfig.from_json(spec)
    result = run_convergence(config, tmp_path)
    assert (tmp_path / "trials_n2.csv").exists()
    agg = read_aggregate_csv(result.aggregate_file)
    assert agg.shape == (1, 5)
    assert agg[0, 2] == 0.0  # flat kernel never decouples


def test_uniform_kernel_special_case(tmp_path):
    # flat kernel: reference rates row-normalize exactly, every event is a
    # joint jump, and the bound 1/sqrt(n-1) holds with room to spare
    spec = base_spec(
        kernel={"form": "uniform"},
        convergence={"n_values": [16, 64], "trials": 10, "fit": False},
    )
    config = ExperimentConfig.from_json(spec)
    result = run_convergence(config, tmp_path)
    from topolab.coupling import decoupling_bound

    for n, t, mean, _, bound in result.aggregate_rows:
        assert mean == 0.0
        assert mean <= bound
        assert bound == pytest.approx(1.0 / np.sqrt(n - 1))
    for path in result.trial_files:
        _, data = read_trials_csv(path)
        assert np.all(data[:, 5] == 0)  # no one-sided jumps at all


def test_convergence_deterministic_and_thread_independent(tmp_path):
    config = ExperimentConfig.from_json(base_spec())
    run_convergence(config, tmp_path / "a", threads=1)
    run_convergence(config, tmp_path / "b", threads=1)
    run_convergence(config, tmp_path / "c", threads=2)
    for name in ["aggregate.csv", "trials_n8.csv", "trials_n16.csv", "trials_n32.csv"]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        c = (tmp_path / "c" / name).read_bytes()
        assert a == b
        assert a == c


def test_run_trials_starts_no_more_workers_than_trials(monkeypatch):
    # a process pool starts all of its workers at once, so two trials need two
    asked = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_WORKER_CTX", {})
    spec = base_spec(convergence={"n_values": [8], "trials": 2, "fit": False})
    config = ExperimentConfig.from_json(spec)
    reference = UniformReference(config.initial.velocity)
    serial = experiments.run_trials(config, reference, 8, threads=1)
    assert asked == []
    pooled = experiments.run_trials(config, reference, 8, threads=8)
    assert asked == [2]
    assert [r.d_n.tolist() for r in pooled] == [r.d_n.tolist() for r in serial]


def test_single_runs_write_contract_files(tmp_path):
    config = ExperimentConfig.from_json(base_spec())
    trajectory = run_particle_simulation(config, tmp_path)
    events = (tmp_path / "events.csv").read_text().splitlines()
    assert events[0].startswith("# schema=topolab.events.v1")
    assert events[1] == "t,i,j"
    assert len(events) == 2 + trajectory.event_count
    snaps = (tmp_path / "snapshots.csv").read_text().splitlines()
    assert snaps[1] == "t,particle,x0,v0"
    assert len(snaps) == 2 + config.n * len(config.snapshot_times)

    record = run_single_coupled(config, tmp_path)
    n, data = read_trials_csv(tmp_path / f"trials_n{config.n}.csv")
    assert n == config.n
    assert data.shape == (len(config.snapshot_times), 9)
    assert record.event_count >= 0


def test_aggregate_reader_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "aggregate.csv"
    for text in (
        "# schema=topolab.aggregate.v99\nn,t\n1,2\n",
        "# schema=topolab.aggregate.v1\nn,t,mean_d_n,stderr,bound\n8,0.5,0.1,0.01,x\n",
    ):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="aggregate"):
            read_aggregate_csv(bad)


def test_trials_reader_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "trials_n4.csv"
    header = "trial,t,d_n,tv_estimate,joint_count,z_only_count,sigma_only_count,lln_diag,rescale_mag"
    for text in (
        "# schema=other\nx\n1\n",
        f"# schema=topolab.trials.v1 n=4\n{header}\n0,0.5,0.25,0.1,3,1,0,0.2,oops\n",
    ):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="trials"):
            read_trials_csv(bad)


@pytest.mark.parametrize("frozen", [False, True])
def test_particle_and_coupled_streams_match_golden_files(tmp_path, frozen):
    # the event clock, partner draws and transport of the standalone and the
    # coupled run are pinned byte for byte; a change that alters the random
    # stream must re-pin these files on purpose
    golden = Path(__file__).parent / "data" / "golden"
    spec = json.loads((golden.parent / "golden_config.json").read_text())
    spec["system"]["frozen_positions"] = frozen
    config = ExperimentConfig.from_json(spec)
    suffix = "_frozen" if frozen else ""
    run_particle_simulation(config, tmp_path)
    for name in ("events", "snapshots"):
        expected = (golden / f"{name}{suffix}.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, f"{name}.csv drifted"
    if not frozen:
        run_single_coupled(config, tmp_path)
        assert (tmp_path / "trials_n8.csv").read_bytes() == (golden / "trials_n8.csv").read_bytes()


def test_snapshot_rows_match_the_per_particle_format(tmp_path):
    # the golden files pin d = 1; this pins d = 2 against the per-value `_fmt` rows
    from topolab.particle import Trajectory
    from topolab.ranks import Configuration

    rng = np.random.default_rng(9)
    special = np.array([[0.0, 1.0 - 1e-17], [1e-17, 0.5], [0.1, 0.9999999999999]])
    m = experiments._CSV_BLOCK + 2  # rows are written in blocks
    snaps = {
        t: Configuration(
            np.concatenate([special, rng.uniform(0.0, 1.0, (m - 3, 2))]),
            rng.choice([-1.0, -0.0, 0.0, 0.7071067811865476, 1.0], (m, 2)),
        )
        for t in (1.0, 0.25)
    }
    traj = Trajectory(np.array([]), np.array([]), np.array([]), snapshots=snaps)
    experiments.write_snapshots_csv(tmp_path / "s.csv", traj, 2)
    fmt = experiments._fmt
    expected = [f"# schema={experiments._SNAPSHOTS_SCHEMA}", "t,particle,x0,x1,v0,v1"]
    for t in sorted(snaps):
        for p in range(m):
            vals = list(snaps[t].positions[p]) + list(snaps[t].velocities[p])
            expected.append(f"{fmt(t)},{p}," + ",".join(fmt(v) for v in vals))
    assert (tmp_path / "s.csv").read_text().split("\n") == expected + [""]


def csv_lines(path: Path) -> list[str]:
    return path.read_text().split("\n")


@pytest.mark.parametrize("m", [0, 1, experiments._CSV_BLOCK + 2])
def test_event_rows_match_the_per_event_format(tmp_path, m):
    from topolab.particle import Trajectory

    rng = np.random.default_rng(m)
    times = np.sort(rng.uniform(0.0, 2.0, m))
    times[:1] = 1e-17
    focal, partner = rng.integers(0, 2**40, m), rng.integers(0, 9, m)
    experiments.write_events_csv(tmp_path / "e.csv", Trajectory(times, focal, partner))
    fmt = experiments._fmt
    rows = [f"{fmt(t)},{i},{j}" for t, i, j in zip(times, focal, partner)]
    expected = [f"# schema={experiments._EVENTS_SCHEMA}", "t,i,j", *rows, ""]
    assert csv_lines(tmp_path / "e.csv") == expected


def test_trial_rows_match_the_per_value_format(tmp_path):
    # without tv_edges a trial's tv_estimate is NaN
    from topolab.coupling import run_coupled_trial
    from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial
    from topolab.kernels import Kernel

    law = InitialLaw((PositionLaw.uniform(),), VelocityLaw.two_point())
    reference = UniformReference(law.velocity)
    records = [
        run_coupled_trial(Kernel.linear(), reference, sample_initial(law, 16, s), 0.5,
                          np.random.default_rng(s), (0.125, 0.25, 0.5))
        for s in range(3)
    ]
    assert np.isnan(records[0].tv).all()
    experiments.write_trials_csv(tmp_path / "t.csv", 16, records)
    fmt = experiments._fmt
    expected = [f"# schema={experiments._TRIALS_SCHEMA} n=16",
                "trial,t,d_n,tv_estimate,joint_count,z_only_count,sigma_only_count,lln_diag,rescale_mag"]
    for trial, rec in enumerate(records):
        for k in range(len(rec.times)):
            expected.append(
                f"{trial},{fmt(rec.times[k])},{fmt(rec.d_n[k])},{fmt(rec.tv[k])},{int(rec.joint[k])},"
                f"{int(rec.z_only[k])},{int(rec.sigma_only[k])},{fmt(rec.lln[k])},{fmt(rec.rescale_mean[k])}"
            )
    assert csv_lines(tmp_path / "t.csv") == expected + [""]


def test_aggregate_rows_match_the_per_value_format(tmp_path):
    # a large growth constant times t overflows exp: the bound is inf
    from topolab.coupling import decoupling_bound
    from topolab.kernels import Kernel

    kernel = Kernel.linear()
    rows = [(n, t, 1.0 / n / 3.0, 0.0 if n == 8 else 1e-17, decoupling_bound(kernel, n, t))
            for n in (8, 2048) for t in (0.25, 1e3)]
    assert rows[1][4] == float("inf")
    experiments.write_aggregate_csv(tmp_path / "a.csv", rows)
    fmt = experiments._fmt
    expected = [f"# schema={experiments._AGGREGATE_SCHEMA}", "n,t,mean_d_n,stderr,bound"]
    expected += [f"{n},{fmt(t)},{fmt(mean)},{fmt(se)},{fmt(bound)}" for n, t, mean, se, bound in rows]
    assert csv_lines(tmp_path / "a.csv") == expected + [""]


@pytest.mark.parametrize("nx", [2, experiments._CSV_BLOCK + 2])
def test_density_rows_match_the_per_value_format(tmp_path, nx):
    # the rows of `topolab kinetic`'s files, against the per-value ".17g" rows
    from topolab.kinetic import GridDensity, PhaseGrid

    grid = PhaseGrid(nx=nx, nv=5, v_max=1.25)
    values = np.random.default_rng(nx).uniform(0.0, 2.0, (nx, grid.nv))
    values[0, :4] = [0.0, 5e-324, 1.0 / 3.0, 1e300]
    values[-1, :2] = [-0.0, 2.0 / 3.0]
    experiments.density_to_csv(GridDensity(grid, values, t=0.7), tmp_path / "d.csv")
    expected = [f"# schema={experiments._DENSITY_SCHEMA}", f"# nx={nx} nv=5 v_max=1.25 t=0.7"]
    expected += [",".join(format(v, ".17g") for v in row) for row in values]
    assert csv_lines(tmp_path / "d.csv") == expected + [""]


def test_a_study_starts_one_pool_for_all_sizes(tmp_path, monkeypatch):
    started = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    spec = base_spec(convergence={"n_values": [8, 16, 32], "trials": 5, "fit": False})
    run_convergence(ExperimentConfig.from_json(spec), tmp_path / "two", threads=2)
    assert started == [2]
    spec = base_spec(convergence={"n_values": [8, 16, 32], "trials": 2, "fit": False})
    run_convergence(ExperimentConfig.from_json(spec), tmp_path / "three", threads=3)
    assert started == [2, 2]


def test_study_files_are_equal_for_one_two_and_three_workers(tmp_path):
    # 13 trials make chunks of 4, 2 and 2 trials, so chunks differ in size and split differently
    spec = base_spec(convergence={"n_values": [8, 16, 32, 64], "trials": 13, "fit": True})
    config = ExperimentConfig.from_json(spec)
    for threads in (1, 2, 3):
        run_convergence(config, tmp_path / str(threads), threads=threads)
    names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.is_file())
    assert names == ["aggregate.csv", "ratefit.json", *(f"trials_n{n}.csv" for n in (16, 32, 64, 8))]
    for name in names:
        one = (tmp_path / "1" / name).read_bytes()
        assert (tmp_path / "2" / name).read_bytes() == one
        assert (tmp_path / "3" / name).read_bytes() == one
