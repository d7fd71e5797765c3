"""Experiment configuration, trial orchestration, CSV schemas, and rate fitting.

A single JSON document configures every subcommand.  Runs are deterministic:
per-trial generator streams are spawned from (seed, n, trial), the kinetic
solution is computed once per content hash and cached on disk, and all
aggregation reduces in trial order, so results are byte-identical however
many workers are used.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import Reference, SolutionReference, TrialRecord, decoupling_bound, run_coupled_trial
from .initial import InitialLaw, initial_law_from_json, sample_initial
from .kernels import Kernel, rate_normalization
from .kinetic import (
    SOLVER_VERSION,
    GridDensity,
    KineticSolution,
    PhaseGrid,
    initial_density,
    solve,
)
from .particle import Trajectory, simulate

CONFIG_VERSION = 1
_TRIALS_SCHEMA = "topolab.trials.v1"
_AGGREGATE_SCHEMA = "topolab.aggregate.v1"
_EVENTS_SCHEMA = "topolab.events.v1"
_SNAPSHOTS_SCHEMA = "topolab.snapshots.v1"
_CSV_BLOCK = 1024  # snapshot rows formatted per write


class ConfigError(ValueError):
    """Raised for malformed experiment configurations (CLI exit code 2)."""


def _fmt(x: float) -> str:
    return format(x, ".12g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    seed: int
    kernel: Kernel
    kernel_spec: dict
    initial: InitialLaw
    initial_spec: dict
    nx: int
    nv: int
    v_max: float
    dt: float
    snapshot_spacing: float
    n: int
    dimension: int
    horizon: float
    frozen_positions: bool
    snapshot_times: tuple[float, ...]
    tv_bins_x: int
    n_values: tuple[int, ...]
    trials: int
    fit: bool

    @classmethod
    def from_json(cls, text_or_dict: str | dict) -> "ExperimentConfig":
        try:
            spec = json.loads(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise ConfigError(f"config must be a JSON object, not {type(spec).__name__}")
        try:  # Python's json reads NaN, Infinity and 1e999 (as inf)
            json.dumps(spec, allow_nan=False)
        except ValueError as exc:
            raise ConfigError("config holds NaN, Infinity or a number past the float range") from exc
        version = spec.get("version")
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version!r}, expected {CONFIG_VERSION}")
        try:
            kernel_spec = spec["kernel"]
            kernel = Kernel.from_json(kernel_spec)
            kernel.validate()
            initial_spec = spec["initial"]
            initial = initial_law_from_json(initial_spec)
            for key in ("kinetic", "system", "convergence", "coupling"):
                if not isinstance(spec.get(key, {}), dict):
                    raise ConfigError(f"{key} must be a JSON object, not {type(spec[key]).__name__}")
            kin = spec.get("kinetic", {})
            system = spec.get("system", {})
            conv = spec.get("convergence", {})
            coupling = spec.get("coupling", {})
            config = cls(
                seed=int(spec.get("seed", 0)),
                kernel=kernel,
                kernel_spec=kernel_spec,
                initial=initial,
                initial_spec=initial_spec,
                nx=int(kin.get("nx", 512)),
                nv=int(kin.get("nv", 5)),
                v_max=float(kin.get("v_max", 1.25)),
                dt=float(kin.get("dt", 0.01)),
                snapshot_spacing=float(kin.get("snapshot_spacing", 0.02)),
                n=int(system.get("n", 64)),
                dimension=int(system.get("dimension", 1)),
                horizon=float(system.get("horizon", 1.0)),
                frozen_positions=bool(system.get("frozen_positions", False)),
                snapshot_times=tuple(float(t) for t in spec.get("snapshot_times", [])),
                tv_bins_x=int(coupling.get("tv_bins_x", 8)),
                n_values=tuple(int(v) for v in conv.get("n_values", [])),
                trials=int(conv.get("trials", 1)),
                fit=bool(conv.get("fit", True)),
            )
            config.validate()
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc
        return config

    def validate(self) -> None:
        """Check the fields; `from_json` reports any ValueError from here as a ConfigError."""
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n < 2:
            raise ConfigError(f"system.n must be >= 2, got {self.n}")
        if self.dimension not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.initial.d != self.dimension:
            raise ConfigError(
                f"initial law is {self.initial.d}-dimensional, system.dimension is {self.dimension}"
            )
        if self.horizon < 0:
            raise ConfigError("horizon must be nonnegative")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.n_values:
            diffs = np.diff(self.n_values)
            if np.any(diffs <= 0) or min(self.n_values) < 2:
                raise ConfigError("n_values must be strictly increasing and >= 2")
            if self.fit and len(self.n_values) < 4:
                raise ConfigError(f"convergence.fit needs at least 4 n_values, got {self.n_values}")
        for n in (self.n, *self.n_values):
            rate_normalization(self.kernel, n)
        if not 0.0 < self.snapshot_spacing <= 10 * self.dt + 1e-12:
            raise ConfigError("snapshot_spacing must be positive and not exceed 10 * dt")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.horizon:
                raise ConfigError(f"snapshot time {t} outside [0, horizon]")
        if np.any(np.diff(self.snapshot_times) <= 0):
            raise ConfigError("snapshot_times must be strictly increasing")
        if self.tv_bins_x <= 0:
            raise ConfigError(f"coupling.tv_bins_x must be >= 1, got {self.tv_bins_x}")
        if self.nx % self.tv_bins_x != 0:
            raise ConfigError("tv_bins_x must divide kinetic nx")
        if self.dimension == 1:
            grid = self.grid()
            centers = grid.v_centers
            for atom in self.initial.velocity.atoms[:, 0]:
                if np.min(np.abs(centers - atom)) > 1e-9:
                    raise ConfigError(
                        f"velocity atom {atom} is not a v-grid cell center; "
                        "choose nv/v_max so atoms sit on centers"
                    )

    def check_kinetic(self) -> None:
        """Reject what the grid solver cannot serve; particle-only runs skip this."""
        if self.dimension != 1:
            raise ConfigError(f"the kinetic solver is one-dimensional, got d={self.dimension}")
        if not 0.0 < self.dt <= 1.0:
            raise ConfigError(f"kinetic.dt must lie in (0, 1], got {self.dt}")
        steps = round(self.snapshot_spacing / self.dt)
        if abs(steps * self.dt - self.snapshot_spacing) > 1e-9:
            raise ConfigError(f"snapshot_spacing {self.snapshot_spacing} is not a multiple of dt")
        count = round(self.horizon / self.snapshot_spacing)
        if abs(count * self.snapshot_spacing - self.horizon) > 1e-9:
            raise ConfigError(f"horizon {self.horizon} is not a multiple of snapshot_spacing")

    def grid(self) -> PhaseGrid:
        return PhaseGrid(nx=self.nx, nv=self.nv, v_max=self.v_max)

    def kinetic_snapshot_times(self) -> tuple[float, ...]:
        count = int(round(self.horizon / self.snapshot_spacing))
        return tuple(np.round(np.arange(count + 1) * self.snapshot_spacing, 10))

    def default_snapshot_times(self) -> tuple[float, ...]:
        if self.snapshot_times:
            return self.snapshot_times
        return tuple(np.round(np.arange(1, 5) * self.horizon / 4, 10))

    def kinetic_cache_key(self) -> str:
        payload = json.dumps(
            {
                "kernel": self.kernel_spec,
                "initial": self.initial_spec,
                "nx": self.nx,
                "nv": self.nv,
                "v_max": self.v_max,
                "dt": self.dt,
                "spacing": self.snapshot_spacing,
                "horizon": self.horizon,
                "solver": SOLVER_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- kinetic solution with disk cache ---------------------------------------------


def kinetic_solution(config: ExperimentConfig, out_dir: Path | None) -> KineticSolution:
    """Solve (or load from cache) the kinetic equation for this configuration.

    A cache file that cannot be read, or holds other snapshot times or shape,
    is a miss and is replaced.
    """
    config.check_kinetic()
    grid = config.grid()
    times = config.kinetic_snapshot_times()
    cache_path = None
    if out_dir is not None:
        cache_path = Path(out_dir) / "cache" / f"kinetic_{config.kinetic_cache_key()}.npz"
        try:
            with np.load(cache_path) as data:
                stored, values, drift = data["times"], data["values"], float(data["drift"])
        except (FileNotFoundError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
            # no file, or not a whole one (empty, truncated, foreign): a miss
            stored = values = None
        fits = values is not None and values.shape == (len(times), grid.nx, grid.nv)
        if fits and np.array_equal(stored, times):
            snaps = [GridDensity(grid, v, t=float(s)) for s, v in zip(stored, values)]
            return KineticSolution(grid, stored, snaps, drift_total=drift)
    f0 = initial_density(config.initial, grid)
    solution = solve(f0, config.kernel, config.horizon, config.dt, times)
    if cache_path is not None:
        # write beside the target, then rename: readers never see a partial file
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_name(f"{cache_path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    times=solution.times,
                    values=np.stack([s.values for s in solution.snapshots]),
                    drift=solution.drift_total,
                )
            os.replace(tmp, cache_path)
        finally:
            tmp.unlink(missing_ok=True)
    return solution


# -- coupled trial orchestration ---------------------------------------------------

_WORKER_CTX: dict = {}


def _run_one_trial(config: ExperimentConfig, reference: Reference, n: int, trial: int) -> TrialRecord:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(n, trial)))
    initial = sample_initial(
        config.initial, n, np.random.SeedSequence(entropy=config.seed, spawn_key=(n, trial, 1))
    )
    return run_coupled_trial(
        config.kernel,
        reference,
        initial,
        config.horizon,
        rng,
        config.default_snapshot_times(),
        tv_edges=(np.linspace(0.0, 1.0, config.tv_bins_x + 1), config.grid().v_edges),
    )


def _worker_init(config: ExperimentConfig, reference: Reference) -> None:
    _WORKER_CTX["config"] = config
    _WORKER_CTX["reference"] = reference


def _worker_run(args: tuple[int, int]) -> TrialRecord:
    n, trial = args
    return _run_one_trial(_WORKER_CTX["config"], _WORKER_CTX["reference"], n, trial)


def run_trials(
    config: ExperimentConfig, reference: Reference, n: int, threads: int = 1
) -> list[TrialRecord]:
    """All trials for one system size, in trial order regardless of worker count."""
    jobs = [(n, trial) for trial in range(config.trials)]
    # a pool forks all its workers up front, so never ask for more than there are trials
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [_run_one_trial(config, reference, n, trial) for _, trial in jobs]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(config, reference)
    ) as pool:
        return list(pool.map(_worker_run, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


# -- rate fit -----------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log mean decoupled fraction against log(n-1)."""

    slope: float
    intercept: float
    r_squared: float
    ci_low: float
    ci_high: float
    n_values: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_values": list(self.n_values),
        }


def rate_fit(n_values: np.ndarray, means: np.ndarray) -> RateFit:
    """Fit the convergence exponent; needs at least 4 positive means."""
    n_values = np.asarray(n_values)
    means = np.asarray(means)
    usable = means > 0
    if np.count_nonzero(usable) < 4:
        raise ConfigError("rate fit needs at least 4 system sizes with positive means")
    x = np.log(n_values[usable] - 1.0)
    y = np.log(means[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = len(x) - 2
    se = math.sqrt(ss_res / dof / float(np.sum((x - x.mean()) ** 2))) if dof > 0 else 0.0
    # ~95% normal interval; the fit is diagnostic, not inferential
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        ci_low=float(slope - 1.96 * se),
        ci_high=float(slope + 1.96 * se),
        n_values=tuple(int(v) for v in n_values[usable]),
    )


# -- CSV writers and readers --------------------------------------------------------


def write_trials_csv(path: Path, n: int, records: list[TrialRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={_TRIALS_SCHEMA} n={n}\n")
        fh.write("trial,t,d_n,tv_estimate,joint_count,z_only_count,sigma_only_count,lln_diag,rescale_mag\n")
        for trial, rec in enumerate(records):
            for k in range(len(rec.times)):
                fh.write(
                    ",".join(
                        [
                            str(trial),
                            _fmt(rec.times[k]),
                            _fmt(rec.d_n[k]),
                            _fmt(rec.tv[k]),
                            str(int(rec.joint[k])),
                            str(int(rec.z_only[k])),
                            str(int(rec.sigma_only[k])),
                            _fmt(rec.lln[k]),
                            _fmt(rec.rescale_mean[k]),
                        ]
                    )
                    + "\n"
                )


def _open_study_file(path: Path):
    """Open a CSV of an earlier study; a missing or unreadable file is a ConfigError."""
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read study file {path}: {exc}") from exc


def read_trials_csv(path: Path) -> tuple[int, np.ndarray]:
    with _open_study_file(path) as fh:
        schema = fh.readline().strip()
        if not schema.startswith(f"# schema={_TRIALS_SCHEMA}"):
            raise ConfigError(f"unknown trials schema in {path}: {schema!r}")
        header = fh.readline()
        try:
            n = int(schema.split("n=")[1])
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"malformed trials file {path}: {exc}") from exc
    if header.count(",") != 8:
        raise ConfigError(f"unexpected trials header in {path}")
    return n, data


def write_aggregate_csv(path: Path, rows: list[tuple]) -> None:
    """Rows: (n, t, mean d_n, stderr, bound)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={_AGGREGATE_SCHEMA}\n")
        fh.write("n,t,mean_d_n,stderr,bound\n")
        for n, t, mean, stderr, bound in rows:
            fh.write(
                f"{n},{_fmt(t)},{_fmt(mean)},{_fmt(stderr)},{_fmt(bound)}\n"
            )


def read_aggregate_csv(path: Path) -> np.ndarray:
    with _open_study_file(path) as fh:
        schema = fh.readline().strip()
        if schema != f"# schema={_AGGREGATE_SCHEMA}":
            raise ConfigError(f"unknown aggregate schema in {path}: {schema!r}")
        fh.readline()
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"malformed aggregate file {path}: {exc}") from exc


def write_events_csv(path: Path, trajectory: Trajectory) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={_EVENTS_SCHEMA}\n")
        fh.write("t,i,j\n")
        for t, i, j in zip(
            trajectory.event_times, trajectory.event_focal, trajectory.event_partner
        ):
            fh.write(f"{_fmt(t)},{i},{j}\n")


def write_snapshots_csv(path: Path, trajectory: Trajectory, dimension: int) -> None:
    cols = [f"x{a}" for a in range(dimension)] + [f"v{a}" for a in range(dimension)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={_SNAPSHOTS_SCHEMA}\n")
        fh.write("t,particle," + ",".join(cols) + "\n")
        # "{:.12g}" is `_fmt`.  Rows go out in blocks, so the text of a whole
        # snapshot is never held at once.
        row = ",{}," + ",".join(["{:.12g}"] * (2 * dimension)) + "\n"
        for t in sorted(trajectory.snapshots):
            snap = trajectory.snapshots[t]
            fmt = (_fmt(t) + row).format
            values = np.hstack([snap.positions, snap.velocities])
            for lo in range(0, snap.n, _CSV_BLOCK):
                block = values[lo : lo + _CSV_BLOCK].tolist()
                fh.write("".join([fmt(p, *vals) for p, vals in enumerate(block, lo)]))


# -- full convergence study ----------------------------------------------------------


@dataclass
class ConvergenceResult:
    aggregate_rows: list[tuple]
    fit: RateFit | None
    trial_files: list[Path]
    aggregate_file: Path
    fit_file: Path | None


def run_convergence(
    config: ExperimentConfig, out_dir: Path, threads: int = 1
) -> ConvergenceResult:
    """Coupled trials for every system size against one shared kinetic solution."""
    if not config.n_values:
        raise ConfigError("convergence study needs convergence.n_values")
    out_dir = Path(out_dir)
    solution = kinetic_solution(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = SolutionReference(solution, config.kernel)
    snapshot_times = config.default_snapshot_times()

    aggregate_rows: list[tuple] = []
    trial_files: list[Path] = []
    final_means: list[float] = []
    for n in config.n_values:
        records = run_trials(config, reference, n, threads=threads)
        path = out_dir / f"trials_n{n}.csv"
        write_trials_csv(path, n, records)
        trial_files.append(path)
        d_matrix = np.stack([rec.d_n for rec in records])
        for k, t in enumerate(snapshot_times):
            col = d_matrix[:, k]
            mean = float(col.mean())
            stderr = float(col.std(ddof=1) / np.sqrt(len(col))) if len(col) > 1 else 0.0
            aggregate_rows.append((n, t, mean, stderr, decoupling_bound(config.kernel, n, t)))
        final_means.append(float(d_matrix[:, -1].mean()))

    aggregate_file = out_dir / "aggregate.csv"
    write_aggregate_csv(aggregate_file, aggregate_rows)

    fit = None
    fit_file = None
    if config.fit:
        fit = rate_fit(np.asarray(config.n_values), np.asarray(final_means))
        fit_file = out_dir / "ratefit.json"
        with open(fit_file, "w", encoding="utf-8") as fh:
            json.dump(fit.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ConvergenceResult(aggregate_rows, fit, trial_files, aggregate_file, fit_file)


# -- single runs for the CLI ----------------------------------------------------------


def run_particle_simulation(config: ExperimentConfig, out_dir: Path) -> Trajectory:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    initial = sample_initial(
        config.initial, config.n, np.random.SeedSequence(entropy=config.seed, spawn_key=(1,))
    )
    trajectory = simulate(
        config.kernel,
        initial,
        config.horizon,
        rng,
        config.default_snapshot_times(),
        frozen_positions=config.frozen_positions,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_events_csv(out_dir / "events.csv", trajectory)
    write_snapshots_csv(out_dir / "snapshots.csv", trajectory, config.dimension)
    return trajectory


def run_single_coupled(config: ExperimentConfig, out_dir: Path) -> TrialRecord:
    out_dir = Path(out_dir)
    solution = kinetic_solution(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = SolutionReference(solution, config.kernel)
    record = _run_one_trial(config, reference, config.n, 0)
    write_trials_csv(out_dir / f"trials_n{config.n}.csv", config.n, [record])
    return record
