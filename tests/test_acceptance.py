"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them).  The convergence-rate criterion runs the full 200-trial study up to
n = 2048 and takes a few minutes; everything else is seconds.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from test_coupling import logged_draws, logged_tv_estimate

from topolab import coupling, particle
from topolab.coupling import SolutionReference, lln_diagnostic, run_coupled_trial
from topolab.experiments import ExperimentConfig, run_convergence
from topolab.initial import InitialLaw, PositionLaw, VelocityLaw, sample_initial
from topolab.kernels import Kernel, preset_kernels, rate_normalization, riemann_error
from topolab.kinetic import PhaseGrid, coarea_check, initial_density, l1_distance, solve
from topolab.particle import label_states, master_equation_law, simulate, total_variation
from topolab.ranks import Configuration, draw_index, normalized_ranks, partner_distribution


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {status} - {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _random_config(n: int, seed: int) -> Configuration:
    rng = np.random.default_rng(seed)
    return Configuration(rng.uniform(0, 1, n), rng.normal(0, 1, n))


def test_criterion_1_normalization_exactness():
    worst_sum = 0.0
    worst_forms = 0.0
    for name, kernel in preset_kernels().items():
        for n in (3, 10, 100, 1000):
            config = _random_config(n, seed=n * 7 + len(name))
            alpha = rate_normalization(kernel, n)
            for i in (0, n // 2, n - 1):
                probs = partner_distribution(config, kernel, i)
                worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
                direct = alpha * np.asarray(kernel(normalized_ranks(config, i)))
                direct[i] = 0.0
                worst_forms = max(worst_forms, float(np.max(np.abs(probs - direct))))
    _report(
        1,
        "normalization exactness",
        worst_sum <= 1e-12 and worst_forms <= 1e-12,
        f"max sum dev {worst_sum:.2e}, max two-form dev {worst_forms:.2e} (tol 1e-12)",
    )


def test_criterion_2_riemann_error_bound():
    worst_margin = -np.inf
    for kernel in preset_kernels().values():
        for n in range(3, 4097):
            margin = abs(riemann_error(kernel, n)) - kernel.lipschitz / (n - 1)
            worst_margin = max(worst_margin, margin)
    linear_dev = max(
        abs(riemann_error(Kernel.linear(), n) - 1.0 / (n - 1)) for n in range(3, 4097, 13)
    )
    _report(
        2,
        "Riemann-sum error bound",
        worst_margin <= 1e-15 and linear_dev <= 1e-12,
        f"worst bound margin {worst_margin:.2e}, linear closed-form dev {linear_dev:.2e}",
    )


def test_criterion_3_coarea_identity():
    kernel = Kernel.linear()
    worst = 0.0
    worst_ratio = 0.0
    for plaw in (PositionLaw.cosine(0.3), PositionLaw.two_mode(0.25, 0.15), PositionLaw.bump()):
        law = InitialLaw((plaw,), VelocityLaw.two_point())
        res = {}
        for nx in (512, 1024):
            f0 = initial_density(law, PhaseGrid(nx=nx, nv=5, v_max=1.25))
            res[nx] = float(np.max(np.abs(coarea_check(f0, kernel))))
        worst = max(worst, res[512])
        worst_ratio = max(worst_ratio, res[1024] / res[512])
    _report(
        3,
        "coarea identity",
        worst <= 5e-3 and worst_ratio <= 0.5,
        f"max residual {worst:.2e} at nx=512 (tol 5e-3), refinement factor {worst_ratio:.3f} (<= 0.5)",
    )


def test_criterion_4_homogeneous_stationarity():
    law = InitialLaw((PositionLaw.uniform(),), VelocityLaw.two_point())
    grid = PhaseGrid(nx=512, nv=5, v_max=1.25)
    f0 = initial_density(law, grid)
    worst = 0.0
    for kernel in (Kernel.linear(), Kernel.uniform()):
        sol = solve(f0, kernel, 1.0, 0.01, snapshot_times=(1.0,))
        worst = max(worst, l1_distance(sol.snapshots[-1], f0))
    _report(
        4,
        "homogeneous stationarity",
        worst <= 1e-6,
        f"L1 drift over [0,1] is {worst:.2e} (tol 1e-6)",
    )


def test_criterion_5_master_equation_oracle():
    runs = 100_000
    kernel = Kernel.linear()
    positions = np.array([0.1, 0.35, 0.7])
    labels0 = np.array([0, 1, 2])
    config = Configuration(positions, labels0.astype(float))
    exact = master_equation_law(config, kernel, labels0, 1.0, alphabet=3)

    states = label_states(3, 3)
    index = {s: k for k, s in enumerate(states)}
    counts = np.zeros(27)
    root = np.random.SeedSequence(20260515)
    for seq in root.spawn(runs):
        initial = Configuration(positions.copy(), labels0.astype(float))
        rng = np.random.default_rng(seq)
        traj = simulate(kernel, initial, 1.0, rng, frozen_positions=True)
        key = tuple(int(v) for v in traj.final.velocities[:, 0])
        counts[index[key]] += 1
    gap = total_variation(counts / runs, exact)
    _report(
        5,
        "master-equation oracle",
        gap <= 0.01,
        f"TV(simulator law, matrix-exponential law) = {gap:.4f} over {runs} runs (tol 0.01)",
    )


@dataclass
class MarginalReport:
    """Two-sample comparison between the coupled Z world and the standalone process."""

    total_events: int
    rank_pvalue: float
    velocity_pvalues: dict[float, float]
    event_count_pvalue: float

    def passed(self, significance: float = 0.01) -> bool:
        return (
            self.rank_pvalue > significance
            and all(p > significance for p in self.velocity_pvalues.values())
            and self.event_count_pvalue > significance
        )


def z_marginal_report(
    kernel: Kernel,
    law: InitialLaw,
    n: int,
    horizon: float,
    trials: int,
    reference: SolutionReference,
    seed: int,
    probe_times: tuple[float, ...] = (0.5, 1.0),
    tail_rank: int | None = None,
) -> MarginalReport:
    """Distributional comparison of the coupled Z component with the plain simulator.

    The Z marginal is exact by construction (the partner is drawn from the
    rank probabilities before any coupling decision), so this is a check of
    the implementation: partner-rank frequencies, positive-velocity counts
    at the probe times, and per-trial event counts are compared.  Ranks past
    ``tail_rank`` are merged into one bucket because the kernel weight
    vanishes toward the top rank.

    Both runs of a trial start from the same initial configuration, so each
    trial gives one paired difference of positive-velocity counts (coupled
    minus standalone) per probe time, and a paired t-test asks whether their
    mean is 0.  The signs within one trajectory are correlated (jumps copy
    velocities), but the trials are i.i.d., so the test keeps its level.

    Both runs are the shipped ones.  Their ranks are logged by wrapping the
    `draw_index` that each event calls (`particle.categorical` calls
    `particle.draw_index` too, so that one is wrapped around `simulate`
    only), and the coupled run's Z configuration at a probe time is taken
    from the `tv_estimate` it is handed to.
    """
    coupled_ranks: list[int] = []
    standalone_ranks: list[int] = []
    coupled_counts, standalone_counts = [], []
    coupled_plus: dict[float, list[int]] = {t: [] for t in probe_times}
    standalone_plus: dict[float, list[int]] = {t: [] for t in probe_times}
    z_snapshots: list[tuple[float, Configuration]] = []
    tv_edges = (np.linspace(0.0, 1.0, 9), reference.grid.v_edges)
    standalone_draw = logged_draws(draw_index, standalone_ranks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling, "draw_index", logged_draws(draw_index, coupled_ranks))
        mp.setattr(coupling, "tv_estimate", logged_tv_estimate(z_snapshots))
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial, 0)))
            initial = sample_initial(law, n, np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1)))
            logged = len(coupled_ranks)
            z_snapshots.clear()
            rec = run_coupled_trial(kernel, reference, initial, horizon, rng, probe_times, tv_edges)
            assert len(coupled_ranks) - logged == rec.event_count
            assert [t for t, _ in z_snapshots] == sorted(probe_times)
            coupled_counts.append(rec.event_count)
            for t, z in z_snapshots:
                coupled_plus[t].append(int(np.sum(z.velocities > 0)))

            rng2 = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial, 2)))
            logged = len(standalone_ranks)
            with pytest.MonkeyPatch.context() as around_simulate:
                around_simulate.setattr(particle, "draw_index", standalone_draw)
                traj = simulate(kernel, initial, horizon, rng2, probe_times)
            assert len(standalone_ranks) - logged == traj.event_count
            standalone_counts.append(traj.event_count)
            for t in probe_times:
                standalone_plus[t].append(int(np.sum(traj.snapshots[t].velocities > 0)))

    a = np.bincount(np.asarray(coupled_ranks, dtype=np.int64), minlength=n)[1:]
    b = np.bincount(np.asarray(standalone_ranks, dtype=np.int64), minlength=n)[1:]
    cut = tail_rank if tail_rank is not None else max(2, int(0.8 * (n - 1)))
    table = np.stack(
        [np.concatenate([a[:cut], [a[cut:].sum()]]), np.concatenate([b[:cut], [b[cut:].sum()]])]
    )
    rank_pvalue = float(stats.chi2_contingency(table).pvalue)

    velocity_pvalues = {}
    for t in probe_times:
        diff = np.subtract(coupled_plus[t], standalone_plus[t])
        # identical counts in every trial leave nothing to reject (the t statistic is 0/0)
        velocity_pvalues[t] = float(stats.ttest_1samp(diff, 0.0).pvalue) if diff.any() else 1.0

    count_pvalue = float(stats.mannwhitneyu(coupled_counts, standalone_counts).pvalue)
    return MarginalReport(
        total_events=int(sum(coupled_counts) + sum(standalone_counts)),
        rank_pvalue=rank_pvalue,
        velocity_pvalues=velocity_pvalues,
        event_count_pvalue=count_pvalue,
    )


def test_criterion_6_z_marginal_exactness():
    kernel = Kernel.linear()
    n, horizon, trials = 64, 1.0, 1600
    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    grid = PhaseGrid(nx=256, nv=5, v_max=1.25)
    times = tuple(np.round(np.arange(0, horizon + 1e-12, 0.02), 10))
    solution = solve(initial_density(law, grid), kernel, horizon, 0.01, times)
    reference = SolutionReference(solution, kernel)

    report = z_marginal_report(
        kernel, law, n, horizon, trials, reference, seed=61, tail_rank=52
    )
    vel = report.velocity_pvalues
    _report(
        6,
        "Z-marginal exactness",
        report.passed(0.01),
        f"{report.total_events} events: rank-frequency p={report.rank_pvalue:.3f}, "
        f"velocity-marginal p={vel[0.5]:.3f}/{vel[1.0]:.3f} at t=0.5/1.0, "
        f"event-count p={report.event_count_pvalue:.3f} (all must exceed 0.01)",
    )


@pytest.fixture(scope="module")
def convergence_study(tmp_path_factory):
    spec = {
        "version": 1,
        "seed": 20260809,
        "kernel": {"form": "linear"},
        "initial": {
            "position": {"form": "cosine", "amplitude": 0.3},
            "velocity": {"form": "two_point", "speed": 1.0},
        },
        "kinetic": {"nx": 512, "nv": 5, "v_max": 1.25, "dt": 0.01, "snapshot_spacing": 0.02},
        "system": {"n": 64, "dimension": 1, "horizon": 1.0},
        "snapshot_times": [0.25, 0.5, 0.75, 1.0],
        "coupling": {"tv_bins_x": 8},
        "convergence": {
            "n_values": [64, 128, 256, 512, 1024, 2048],
            "trials": 200,
            "fit": True,
        },
    }
    config = ExperimentConfig.from_json(spec)
    out = tmp_path_factory.mktemp("convergence")
    return config, run_convergence(config, out)


def test_criterion_7_theorem_bound_and_rate(convergence_study):
    config, result = convergence_study
    final = [row for row in result.aggregate_rows if row[1] == config.horizon]
    raw = ", ".join(f"n={int(n)}: {mean:.4f}" for n, _, mean, _, _ in final)
    bound_ok = all(mean <= bound for _, _, mean, _, bound in final)
    slope = result.fit.slope
    slope_ok = -0.65 <= slope <= -0.35
    _report(
        7,
        "theorem bound and convergence rate",
        bound_ok and slope_ok,
        f"mean decoupled fractions [{raw}] all below exp(c)/sqrt(n-1); "
        f"fitted slope {slope:.3f} in [-0.65, -0.35], r^2 {result.fit.r_squared:.3f}",
    )


def test_criterion_7b_tv_guard(convergence_study):
    # pinned after the pilot run: at n=2048 the pooled-histogram TV estimate
    # sits near 0.04 (0.009 decoupled fraction plus ~0.03 binning floor)
    config, result = convergence_study
    from topolab.experiments import read_trials_csv

    path = [p for p in result.trial_files if p.name == "trials_n2048.csv"][0]
    _, data = read_trials_csv(path)
    rows = data[data[:, 1] == config.horizon]
    mean_tv = float(rows[:, 3].mean())
    _report(
        7,
        "TV-estimate guard (pinned after pilot)",
        mean_tv <= 0.15,
        f"mean tv_estimate(1.0) = {mean_tv:.4f} at n=2048 (guard 0.15)",
    )


def test_criterion_8_lln_diagnostic_slope():
    law = PositionLaw.cosine(0.3)
    ilaw = InitialLaw((law,), VelocityLaw.two_point())
    grid = PhaseGrid(nx=2048, nv=5, v_max=1.25)
    solution = solve(initial_density(ilaw, grid), Kernel.linear(), 0.0, 0.01, (0.0,))
    reference = SolutionReference(solution, Kernel.linear())

    ns = [64, 128, 256, 512, 1024, 2048, 4096]
    trials = 240
    rng = np.random.default_rng(8128)
    means = []
    for n in ns:
        vals = np.empty(trials)
        for k in range(trials):
            config = Configuration(law.sample(n, rng), np.zeros(n))
            vals[k] = lln_diagnostic(config, reference, 0.0)
        means.append(float(vals.mean()))
    slope = float(np.polyfit(np.log(np.asarray(ns) - 1.0), np.log(means), 1)[0])
    _report(
        8,
        "law-of-large-numbers diagnostic slope",
        -0.6 <= slope <= -0.4,
        f"log-log slope {slope:.3f} over n in {ns} (target -0.5 +- 0.1)",
    )


def test_criterion_9_determinism_across_threads(tmp_path):
    spec = json.loads((Path(__file__).parent / "data" / "golden_config.json").read_text())
    spec["convergence"] = {"n_values": [8, 16], "trials": 4, "fit": False}
    config = ExperimentConfig.from_json(spec)
    run_convergence(config, tmp_path / "serial", threads=1)
    run_convergence(config, tmp_path / "again", threads=1)
    run_convergence(config, tmp_path / "pooled", threads=2)
    identical = True
    for name in ["aggregate.csv", "trials_n8.csv", "trials_n16.csv"]:
        ref = (tmp_path / "serial" / name).read_bytes()
        identical &= ref == (tmp_path / "again" / name).read_bytes()
        identical &= ref == (tmp_path / "pooled" / name).read_bytes()
    _report(
        9,
        "byte-identical reruns independent of --threads",
        identical,
        "aggregate and per-trial CSVs identical across reruns and worker counts",
    )
