"""Self-contained oracle checks wiring the independent references together.

Every check compares an implementation path against a brute-force or
closed-form alternative and reports the tolerance it hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import torus
from .coupling import CoupledState, CouplingDiagnostics, SolutionReference, UniformReference
from .coupling import coupled_event, lln_diagnostic
from .initial import InitialLaw, PositionLaw, VelocityLaw
from .kernels import Kernel, preset_kernels, rate_normalization, riemann_error
from .kinetic import PhaseGrid, coarea_check, initial_density, l1_distance, solve
from .particle import (
    Draws,
    frozen_label_trials,
    label_states,
    master_equation_law,
    total_variation,
)
from .ranks import (
    Configuration,
    empirical_mass,
    normalized_ranks,
    partner_distribution,
    rank_cdf,
    rank_vector,
)


@dataclass
class OracleResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _random_config(n: int, d: int, seed: int) -> Configuration:
    rng = np.random.default_rng(seed)
    return Configuration(rng.uniform(0, 1, (n, d)), rng.normal(0, 1, (n, d)))


def check_rank_brute_force() -> OracleResult:
    """Ranks against an independent per-pair sort, in both dimensions."""
    worst = 0
    for d in (1, 2):
        config = _random_config(64, d, seed=101 + d)
        for i in range(config.n):
            ranks = rank_vector(config, i)
            keyed = sorted(
                (float(torus.distance(config.positions[h], config.positions[i])), h)
                for h in range(config.n)
                if h != i
            )
            for expected_rank, (_, h) in enumerate(keyed, start=1):
                worst = max(worst, abs(int(ranks[h]) - expected_rank))
    return OracleResult("rank-vs-brute-force", worst == 0, f"max rank mismatch {worst}")


def check_mass_rank_identity() -> OracleResult:
    """Closed-ball empirical mass equals the normalized rank at partner radii."""
    config = _random_config(128, 1, seed=23)
    worst = 0.0
    for i in range(0, config.n, 11):
        norm = normalized_ranks(config, i)
        for j in range(0, config.n, 7):
            if j == i:
                continue
            radius = float(torus.distance(config.positions[i], config.positions[j]))
            mass = empirical_mass(config, config.positions[i], radius, exclude=i)
            worst = max(worst, abs(mass - norm[j]))
    return OracleResult("mass-equals-normalized-rank", worst <= 1e-15, f"max gap {worst:.2e}")


def check_riemann_closed_forms() -> OracleResult:
    """Flat kernel sums exactly; the linear kernel has gap 1/(n-1); bound holds."""
    ok = riemann_error(Kernel.uniform(), 17) == 0.0
    ok &= abs(riemann_error(Kernel.linear(), 3) - 0.5) < 1e-14
    worst = 0.0
    for n in (3, 10, 100, 1000, 4096):
        worst = max(worst, abs(riemann_error(Kernel.linear(), n) - 1.0 / (n - 1)))
    bound_ok = True
    for kernel in preset_kernels().values():
        for n in range(3, 4097, 37):
            if abs(riemann_error(kernel, n)) > kernel.lipschitz / (n - 1) + 1e-15:
                bound_ok = False
    passed = bool(ok and worst < 1e-12 and bound_ok)
    return OracleResult(
        "riemann-error-closed-forms", passed, f"linear-gap dev {worst:.2e}, bound {'ok' if bound_ok else 'violated'}"
    )


def check_rate_normalization_values() -> OracleResult:
    cases = [
        (Kernel.uniform(), 5, 0.25),
        (Kernel.linear(), 3, 1.0),
        (Kernel.linear(), 5, 1.0 / 3.0),
    ]
    worst = max(abs(rate_normalization(k, n) - v) for k, n, v in cases)
    return OracleResult("rate-normalization-values", worst < 1e-14, f"max dev {worst:.2e}")


def check_transition_normalization() -> OracleResult:
    """Probability vectors sum to 1 and both algebraic forms agree to 1e-12."""
    worst_sum = 0.0
    worst_forms = 0.0
    for k, kernel in enumerate(preset_kernels().values()):
        for n in (3, 10, 100, 1000):
            config = _random_config(n, 1, seed=1000 * k + n)
            alpha = rate_normalization(kernel, n)
            for i in (0, n - 1):
                probs = partner_distribution(config, kernel, i)
                worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
                direct = alpha * np.asarray(kernel(normalized_ranks(config, i)))
                direct[i] = 0.0
                worst_forms = max(worst_forms, float(np.max(np.abs(probs - direct))))
    passed = worst_sum <= 1e-12 and worst_forms <= 1e-12
    return OracleResult(
        "transition-normalization",
        passed,
        f"sum dev {worst_sum:.2e}, two-form dev {worst_forms:.2e}",
    )


def check_master_equation_two_particles(trials: int = 1_000_000) -> OracleResult:
    """Exact survival law e^{-2t} against both the matrix exponential and simulation."""
    config = Configuration(np.array([0.2, 0.6]), np.array([0.0, 1.0]))
    t = 0.7
    law = master_equation_law(config, Kernel.uniform(), np.array([0, 1]), t, alphabet=2)
    states = label_states(2, 2)
    analytic = np.zeros(4)
    analytic[states.index((0, 1))] = np.exp(-2 * t)
    analytic[states.index((0, 0))] = (1 - np.exp(-2 * t)) / 2
    analytic[states.index((1, 1))] = (1 - np.exp(-2 * t)) / 2
    exact_gap = total_variation(law, analytic)
    rng = np.random.default_rng(2024)
    mc = frozen_label_trials(config, Kernel.uniform(), np.array([0, 1]), t, trials, rng, alphabet=2)
    mc_gap = total_variation(mc, law)
    passed = exact_gap <= 1e-12 and mc_gap <= 0.005
    return OracleResult(
        "master-equation-two-particles", passed, f"expm gap {exact_gap:.2e}, mc gap {mc_gap:.4f}"
    )


def check_master_equation_three_particles(trials: int = 100_000) -> OracleResult:
    """Frozen three-particle chain against the matrix exponential at TV 0.01."""
    config = Configuration(np.array([0.1, 0.35, 0.7]), np.array([0.0, 1.0, 2.0]))
    kernel = Kernel.linear()
    labels0 = np.array([0, 1, 2])
    exact = master_equation_law(config, kernel, labels0, 1.0, alphabet=3)
    rng = np.random.default_rng(515)
    mc = frozen_label_trials(config, kernel, labels0, 1.0, trials, rng, alphabet=3)
    gap = total_variation(mc, exact)
    return OracleResult("master-equation-three-particles", gap <= 0.01, f"TV {gap:.4f}")


def check_coarea() -> OracleResult:
    """Residual small at nx=512 and at least halving at nx=1024."""
    law = InitialLaw((PositionLaw.cosine(0.3),), VelocityLaw.two_point())
    kernel = Kernel.linear()
    res = {}
    for nx in (512, 1024):
        f0 = initial_density(law, PhaseGrid(nx=nx, nv=5, v_max=1.25))
        res[nx] = float(np.max(np.abs(coarea_check(f0, kernel))))
    passed = res[512] <= 5e-3 and res[1024] <= 0.5 * res[512] + 1e-14
    return OracleResult(
        "coarea-identity", passed, f"max residual {res[512]:.2e} at nx=512, {res[1024]:.2e} at nx=1024"
    )


def check_homogeneous_stationarity(nx: int = 256) -> OracleResult:
    law = InitialLaw((PositionLaw.uniform(),), VelocityLaw.two_point())
    grid = PhaseGrid(nx=nx, nv=5, v_max=1.25)
    f0 = initial_density(law, grid)
    sol = solve(f0, Kernel.linear(), 1.0, 0.01, snapshot_times=(1.0,))
    gap = l1_distance(sol.snapshots[-1], f0)
    return OracleResult("homogeneous-stationarity", gap <= 1e-6, f"L1 drift {gap:.2e}")


def check_self_convergence() -> OracleResult:
    law = InitialLaw((PositionLaw.cosine(0.4),), VelocityLaw.two_point())
    grid = PhaseGrid(nx=64, nv=5, v_max=1.25)
    f0 = initial_density(law, grid)
    kernel = Kernel.linear()
    finals = {
        dt: solve(f0, kernel, 1.0, dt, snapshot_times=(1.0,)).snapshots[-1]
        for dt in (0.1, 0.05, 0.025)
    }
    ratio = l1_distance(finals[0.1], finals[0.05]) / l1_distance(finals[0.05], finals[0.025])
    return OracleResult("kinetic-self-convergence", 1.7 <= ratio <= 4.3, f"halving ratio {ratio:.2f}")


def check_quantile_lln() -> OracleResult:
    """Samples at exact quantiles track the true mass within one cell width."""
    nx = 128
    law = PositionLaw.cosine(0.3)
    n = 2 * nx + 1
    u = (np.arange(n - 1) + 0.5) / (n - 1)
    positions = np.concatenate([[0.37], law.invert(u)])
    config = Configuration(positions, np.zeros(n))

    ilaw = InitialLaw((law,), VelocityLaw.two_point())
    grid = PhaseGrid(nx=nx, nv=5, v_max=1.25)
    sol = solve(initial_density(ilaw, grid), Kernel.linear(), 0.0, 0.01, snapshot_times=(0.0,))
    ref = SolutionReference(sol, Kernel.linear())
    value = lln_diagnostic(config, ref, 0.0)
    return OracleResult("quantile-lln-diagnostic", value <= 1.0 / nx, f"gap {value:.2e} vs dx {1.0 / nx:.2e}")


def check_lattice_joint_saturation() -> OracleResult:
    """Half-arc lattice: reference masses never exceed ranks, so no one-sided jumps."""
    n = 64
    positions = np.arange(n) / (2.0 * (n - 1))
    state = CoupledState.delta(Configuration(positions, np.zeros(n)))
    kernel = Kernel.linear()
    ref = UniformReference(VelocityLaw.two_point())
    cdf = rank_cdf(kernel, n)
    draws = Draws(np.random.default_rng(7), n)
    diag = CouplingDiagnostics()
    for _ in range(400):
        coupled_event(state, kernel, ref, cdf, draws, diag)
    passed = diag.z_only == 0 and state.decoupled_fraction() == 0.0
    return OracleResult(
        "lattice-joint-saturation", passed, f"{diag.joint} joint, {diag.z_only} one-sided"
    )


def run_oracle_suite(fast: bool = False) -> list[OracleResult]:
    """Run every oracle at its true scales; ``fast`` reduces the Monte-Carlo sizes."""
    mc = 20_000 if fast else 100_000
    return [
        check_rank_brute_force(),
        check_mass_rank_identity(),
        check_riemann_closed_forms(),
        check_rate_normalization_values(),
        check_transition_normalization(),
        check_master_equation_two_particles(),
        check_master_equation_three_particles(trials=mc),
        check_coarea(),
        check_homogeneous_stationarity(nx=128 if fast else 256),
        check_self_convergence(),
        check_quantile_lln(),
        check_lattice_joint_saturation(),
    ]
