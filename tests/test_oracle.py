import os
import subprocess
import sys
from pathlib import Path

from topolab import kinetic, oracle
from topolab.oracle import (
    check_coarea,
    check_homogeneous_stationarity,
    check_lattice_joint_saturation,
    check_quantile_lln,
    check_rank_brute_force,
    check_riemann_closed_forms,
    check_self_convergence,
    check_transition_normalization,
    run_oracle_suite,
)


def test_fast_suite_all_green():
    results = run_oracle_suite(fast=True)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures


def test_alpha_mutation_detected(monkeypatch):
    # a 1% miscalibration of the normalization constant must flip the check
    assert check_transition_normalization().passed
    rate = oracle.rate_normalization
    monkeypatch.setattr(oracle, "rate_normalization", lambda kernel, n: rate(kernel, n) * 1.01)
    assert not check_transition_normalization().passed


def test_quadrature_mutation_detected(monkeypatch):
    # a 1% miscalibration of the gain quadrature weight must flip the check:
    # the residual jumps to ~1e-2 and stops contracting under refinement
    assert check_coarea().passed
    weights = kinetic.gain_weights
    monkeypatch.setattr(kinetic, "gain_weights", lambda *args: weights(*args) * 1.01)
    assert not check_coarea().passed


def test_individual_checks_pass():
    assert check_rank_brute_force().passed
    assert check_riemann_closed_forms().passed
    assert check_quantile_lln().passed
    assert check_lattice_joint_saturation().passed
    assert check_self_convergence().passed
    assert check_homogeneous_stationarity(nx=128).passed


def test_oracle_lines_format():
    result = check_rank_brute_force()
    assert result.line().startswith("[PASS]")


def test_transition_normalization_seeds_do_not_depend_on_string_hashing():
    # every process must check the same configurations, whatever PYTHONHASHSEED is
    script = (
        "import topolab.oracle as o\n"
        "seeds = []\n"
        "make = o._random_config\n"
        "o._random_config = lambda n, d, seed: seeds.append(seed) or make(n, d, seed)\n"
        "o.check_transition_normalization()\n"
        "print(seeds)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
