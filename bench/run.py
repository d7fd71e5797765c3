"""Run one benchmark workload against the topolab sources of this checkout.

    python3 bench/run.py --workload study-small-n --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of the workload until ``--seconds`` are spent (at
least one round; two with ``--trace 1``) and checks every round's outputs.
With ``--trace 0`` it prints the end-to-end metrics, the medians over its
rounds; with ``--trace 1`` it alternates untraced and traced rounds, prints
the per-layer metrics of the traced ones and the tracing overhead, and
writes the spans to .bench_out/.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20260809
# Pool workers of the untraced run; every other workload runs in one process.
# A traced run always uses one worker so that every span lands in one process.
POOL_WORKERS = {"study-small-n": 2}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def limit_threads() -> None:
    """One BLAS thread per process, so pool workers times BLAS threads stays within nproc.

    Must run before numpy is imported.  The workloads' BLAS calls are
    matrix-vector sized (at most 2048 x 2048 by 2048 x 5); on two vCPUs a
    second OpenBLAS thread made the nx = 2048 kinetic solve about 20% slower.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def machine_facts(workers: int) -> dict:
    import numpy as np
    import scipy

    blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "os_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_info.get('name')} {blas_info.get('version')}",
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, with a pool, workers times the largest worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * children if workers > 1 else 0)) / 1024.0


def run_rounds(workload, seed: int, seconds: float, trace: bool, workers: int, work: Path):
    """Run rounds until the time is spent; returns (rounds, tracer, correct, attempted, failed).

    ``rounds`` holds (traced, Round) for every round that finished and passed
    its checks.  With ``trace`` the odd rounds are traced.
    """
    from checks import CheckError
    from spans import Tracer

    tracer = Tracer()
    rounds = []
    durations = []
    correct = True
    failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = trace and k % 2 == 1
        round_dir = work / f"round{k}"
        began = time.perf_counter()
        lo = len(tracer)
        tracer.install(layers=traced)
        try:
            rounds.append((traced, workload.run(seed, round_dir, tracer, workers)))
        except CheckError as exc:
            correct = False
            print(f"check failed in round {k}: {exc}", file=sys.stderr)
        except Exception:  # a failed operation: count it and keep measuring
            failed += 1
            traceback.print_exc()
        finally:
            tracer.restore()
            tracer.rounds.append((lo, len(tracer), traced))
            shutil.rmtree(round_dir, ignore_errors=True)
        k += 1
        durations.append(time.perf_counter() - began)
        if k >= (2 if trace else 1) and time.perf_counter() + statistics.median(durations) > deadline:
            break
    if len({r.digest for _, r in rounds}) > 1:
        correct = False
        print("rounds with the same seed produced different outputs", file=sys.stderr)
    return rounds, tracer, correct, k, failed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "topolab" / "__init__.py").is_file():
        print(f"error: no topolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workers = 1 if args.trace else min(POOL_WORKERS.get(args.workload, 1), len(os.sched_getaffinity(0)))
    limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import topolab

    if Path(topolab.__file__).resolve().parent != (ROOT / "src" / "topolab").resolve():
        print(f"error: imported topolab from {topolab.__file__}, not this checkout", file=sys.stderr)
        return 2
    from spans import layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        rounds, tracer, correct, attempted, failed = run_rounds(
            workload, args.seed, args.seconds, bool(args.trace), workers, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts = machine_facts(workers)
    facts.update(
        workload=args.workload, seed=args.seed, trace=args.trace, rounds=attempted,
        round_wall_s=[round(r.wall_s, 4) for _, r in rounds],
    )
    print("# " + json.dumps(facts, sort_keys=True))
    if not rounds:
        print("error: no round finished", file=sys.stderr)
        return 1

    if args.trace:
        walls = {flag: [r.wall_s for traced, r in rounds if traced == flag] for flag in (False, True)}
        metrics = {nm: {"value": v, "unit": u} for nm, (v, u) in layer_metrics(tracer).items()}
        overhead = (statistics.median(walls[True]) - statistics.median(walls[False])) if all(walls.values()) else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz", facts)
    else:
        rs = [r for _, r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(r.setup_s for r in rs), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in rs), "unit": "s"},
            "events_per_s": {"value": statistics.median(r.events / r.event_s for r in rs), "unit": "events/s"},
            "peak_rss_mb": {"value": peak_rss_mb(workers), "unit": "MB"},
        }
    result = {
        "correct": correct,
        "attempted": attempted * workload.operations,
        "failed": failed * workload.operations,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
