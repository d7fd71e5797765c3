"""Command-line experiment runner.

Subcommands: simulate (particle system), kinetic (grid solve), couple (one
coupled run), convergence (full study), oracle (reference checks), report
(SVG plots).  Exit codes: 0 success, 2 validation error, 3 oracle failure;
any other exception is an internal fault and propagates (traceback, exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    density_to_csv,
    kinetic_solution,
    run_convergence,
    run_particle_simulation,
    run_single_coupled,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    path = Path(args.config)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        # a missing or unreadable file, undecodable text, or broken JSON
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(spec, dict):  # from_json would decode a JSON string once more
        raise ConfigError(f"config file {path} does not hold a JSON object")
    seed = getattr(args, "seed", None)  # commands whose output the seed cannot change lack --seed
    if seed is not None:
        spec["seed"] = seed
    return ExperimentConfig.from_json(spec)


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.out)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    trajectory = run_particle_simulation(config, _out_dir(args))
    print(f"simulated n={config.n} to t={config.horizon}: {trajectory.event_count} events")
    print(f"wrote {_out_dir(args) / 'events.csv'} and {_out_dir(args) / 'snapshots.csv'}")
    return EXIT_OK


def cmd_kinetic(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    solution = kinetic_solution(config, out)
    out.mkdir(parents=True, exist_ok=True)
    for t, snap in zip(solution.times, solution.snapshots):
        density_to_csv(snap, out / f"density_t{format(float(t), '.6g')}.csv")
    print(
        f"solved to t={config.horizon} on {config.nx}x{config.nv} grid; "
        f"{len(solution.times)} snapshots, accumulated drift {solution.drift_total:.3e}"
    )
    return EXIT_OK


def cmd_couple(args: argparse.Namespace) -> int:
    config = _load_config(args)
    record = run_single_coupled(config, _out_dir(args))
    print(
        f"coupled run n={config.n}: {record.event_count} events, "
        f"final decoupled fraction {record.d_n[-1]:.4f}"
    )
    return EXIT_OK


def cmd_convergence(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_convergence(config, _out_dir(args), threads=args.threads)
    for n in config.n_values:
        rows = [r for r in result.aggregate_rows if r[0] == n]
        final = rows[-1]
        print(
            f"n={n}: mean d_n({final[1]:g}) = {final[2]:.5f} +- {final[3]:.5f}"
            f" (bound {final[4]:.3g})"
        )
    if result.fit is not None:
        fit = result.fit
        print(
            f"rate fit: slope {fit.slope:.3f} [{fit.ci_low:.3f}, {fit.ci_high:.3f}],"
            f" r^2 {fit.r_squared:.4f}"
        )
    print(f"wrote {result.aggregate_file}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import run_oracle_suite

    results = run_oracle_suite(fast=args.fast)
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print(f"oracle suite: {len(results)}/{len(results)} checks passed")
        return EXIT_OK
    failed = sum(1 for r in results if not r.passed)
    print(f"oracle suite: {failed} of {len(results)} checks FAILED")
    return EXIT_ORACLE


def cmd_report(args: argparse.Namespace) -> int:
    from .report import render_report

    written = render_report(_out_dir(args))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 worker, got {count}")
    return count


_OPTIONS = {
    "config": {"required": True, "help": "experiment JSON file"},
    "seed": {"type": int, "default": None, "help": "override the config seed"},
    "out": {"default": "out", "help": "output directory"},
    "threads": {"type": _worker_count, "default": 1, "help": "trial worker count"},
    "fast": {"action": "store_true", "help": "reduced Monte-Carlo sizes"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="rank-interaction particle systems, their kinetic limit, and the coupling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the options it reads
    for name, help_text, options in (
        ("simulate", "run the particle jump process", ("config", "seed", "out")),
        ("kinetic", "solve the limit equation", ("config", "out")),
        ("couple", "one coupled trajectory", ("config", "seed", "out")),
        ("convergence", "full convergence study", ("config", "seed", "out", "threads")),
        ("oracle", "run the reference checks", ("fast",)),
        ("report", "render SVG plots from CSVs", ("out",)),
    ):
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "kinetic": cmd_kinetic,
    "couple": cmd_couple,
    "convergence": cmd_convergence,
    "oracle": cmd_oracle,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
