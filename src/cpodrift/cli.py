"""Command-line entry point.

Subcommands: simulate, experiment <name>, fingerprint <telemetry.csv>,
compare, verify. Exit code 1 when a claim of the run does not hold, with one
``failed: <panel>: <parameter>: measured ..., target ...`` line on stderr for
each; 2, with an ``error:`` line, for bad input or a path that fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fingerprint as fp
from .config import apply_overrides, comparison_config, load_config, RunConfig
from .errors import CpodriftError
from .experiments import (EXPERIMENT_NAMES, experiment_config, run_comparison,
                          run_experiment)
from .simulate import _summarize, write_run
from .telemetry import read_csv, write_json
from .verify import verify


_FLAGS = {
    "config": dict(type=Path, help="JSON run config"),
    "seed": dict(type=int, help="override the seed"),
    "out": dict(type=Path,
                help="output directory (overrides the config's out_dir)"),
    "steps": dict(type=int, help="override step count"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpodrift",
        description="co-packaged optics thermal-drift co-simulation toolkit",
    )
    # each subcommand takes only the flags it reads; the rest read as unset
    parser.set_defaults(**dict.fromkeys(_FLAGS))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation and print the summary")
    _add_flags(p, *_FLAGS)

    p = sub.add_parser("experiment", help="run a standard experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    _add_flags(p, *_FLAGS)

    p = sub.add_parser("fingerprint",
                       help="build the fingerprint report from a telemetry CSV")
    p.add_argument("telemetry", type=Path)
    _add_flags(p, "config", "out")

    p = sub.add_parser("compare", help="reactive vs predictive comparison")
    _add_flags(p, *_FLAGS)

    p = sub.add_parser("verify", help="analytic self-checks")
    _add_flags(p, "config")

    return parser


def _config_for(args, fallback: RunConfig | None = None) -> RunConfig:
    cfg = load_config(args.config) if args.config else (fallback or RunConfig())
    return apply_overrides(
        cfg, seed=args.seed, steps=args.steps,
        out_dir=str(args.out) if args.out else None,
    )


def _verdict(claims) -> int:
    """0 if every claim holds; else 1, naming each failing claim on stderr."""
    failed = [c for c in claims if not c.ok]
    for c in failed:
        print(f"failed: {c.panel}: {c.parameter}: measured {c.measured}, "
              f"target {c.target}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (CpodriftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "simulate":
        cfg = _config_for(args)
        if not cfg.out_dir:
            print(json.dumps(_summarize(cfg).to_dict(), indent=2))
            return 0
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary = write_run(cfg, out / "telemetry.csv", out / "forecast_log.csv")[0]
        print(json.dumps(summary.to_dict(), indent=2))
        print(f"telemetry written to {out}", file=sys.stderr)
        return 0

    if args.command == "experiment":
        cfg = _config_for(args, fallback=experiment_config(args.name))
        result = run_experiment(args.name, config=cfg, out_dir=cfg.out_dir or "out")
        print(json.dumps(result.summary, indent=2))
        for f in result.files:
            print(f"wrote {f}", file=sys.stderr)
        return _verdict(result.claims)

    if args.command == "fingerprint":
        cfg = _config_for(args)
        frame = read_csv(args.telemetry)
        report = fp.build_report(frame, cfg)
        files = fp.write_report(report, cfg.out_dir or "out")
        print(fp.table_text(report.pass_fail))
        for f in files:
            print(f"wrote {f}", file=sys.stderr)
        return _verdict(report.pass_fail)

    if args.command == "compare":
        cfg = _config_for(args, fallback=comparison_config())
        report = run_comparison(cfg)
        print(report.to_text())
        if cfg.out_dir:
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_json(out / "comparison.json", report.to_dict())
        return _verdict(report.claims)

    if args.command == "verify":
        claims = verify(_config_for(args))
        print(fp.table_text(claims))
        return _verdict(claims)

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
