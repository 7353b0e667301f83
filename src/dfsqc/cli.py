"""Command-line entry point.

    dfsqc simulate <config.yaml> [--check] [--seed N] [--out DIR]
    dfsqc report <dir>

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 acceptance-threshold violation in --check mode.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ScenarioConfig
from .scenarios import emit_report, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsqc",
        description="Cavity-DFS quantum logic simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario config")
    sim.add_argument("config", help="scenario YAML file")
    sim.add_argument("--check", action="store_true",
                     help="fail (exit 4) when any acceptance check fails")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--threads", type=int, default=1,
                     help="ignored: every scenario runs in one thread")

    rep = sub.add_parser("report", help="summarize artifacts in a directory")
    rep.add_argument("directory")
    return parser


def cmd_simulate(args) -> int:
    try:
        cfg = ScenarioConfig.from_file(args.config)
        if args.seed is not None:
            cfg = ScenarioConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result, paths = run_scenario(cfg, args.out)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(f"wrote {paths['csv']}")
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  {check.name}: {check.detail}: {status}")
    if args.check and not result.all_passed:
        print("error: acceptance checks failed", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        text = emit_report(args.directory)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
