"""Command-line interface.

Three subcommands: ``run`` executes one chain and writes its trace and
metrics, ``bench`` executes seeded replicates and aggregates them, ``report``
merges metrics files into a comparison table. Exit status 2 flags
configuration problems, 1 runtime failures.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .bench import ConfigError


def _add_run_flags(parser: argparse.ArgumentParser, with_bench: bool) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="INI config file; flags override its values")
    for setting in bench.SETTINGS.values():
        if setting.bench_only and not with_bench:
            continue
        kind = {"type": setting.parse, "metavar": setting.metavar}
        if setting.parse is bench.parse_bool:
            kind = {"action": "store_true", "default": None}
        elif setting.parse is bench.parse_algos:
            kind["action"] = "extend"  # repeatable, each value comma-separated
        parser.add_argument("--" + setting.key.replace("_", "-"),
                            help=setting.help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surrogate-mcmc",
        description="Two-stage surrogate-filtered MCMC benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one chain, write trace and metrics")
    _add_run_flags(run_p, with_bench=False)
    bench_p = sub.add_parser("bench", help="run seeded replicates and aggregate")
    _add_run_flags(bench_p, with_bench=True)
    report_p = sub.add_parser("report", help="merge metrics files into a table")
    report_p.add_argument("paths", nargs="+", metavar="METRICS_JSON")
    report_p.add_argument("--out", help="write merged JSON here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return bench.cmd_report(args.paths, args.out)
        file_overrides = bench.load_config_file(args.config) if args.config else {}
        flags = {name: getattr(args, setting.key, None)
                 for name, setting in bench.SETTINGS.items()}
        cfg = bench.resolve_config(file_overrides, flags)
        if args.command == "run":
            return bench.cmd_run(cfg)
        return bench.cmd_bench(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
