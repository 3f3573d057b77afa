"""Command-line interface: config-driven checks with machine-readable artifacts.

Exit codes: 0 all checks pass, 2 at least one check failed, 3 config error, model
construction error, unsupported configuration or numerical failure in a check, 4 I/O
error, 5 usage error (bad flags or subcommand).
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config
from .errors import (ConfigError, NumericalFailureError, TraceBundleError,
                     UnsupportedConfigurationError, UsageError)
from .fixtures import FIXTURES, fixture_config, fixture_text
from .runner import run_experiment

EXIT_OK = 0
EXIT_CHECK_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_IO_ERROR = 4
EXIT_USAGE = 5

_PARTS_BY_COMMAND = {
    "run": ("trace", "condexp", "duality", "martingale"),
    "check-axioms": ("condexp",),
    "check-duality": ("duality",),
    "run-martingale": ("martingale",),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the check-failure
    # code; remap to the dedicated usage exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="tracebundle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command in _PARTS_BY_COMMAND:
        p = sub.add_parser(command, help=f"{command} checks from a config file")
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", required=True, help="directory for artifacts")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config seed for this run")
    p = sub.add_parser("emit-fixtures", help="write golden configs and their expected artifacts")
    p.add_argument("--out", required=True, help="directory for fixture files")
    return parser


def _run_from_config(path: str, out_dir: str, seed_override, parts) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"tracebundle: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for field_path, message in exc.problems:
            print(f"tracebundle: config error at {field_path}: {message}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if seed_override is not None:
        cfg.seed = int(seed_override)
    try:
        summary, all_pass = run_experiment(cfg, out_dir, parts=parts)
    except UsageError as exc:
        print(f"tracebundle: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, NumericalFailureError) as exc:
        print(f"tracebundle: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except UnsupportedConfigurationError as exc:
        print(f"tracebundle: unsupported configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except TraceBundleError as exc:
        print(f"tracebundle: model construction failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"tracebundle: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    for check in summary["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['worst_residual']:.3e}"
              f" (tolerance {check['tolerance']:.1e})")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILURE


def _emit_fixtures(out_dir: str) -> int:
    import os

    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in sorted(FIXTURES):
            with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(fixture_text(name))
            cfg = fixture_config(name)
            summary, all_pass = run_experiment(cfg, os.path.join(out_dir, name))
            status = "pass" if all_pass else "FAIL"
            print(f"[{status}] fixture {name}: {len(summary['checks'])} checks")
    except OSError as exc:
        print(f"tracebundle: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "emit-fixtures":
        return _emit_fixtures(args.out)
    return _run_from_config(
        args.config, args.out, args.seed_override, _PARTS_BY_COMMAND[args.command]
    )


if __name__ == "__main__":
    sys.exit(main())
