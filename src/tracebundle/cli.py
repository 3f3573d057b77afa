"""Command-line interface: config-driven checks with machine-readable artifacts.

Exit codes: 0 all checks pass, 2 at least one check failed, 3 config error, model
construction error, unsupported configuration or numerical failure in a check, 4 I/O
error, 5 usage error (bad flags or subcommand).
"""

from __future__ import annotations

import os
import sys

from .config import parse_config
from .errors import (ConfigError, NumericalFailureError, TraceBundleError,
                     UnsupportedConfigurationError, UsageError)
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
_USAGE = ("usage: tracebundle {run,check-axioms,check-duality,run-martingale} --config CFG.json"
          " --out DIR [--seed-override N]\n       tracebundle emit-fixtures --out DIR\n")


def _parse_args(argv) -> tuple:
    """``(command, config, out, seed_override)`` from ``argv``, a flag written ``--flag VALUE`` or
    ``--flag=VALUE``.  ``-h``/``--help`` prints the usage and exits 0, any other misuse exits 5."""
    def fail(what):
        sys.stderr.write(f"{_USAGE}tracebundle: error: {what}\n")
        raise SystemExit(EXIT_USAGE)

    if "-h" in argv or "--help" in argv:
        sys.stdout.write(f"{_USAGE}\n{__doc__}")
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in (*_PARTS_BY_COMMAND, "emit-fixtures"):
        fail(f"unknown command {argv[0]!r}" if argv else "a command is required")
    command, rest, flags = argv[0], iter(argv[1:]), {}
    known = ("--out",) if command == "emit-fixtures" else ("--config", "--out", "--seed-override")
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in known:
            fail(f"unrecognized argument {arg!r} for {command}")
        flags[name] = value if eq else next(rest, "--")
        if not eq and flags[name].startswith("--"):
            fail(f"argument {name}: expected one value")
    missing = [name for name in known if name not in flags and name != "--seed-override"]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    try:
        seed = int(flags["--seed-override"]) if "--seed-override" in flags else None
    except ValueError:
        fail(f"argument --seed-override: invalid int value: {flags['--seed-override']!r}")
    return command, flags.get("--config"), flags["--out"], seed


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
        cfg.seed = seed_override
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
    from .fixtures import FIXTURES, fixture_config, fixture_text

    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in sorted(FIXTURES):
            with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(fixture_text(name))
            summary, all_pass = run_experiment(fixture_config(name), os.path.join(out_dir, name))
            status = "pass" if all_pass else "FAIL"
            print(f"[{status}] fixture {name}: {len(summary['checks'])} checks")
    except OSError as exc:
        print(f"tracebundle: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    return EXIT_OK


def main(argv=None) -> int:
    command, config, out, seed_override = _parse_args(sys.argv[1:] if argv is None else argv)
    if command == "emit-fixtures":
        return _emit_fixtures(out)
    return _run_from_config(config, out, seed_override, _PARTS_BY_COMMAND[command])


if __name__ == "__main__":
    sys.exit(main())
