"""Benchmark of the tracebundle CLI verdict path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a committed config
for one CLI subcommand.  The benchmark is a closed loop with one client: it
starts one fresh interpreter after another (bench/child.py), each running a
single ``tracebundle.cli.main`` call with one thread, until S seconds have
passed, and reports medians over those calls.  Every call must pass the
correctness gate: exit code 0, exactly the pinned check names, every check
within its configured tolerance, the config hash of the workload config in
``summary.json``, and artifacts byte-identical to the first call of the run
(all calls of a run use the same seed).

With ``--trace 1`` the calls alternate between untraced and traced ones and
the per-layer metrics are reported; with ``--trace 0`` the end-to-end ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (counted in checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

_P = ("1", "1.5", "2", "3", "4")
_CONDEXP = (
    "bimodule_pairing", "fiberwise_agreement", "idempotence", "lp_contraction_p1",
    "lp_contraction_p2", "lp_contraction_p3", "lp_contraction_p4", "module_property",
    "positivity", "scalarized_trace", "trace_preservation", "unitality",
)
_MARTINGALE = (
    "defect", "limit_reconstruction", "terminal_residual", "monotone_residuals",
    "pythagoras_p2", "sup_gap", "cesaro_both", "cesaro_never_one",
)

# Pinned check names: a change cannot get faster by dropping a check.
WORKLOADS = {
    "duality": (
        "check-duality",
        [f"duality/p={p}/{kind}" for p in _P for kind in ("violation", "attainment")],
    ),
    "martingale-tail": ("run-martingale", [f"martingale/{c}" for c in _MARTINGALE]),
    "axioms-large-blocks": ("check-axioms", [f"condexp/{c}" for c in _CONDEXP]),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "run_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Timings are rescaled to a nominal host speed: the child times a fixed
# reference loop right before and after each call, and a call's seconds are
# multiplied by REF_NOMINAL_S / ref_s.  On a shared host the median raw wall
# time of a 30 s run drifted with the neighbours' load (quartile spread over
# 10 runs: 15 %); the rescaled medians spread 2-9 %.  The raw wall time is
# kept as a per-layer metric.
REF_NOMINAL_S = 0.020
MIN_CALLS = 3          # per kind of call (untraced, traced) in one run
CALL_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the child puts ROOT/src first itself
    return env


def run_child(args: list) -> dict:
    """Run child.py with ``args``; its last stdout line is its JSON result."""
    proc = subprocess.run(
        [sys.executable, CHILD, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def artifact_digests(out_dir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def gate(result: dict, out_dir: str, pinned: list, reference: dict | None) -> list:
    """Reasons this call misses the correctness gate (empty when it passes)."""
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}"]
    path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(path):
        return ["no summary.json"]
    with open(path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    misses = []
    names = [c["name"] for c in summary["checks"]]
    if names != pinned:
        misses.append(f"check names {names} differ from the pinned {pinned}")
    misses += [f"check {c['name']} failed" for c in summary["checks"] if not c["pass"]]
    if summary["config_hash"] != result["config_hash"]:
        misses.append("summary.json config_hash does not match the workload config")
    if reference is not None and artifact_digests(out_dir) != reference:
        misses.append("artifacts differ from the first call of this run")
    return misses


def rescaled(results: list, name: str) -> list:
    """Seconds of ``name`` per call at the nominal host speed."""
    return [r[name] * REF_NOMINAL_S / r["ref_s"] for r in results]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: child_env()[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tracebundle", "__init__.py")):
        print(f"bench: no tracebundle sources under {ROOT}/src", file=sys.stderr)
        return 2
    subcommand, pinned = WORKLOADS[args.workload]
    config_path = os.path.join(HERE, "workloads", f"{args.workload}.json")
    work = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, subcommand, pinned, config_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, subcommand, pinned, config_path, work) -> int:
    probe = run_child(["probe", ROOT, str(args.seed)]) if args.trace else {}
    plain, traced = [], []
    reference = None
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    k = 0
    while (time.monotonic() < deadline or len(plain) < MIN_CALLS
           or (args.trace and len(traced) < MIN_CALLS)):
        trace_this = bool(args.trace) and k % 2 == 1
        out_dir = os.path.join(work, f"call{k}")
        spans = os.path.join(work, f"spans{k}.csv") if trace_this else "-"
        k += 1
        attempted += len(pinned)
        try:
            result = run_child(
                ["call", ROOT, config_path, subcommand, str(args.seed), out_dir, spans]
            )
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"bench: call {k - 1}: {exc}", file=sys.stderr)
            failed += len(pinned)
            break
        misses = gate(result, out_dir, pinned, reference)
        if reference is None and not misses:
            reference = artifact_digests(out_dir)
        if trace_this and traced and result["counts"] != traced[0]["counts"]:
            misses.append("traced counts differ from the first traced call of this run")
        if misses:
            print(f"bench: call {k - 1} misses the gate: {'; '.join(misses)}", file=sys.stderr)
            failed += len(pinned)
            break
        (traced if trace_this else plain).append(result)
        if trace_this:
            shutil.move(spans, os.path.join(ROOT, ".bench_out", f"{args.workload}-spans.csv"))
        shutil.rmtree(out_dir)

    print(json.dumps({"env": environment(),
                      "run_s_per_call": [r["run_s"] for r in plain],
                      "ref_s_per_call": [r["ref_s"] for r in plain],
                      "traced_run_s_per_call": [r["run_s"] for r in traced]}))
    metrics = {}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics = layer_metrics(plain, traced, probe)
        else:
            values = {name: median(rescaled(plain, name))
                      for name in ("run_s", "run_cpu_s", "setup_s")}
            values["peak_rss_mb"] = median([r["peak_rss_mb"] for r in plain])
            values["check_pass_ratio"] = 1.0 - failed / attempted
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def layer_metrics(plain, traced, probe) -> dict:
    metrics = {name: {"value": value, "unit": "us"} for name, value in probe.items()}
    for name, value in traced[0]["counts"].items():
        unit = "bytes" if name.endswith(".bytes") else (
            "count" if name.endswith(".calls") or name.endswith(".calls_p2")
            or ".eig_blocks." in name else "ratio")
        metrics[name] = {"value": value, "unit": unit}
    for name in traced[0]["times"]:
        metrics[name] = {"value": median([r["times"][name] for r in traced]), "unit": "s"}
    metrics["cli.import.s"] = {
        "value": median([r["import_s"] for r in plain + traced]), "unit": "s",
    }
    metrics["cli.main.wall_s"] = {"value": median([r["run_s"] for r in plain]), "unit": "s"}
    metrics["host.ref_s"] = {"value": median([r["ref_s"] for r in plain]), "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": median(rescaled(traced, "run_s")) / median(rescaled(plain, "run_s")) - 1.0,
        "unit": "ratio",
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
