"""Run bench/run.py over several seeds and summarize its run-to-run spread.

    python3 bench/steady.py --seeds 1-10 [--workloads a,b] [--seconds 30]
                            [--trace-seed N] [--out FILE]

For every workload and seed it runs one untraced benchmark run and reports,
per end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  With ``--trace-seed`` it
adds one traced run per workload and records its per-layer metrics.  With
``--out`` the summary and the environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its environment line and its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            env, result = bench_run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: correctness gate missed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {n: round(v[-1], 4) for n, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            print(f"  {name:18s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {spread:.3f}  bound {bounds[name]}", flush=True)
        entry = {"end_to_end": summary}
        if args.trace_seed is not None:
            _, traced = bench_run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
        report["environment"] = env
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
