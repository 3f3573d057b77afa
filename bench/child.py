"""One measured unit of the benchmark, run in a fresh interpreter by run.py.

    python3 bench/child.py call ROOT CONFIG SUBCOMMAND SEED OUT SPANS
    python3 bench/child.py probe ROOT SEED

``call`` imports tracebundle from ROOT/src, parses and builds the workload
config (the set-up a user pays on every invocation), then times one
``tracebundle.cli.main`` call writing its artifacts to OUT.  When SPANS is
not ``-`` the public functions of the package are wrapped first and the
recorded spans are written to that file after the call.  ``probe`` times
``herm_eig`` on a seeded stack of single-block Hermitian fibers per block
size.  Either mode prints one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

PROBE_SIZES = (1, 2, 3, 4, 5)
PROBE_STACK = 200  # herm_eig calls timed per block size
REF_ITERATIONS = 6000
REF_REPEATS = 3    # reference loops timed before and after the call each


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tracebundle
    import tracebundle.cli  # noqa: F401  (the call path, part of the import cost)

    where = os.path.realpath(tracebundle.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"bench: tracebundle imported from {where}, not from {src}")
    return tracebundle


def reference_loop() -> float:
    """Seconds for a fixed loop of the same kind of work as the Jacobi kernel.

    Pure-Python control flow over numpy complex scalars plus small Gram
    products, independent of the package, so its time tracks only how fast
    the host runs this process.
    """
    import numpy as np

    h = np.array([[2.0, 0.5 - 0.5j, 0.25j], [0.5 + 0.5j, 1.0, 0.1], [-0.25j, 0.1, 3.0]])
    c, s = 0.8, 0.6  # a rotation keeps the entries bounded
    start = time.perf_counter()
    for k in range(REF_ITERATIONS):
        p = k % 2
        hp, hq = h[p, 2], h[2, p]
        h[p, 2] = c * hp - s * hq
        h[2, p] = s * hp + c * hq
        if k % 4 == 0:
            np.maximum((h.conj().T @ h).real, 0.0).sum()
    return time.perf_counter() - start


class Tracer:
    """Spans and counters recorded at the public boundaries of the package.

    Every wrapper is bound into each ``tracebundle`` module that holds the
    original function, so calls through ``from .x import f`` copies and
    through module globals are both seen, and each call is recorded once.
    """

    def __init__(self):
        self.spans = []   # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if after is not None:
                    after(args)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module, attr, name, after=None):
        orig = getattr(module, attr)
        wrapper = self._wrap(name, orig, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tracebundle" and not mod_name.startswith("tracebundle."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, after=None):
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), after))

    def install(self):
        from tracebundle import bundle, cli, condexp, config, fiber, martingale, runner, tracelp

        def eig_blocks(args):
            for b in args[0].blocks:
                self.count(f"fiber.eig_blocks.n{b.shape[0]}")

        def lp_p2(args):
            if float(args[1]) == 2.0:
                self.count("tracelp.lp_norm.calls_p2")

        def written(args):
            self.count("runner.write.bytes", os.path.getsize(args[0]))

        self.patch_function(fiber, "herm_eig", "fiber.herm_eig", eig_blocks)
        self.patch_function(fiber, "gram_eigenvalues", "fiber.gram_eigenvalues", eig_blocks)
        self.patch_function(fiber, "polar", "fiber.polar")
        self.patch_function(bundle, "random_section", "bundle.random_section")
        for op in ("__add__", "__sub__", "__mul__", "__rmul__"):
            self.patch_method(bundle.Section, op, "bundle.section_arith")
        self.patch_function(tracelp, "lp_norm", "tracelp.lp_norm", lp_p2)
        self.patch_function(tracelp, "center_trace", "tracelp.center_trace")
        self.patch_function(tracelp, "duality_check", "tracelp.duality_check")
        self.patch_function(condexp, "validate_subalgebra", "condexp.validate_subalgebra")
        self.patch_method(condexp.ConditionalExpectation, "__call__", "condexp.apply")
        self.patch_function(condexp, "check_cond_exp_axioms", "condexp.check_cond_exp_axioms")
        for attr in ("build_filtration", "martingale_defect", "martingale_limit",
                     "sup_norm_comparison", "cesaro_equivalence"):
            self.patch_function(martingale, attr, f"martingale.{attr}")
        self.patch_function(runner, "build_tower", "runner.build_tower")
        for part in ("trace", "condexp", "duality", "martingale"):
            self.patch_function(runner, f"run_{part}_checks", f"runner.phase.{part}")
        for attr in ("write_json", "write_trace_csv", "write_section_csv"):
            self.patch_function(runner, attr, "runner.write", written)
        self.patch_function(runner, "run_experiment", "runner.run_experiment")
        self.patch_function(config, "parse_config", "config.parse_config")
        self.patch_function(cli, "main", "cli.main")

    def totals(self):
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus its direct children's; the
        program is single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - child[i]))
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer: Tracer, cfg) -> tuple[dict, dict]:
    """Exact counts and measured seconds of the traced call, by metric name."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_secs(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    counts = {f"fiber.eig_blocks.n{n}": tracer.counts.get(f"fiber.eig_blocks.n{n}", 0)
              for n in PROBE_SIZES}
    times = {}
    for name in ("fiber.gram_eigenvalues", "fiber.herm_eig", "fiber.polar",
                 "bundle.random_section", "bundle.section_arith", "tracelp.center_trace",
                 "condexp.validate_subalgebra", "condexp.apply"):
        counts[f"{name}.calls"] = calls(name)
        times[f"{name}.s"] = secs(name)
    counts["tracelp.lp_norm.calls"] = calls("tracelp.lp_norm")
    counts["tracelp.lp_norm.calls_p2"] = tracer.counts.get("tracelp.lp_norm.calls_p2", 0)
    counts["martingale.martingale_defect.calls"] = calls("martingale.martingale_defect")
    counts["martingale.martingale_limit.calls"] = calls("martingale.martingale_limit")
    counts["runner.write.bytes"] = tracer.counts.get("runner.write.bytes", 0)
    for name in ("tracelp.lp_norm", "tracelp.duality_check", "condexp.check_cond_exp_axioms"):
        times[f"{name}.self_s"] = self_secs(name)
    for name in ("martingale.build_filtration", "martingale.sup_norm_comparison",
                 "martingale.cesaro_equivalence", "runner.build_tower",
                 "runner.phase.trace", "runner.phase.condexp", "runner.phase.duality",
                 "runner.phase.martingale", "runner.write", "config.parse_config"):
        times[f"{name}.s"] = secs(name)

    # Waste ratios; 0 where the workload does not run the phase they measure.
    seeds = cfg.trials["martingale_seeds"]
    ran_martingale = calls("runner.phase.martingale") > 0
    counts["martingale.defect_calls_per_seed"] = (
        calls("martingale.martingale_defect") / seeds if ran_martingale else 0.0
    )
    counts["tracelp.lp_norm.calls_per_step"] = (
        calls("tracelp.lp_norm") / (seeds * (len(cfg.tower) + cfg.extension))
        if ran_martingale else 0.0
    )
    counts["condexp.validations_per_level"] = (
        calls("condexp.validate_subalgebra") / len(cfg.tower)
        if calls("runner.build_tower") > 0 else 0.0
    )
    return counts, times


def run_call(root, config_path, subcommand, seed, out_dir, spans_path) -> dict:
    t0 = time.perf_counter()
    _import_package(root)
    import_s = time.perf_counter() - t0
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.install()
    from tracebundle import cli, config

    with open(config_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = config.parse_config(text)
    cfg.build_bundle()
    setup_s = time.perf_counter() - t0

    refs = [reference_loop() for _ in range(REF_REPEATS)]
    cfg.seed = seed
    argv = [subcommand, "--config", config_path, "--out", out_dir, "--seed-override", str(seed)]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time() + usage.ru_utime + usage.ru_stime
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    run_s = time.perf_counter() - wall0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    run_cpu_s = time.process_time() + usage.ru_utime + usage.ru_stime - cpu0
    refs += [reference_loop() for _ in range(REF_REPEATS)]

    result = {
        "exit_code": code,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "setup_s": setup_s,
        "ref_s": statistics.median(refs),
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config_hash": config.config_hash(cfg),
    }
    if tracer is not None:
        result["counts"], result["times"] = layer_metrics(tracer, cfg)
        tracer.write(spans_path)
    return result


def run_probe(root, seed) -> dict:
    """Median microseconds per ``herm_eig`` call on one n x n block, n = 1..5."""
    _import_package(root)
    import numpy as np

    from tracebundle.fiber import FiberElement, herm_eig

    rng = np.random.default_rng([13, seed & 0xFFFFFFFFFFFFFFFF])
    out = {}
    for n in PROBE_SIZES:
        stack = []
        for _ in range(PROBE_STACK):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            stack.append(FiberElement([0.5 * (g + g.conj().T)]))
        herm_eig(stack[0])  # first-call effects stay out of the table
        per_call = []
        for f in stack:
            start = time.perf_counter()
            herm_eig(f)
            per_call.append(time.perf_counter() - start)
        out[f"fiber.herm_eig.us_per_block.n{n}"] = 1e6 * statistics.median(per_call)
    return out


def main(argv) -> int:
    if len(argv) == 8 and argv[1] == "call":
        _, _, root, config_path, subcommand, seed, out_dir, spans_path = argv
        result = run_call(root, config_path, subcommand, int(seed), out_dir, spans_path)
    elif len(argv) == 4 and argv[1] == "probe":
        result = run_probe(argv[2], int(argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
