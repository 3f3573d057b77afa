"""Config-driven experiment orchestration with machine-readable reports.

Every check produces a named worst residual compared against its configured
tolerance; the JSON summary enumerates all of them (nothing is skipped
silently) and the residual traces stream to CSV.  All randomness derives from
the configured seed, so identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .bundle import Stream, block_records, gaussian_stacks, seeded_stacks
from .condexp import _project, cond_exp_axiom_checks
from .config import ExperimentConfig, config_hash
from .errors import ContractViolationError, NumericalFailureError, UsageError
from .fiber import gram_eigenvalues_stack, solve_by_block_size
from .martingale import Filtration, build_filtration, martingale_checks, step_residuals
from .tracelp import (derive_seed, packed_chunks, stacked_traces, target_duality_checks,
                      top_scaled_sums)

ALL_PARTS = ("trace", "condexp", "duality", "martingale")
# rows of traces.csv formatted per write: a seed's rows (100 000 held steps make 100 000 rows
# per atom) are never all held at once, so the writer's memory does not grow with the run
_TRACE_ROWS = 1000


class CheckResult:
    def __init__(self, name: str, worst_residual: float, tolerance: float):
        self.name, self.worst_residual, self.tolerance = name, worst_residual, tolerance

    @property
    def passed(self) -> bool:
        return self.worst_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "worst_residual": self.worst_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _flag(ok: bool) -> float:
    # boolean verdicts ride the same residual-vs-tolerance schema
    return 0.0 if ok else 1.0


def run_trace_checks(cfg: ExperimentConfig, bundle) -> list[CheckResult]:
    """Traciality, positivity and faithfulness of the center-valued trace.

    x and y come from one stream key per tag, trial t their lane t, stacked per block in
    chunks of at most DUALITY_CHUNK trials.  Traciality and positivity are read off the
    ``stacked_traces`` of ``x y``, ``y x`` and ``x* x``.  Faithfulness is the per-atom bound
    ``min_j c_j ||x(w)||_inf**2 <= trace(x* x)(w)``, reported as its worst relative excess;
    the squared spectral norms come from one stacked solve per block size per chunk.
    """
    tol, trials = cfg.tolerances["trace_axioms"], cfg.trials["trace_sections"]
    streams = [Stream(derive_seed(cfg.seed, tag)) for tag in ("trace-x", "trace-y")]
    c_min = np.array([min(cs) for cs in bundle.trace_weights])
    traciality = positivity = faithfulness = 0.0
    for [(_, size)] in packed_chunks(1, trials):  # with one case, each group is one chunk
        x, y = (gaussian_stacks(bundle, stream, size) for stream in streams)
        xy, yx, gram = (stacked_traces([u @ v for u, v in zip(us, vs)], bundle) for us, vs in (
            (x, y), (y, x), ([u.conj().transpose(0, 2, 1) for u in x], x)))
        # folded with NumPy, where a NaN residual propagates (the builtin max may drop it)
        traciality = np.max([traciality, np.abs(xy - yx).max()])
        positivity = np.max([positivity, np.abs(gram.imag).max(), -gram.real.min()])
        top, _, _ = top_scaled_sums(solve_by_block_size(x, gram_eigenvalues_stack), bundle, ())
        faithfulness = np.max([faithfulness, (c_min * top / gram.real - 1.0).max()])
    return [
        CheckResult("trace/traciality", float(traciality), tol),
        CheckResult("trace/positivity", float(positivity), tol),
        CheckResult("trace/faithfulness", float(faithfulness), cfg.tolerances["faithfulness_norm"]),
    ]


def build_tower(cfg: ExperimentConfig, bundle) -> Filtration:
    return build_filtration(bundle, cfg.tower_generators(bundle))


def run_condexp_checks(cfg: ExperimentConfig, filtration: Filtration):
    """Conditional-expectation axiom reports for every tower level."""
    tol = cfg.tolerances["condexp_axioms"]
    worst: dict[str, float] = {}
    reports = []
    levels = filtration.cond_exps
    cases = [(E, derive_seed(cfg.seed, "axioms", level)) for level, E in enumerate(levels)]
    for level, (E, rep) in enumerate(zip(levels, cond_exp_axiom_checks(cases, cfg.trials["axioms"]))):
        reports.append({"level": level, "dims": list(E.target.dims), **rep.to_dict()})
        for name, value in rep.residuals.items():
            worst[name] = float(np.max([worst.get(name, 0.0), value]))
    checks = [
        CheckResult(f"condexp/{name}", value, tol)
        for name, value in sorted(worst.items())
    ]
    return checks, reports


def run_duality_checks(cfg: ExperimentConfig, bundle):
    """Sampled dual-ball violations and extremal attainment for every exponent; the target of
    case ``(p, s)`` is lane ``(p, s)`` of the ``seeded_stacks`` of its ``duality-x`` seeds."""
    sections = cfg.trials["duality_sections"]
    pairs = [(p, s) for p in cfg.exponents for s in range(sections)]
    x = seeded_stacks(bundle, [derive_seed(cfg.seed, "duality-x", p, s) for p, s in pairs])
    cases = [((bundle, [b[k:k + 1] for b in x]), p, derive_seed(cfg.seed, "duality", p, s))
             for k, (p, s) in enumerate(pairs)]
    reports = target_duality_checks(cases, cfg.trials["duality_samples"])
    checks = []
    for k, p in enumerate(cfg.exponents):
        mine = reports[k * sections : (k + 1) * sections]
        checks.append(CheckResult(f"duality/p={p:g}/violation",
                                  float(np.max([0.0, *(r.max_violation for r in mine)])),
                                  cfg.tolerances["duality_violation"]))
        checks.append(CheckResult(f"duality/p={p:g}/attainment",
                                  float(np.max([0.0, *(r.attainment_residual for r in mine)])),
                                  cfg.tolerances["duality_attainment"]))
    return checks, [r.to_dict() for r in reports]


def run_martingale_checks(cfg: ExperimentConfig, filtration: Filtration):
    """Tower-projection martingales: convergence, averaging, and traces.

    Each seed's target is one lane of ``seeded_stacks``, and the checks of all seeds are
    one ``martingale_checks`` pass.  Each seed's traces are its tower steps' residuals and
    the held ratios, which ``write_trace_csv`` expands.  The limit is the last step of
    seed 0, as its blocks.
    """
    bundle, seeds, tol = filtration.bundle, range(cfg.trials["martingale_seeds"]), cfg.tolerances
    mart_p = 2.0 if 2.0 in cfg.exponents else cfg.exponents[0]
    x = seeded_stacks(bundle, [derive_seed(cfg.seed, "mart-x", s) for s in seeds])
    xs = [_project(E.target.projectors, x) for E in filtration.cond_exps]
    r = martingale_checks(filtration, xs, mart_p, limit=True, target=x,
                          w=cfg.weight_list(len(xs) + cfg.extension), extend_by=cfg.extension)
    x_conv, s_conv = (a[:, -1].max(axis=1) <= tol["cesaro"]  # the last step, held or not
                      for a in step_residuals(r.xa, r.sa, r.held[-1:]))
    monotone = float(np.max(np.diff(r.xa.max(axis=2)), initial=0.0))
    checks = [
        CheckResult("martingale/defect", float(r.defect.max()), tol["martingale_defect"]),
        CheckResult("martingale/limit_reconstruction", float(r.recon.max()), tol["martingale_defect"]),
        CheckResult("martingale/terminal_residual", float(r.terminal.max()), tol["martingale_terminal"]),
        CheckResult("martingale/monotone_residuals", monotone, tol["martingale_defect"]),
        CheckResult("martingale/pythagoras_p2", float(r.pythagoras.max()), tol["pythagoras"]),
        CheckResult("martingale/sup_gap", float(np.max(r.sup_sigma - r.sup_x, initial=0.0)),
                    tol["sup_gap"]),
        CheckResult("martingale/cesaro_both", _flag(bool((x_conv & s_conv).all())), 0.5),
        CheckResult("martingale/cesaro_never_one", _flag(bool((x_conv == s_conv).all())), 0.5),
    ]
    traces = [(f"{cfg.experiment_id}:seed={s}", bundle.space.labels, r.xa[s], r.sa[s], r.held)
              for s in seeds]
    return checks, traces, [b[0] for b in xs[-1]]


def _run_part(part: str, run, *args):
    """``run(*args)``, with a numerical limit hit by these checks reported as theirs."""
    try:
        return run(*args)
    except ContractViolationError as exc:
        raise NumericalFailureError(f"numerical failure in the {part} checks: {exc}") from exc


def write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_trace_csv(path: str, traces):
    """``traces.csv`` from one ``(tag, labels, xa, sa, held)`` per seed, its tower steps'
    residuals and held ratios as ``step_residuals`` takes them, one ``write`` per chunk of
    whole steps of at most ``_TRACE_ROWS`` rows (one step where a step has more)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("experiment_id,n,omega,residual_xp,residual_sigma\n")
        for tag, labels, xa, sa, held in traces:  # rows run over atoms within each step
            steps, per = len(xa) + len(held), max(1, _TRACE_ROWS // len(labels))
            for start in range(0, steps, per):
                stop = min(start + per, steps)
                rx, rs = step_residuals(xa, sa, held, start, stop)
                fh.write("".join([
                    f"{tag},{n},{label},{a!r},{b!r}\n" for n, label, a, b
                    in zip([n for n in range(start + 1, stop + 1) for _ in labels],
                           labels * (stop - start), rx.ravel().tolist(), rs.ravel().tolist())
                ]))


def write_section_csv(path: str, records):
    """A section file from ``(atom label, block index, row, col, re, im)`` records."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("omega,block,row,col,re,im\n")
        for label, k, i, j, re, im in records:
            fh.write(f"{label},{k},{i},{j},{re!r},{im!r}\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str, parts=ALL_PARTS):
    """Run the configured experiment parts and write summary/trace artifacts.

    Returns ``(summary_dict, all_pass)``.  The summary enumerates every check
    the config defines for the requested parts.  Every part is computed before
    ``out_dir`` is created, so a run that raises leaves no partial artifacts; a file
    is renamed onto its name from a ``.tmp`` sibling once complete.  A check whose
    worst residual is not finite raises NumericalFailureError.
    """
    unknown = [p for p in parts if p not in ALL_PARTS]
    if unknown:
        raise UsageError(f"unknown experiment parts: {unknown}")
    bundle = cfg.build_bundle()
    header = {"experiment_id": cfg.experiment_id, "seed": cfg.seed}  # of every JSON artifact

    checks: list[CheckResult] = []
    artifacts = []  # (writer, file name, payload), in writing order
    filtration = None
    if "condexp" in parts or "martingale" in parts:
        filtration = build_tower(cfg, bundle)

    if "trace" in parts:
        checks.extend(_run_part("trace", run_trace_checks, cfg, bundle))
    if "condexp" in parts:
        cx_checks, cx_reports = _run_part("condexp", run_condexp_checks, cfg, filtration)
        checks.extend(cx_checks)
        artifacts.append((write_json, "axioms.json", {**header, "levels": cx_reports}))
    if "duality" in parts:
        du_checks, du_reports = _run_part("duality", run_duality_checks, cfg, bundle)
        checks.extend(du_checks)
        artifacts.append((write_json, "duality.json", {**header, "reports": du_reports}))
    if "martingale" in parts:
        ma_checks, traces, limit = _run_part("martingale", run_martingale_checks, cfg, filtration)
        checks.extend(ma_checks)
        artifacts += [(write_trace_csv, "traces.csv", traces),
                      (write_section_csv, "limit_section.csv", block_records(bundle, limit))]

    if bad := ", ".join(c.name for c in checks if not np.isfinite(c.worst_residual)):
        raise NumericalFailureError(f"numerical failure: the worst residual of {bad} is not finite")
    summary = {**header, "config_hash": config_hash(cfg), "checks": [c.to_dict() for c in checks]}
    artifacts.append((write_json, "summary.json", summary))
    os.makedirs(out_dir, exist_ok=True)
    for write, name, payload in artifacts:  # each through a .tmp sibling, renamed when complete
        path = os.path.join(out_dir, name)
        try:
            write(path + ".tmp", payload)
            os.replace(path + ".tmp", path)
        finally:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")
    return summary, all(c.passed for c in checks)


def __getattr__(name):  # the names that moved to ``views``, which loads on first use
    if name in ("read_section_csv",):
        from . import views
        return getattr(views, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
