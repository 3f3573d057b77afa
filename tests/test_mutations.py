"""Every check the runner reports can fail: one row per check name.

Each row of ``ROWS`` injects one small defect into the model or its input (a
monkeypatched map, or a tampered step, weight or trace), runs the check's phase
through ``run_experiment`` on ``hetero4_tower`` with the bench's five exponents, and
requires the exact set of checks that fail: the row's own, and those that the same
defect trips with it.  So the table records which verdicts are decided together.  This
is mutation analysis (Jia and Harman, IEEE TSE 37(5), 2011) applied to the checks of
the referee.  ``test_every_check_name_has_a_row`` ties the rows to the names that
``run`` emits on both fixtures and that ``bench/run.py`` pins, so a new check without a
row fails here.
"""

import copy
import json
import math

import numpy as np
import pytest

from tracebundle import condexp, martingale, runner, tracelp
from tracebundle.bundle import BundleSpec, random_section
from tracebundle.config import parse_config
from tracebundle.fixtures import FIXTURES, fixture_config
from tracebundle.martingale import build_filtration
from tracebundle.runner import run_experiment
from tracebundle.tracelp import section_stacks

from test_bench_pins import WORKLOADS

EXPONENTS = [1, 1.5, 2, 3, 4]  # the bench duality workload's, a superset of both fixtures'


def config():
    doc = copy.deepcopy(FIXTURES["hetero4_tower"])
    doc["exponents"] = EXPONENTS
    return parse_config(json.dumps(doc))


# ------------------------------------------------------------------- trace

def skewed_trace(monkeypatch):
    """A functional that weighs the first two diagonal entries of a block 1 +- 1e-6."""
    real = runner.stacked_traces

    def skewed(ys, bundle):
        ys = [y.copy() for y in ys]
        for y in ys:
            if y.shape[1] > 1:
                y[:, 0, 0] *= 1 + 1e-6
                y[:, 1, 1] *= 1 - 1e-6
        return real(ys, bundle)

    monkeypatch.setattr(runner, "stacked_traces", skewed)


def negative_weight(monkeypatch):
    """The trace weight of block slot 4 (the Mat1 fiber of w4) made negative."""
    real = BundleSpec.block_slots
    monkeypatch.setattr(BundleSpec, "block_slots", lambda bundle: [
        (i, -c if k == 4 else c) for k, (i, c) in enumerate(real(bundle))])


def dropped_block(monkeypatch):
    """A trace that leaves out block slot 3, the second Mat2 block of w3."""
    real = runner.stacked_traces
    monkeypatch.setattr(runner, "stacked_traces", lambda ys, bundle: real(
        [0 * y if k == 3 else y for k, y in enumerate(ys)], bundle))


# ----------------------------------------------------------------- condexp

def fiber_map(edit):
    """Every fiber's projection ``E`` replaced by ``edit(projector, E(x), x)``, block by block."""
    def mutate(monkeypatch):
        real = condexp._FiberProjector.project_stack
        monkeypatch.setattr(condexp._FiberProjector, "project_stack",
                            lambda proj, blocks: edit(proj, real(proj, blocks), blocks))
    return mutate


# (1 - t) E + t id is unital, positive, trace-preserving, bimodular and contractive
convex_with_identity = fiber_map(lambda proj, ex, x: [0.999 * e + 1e-3 * b for e, b in zip(ex, x)])
overshoot = fiber_map(lambda proj, ex, x: [1.5 * e - 0.5 * b for e, b in zip(ex, x)])
reflection = fiber_map(lambda proj, ex, x: [2 * e - b for e, b in zip(ex, x)])
scaled_up = fiber_map(lambda proj, ex, x: [(1 + 1e-3) * e for e in ex])
# the image of the one-block Mat1 fiber (w4) dropped: (1 - 1_w4) E, with 1_w4 central
dropped_atom_image = fiber_map(lambda proj, ex, x: [0 * e for e in ex] if proj.shape == (1,)
                               else ex)


def rotation(n):
    u = np.eye(n)
    if n > 1:
        u[:2, :2] = [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
    return u


def rotated_subalgebra(monkeypatch):
    """``U E(U* x U) U*``: the conditional expectation onto a rotated subalgebra."""
    real = condexp._FiberProjector.project_stack

    def rotated(proj, blocks):
        us = [rotation(b.shape[1]) for b in blocks]
        ex = real(proj, [u.T @ b @ u for u, b in zip(us, blocks)])
        return [u @ e @ u.T for u, e in zip(us, ex)]

    monkeypatch.setattr(condexp._FiberProjector, "project_stack", rotated)


def atom_leak(monkeypatch):
    """1e-3 of the projected Mat2 block of w1 added to the first Mat2 block of w3."""
    real = condexp._project

    def leaky(projectors, blocks):
        out = real(projectors, blocks)
        out[3] = out[3] + 1e-3 * out[0]
        return out

    monkeypatch.setattr(condexp, "_project", leaky)


# ---------------------------------------------------------------- duality

def dual_q(p):
    return math.inf if p == 1 else p / (p - 1)


def dual_norms_shrunk(p):
    """The sampled dual norms at p's conjugate exponent times 0.99."""
    def mutate(monkeypatch):
        real = tracelp._sampled_dual_norms
        monkeypatch.setattr(tracelp, "_sampled_dual_norms", lambda drawn: [
            0.99 * n if d.q == dual_q(p) else n for d, n in zip(drawn, real(drawn))])
    return mutate


def witness_grown(p):
    """The extremal witnesses at p times 1.01."""
    def mutate(monkeypatch):
        real = tracelp._witnesses
        monkeypatch.setattr(tracelp, "_witnesses", lambda cases: [
            (n, [1.01 * v for v in w], 1.01 * a) if case_p == p else (n, w, a)
            for (_, case_p), (n, w, a) in zip(cases, real(cases))])
    return mutate


# ------------------------------------------------------------- martingale

def steps(edit):
    """The steps and target handed to the checks replaced by ``edit(xs, target, filtration)``."""
    def mutate(monkeypatch):
        real = runner.martingale_checks

        def edited(filtration, xs, *args, target, **kwargs):
            xs, target = edit(list(xs), target, filtration)
            return real(filtration, xs, *args, target=target, **kwargs)

        monkeypatch.setattr(runner, "martingale_checks", edited)
    return mutate


step_scaled = steps(lambda xs, x, f: (xs[:1] + [[1.01 * b for b in xs[1]]] + xs[2:], x))
step_raised = steps(lambda xs, x, f: ([xs[1]] + xs[1:], x))  # x_0 replaced by x_1
step_lowered = steps(lambda xs, x, f: (xs[:2] + [xs[0]] + xs[3:], x))  # x_2 replaced by x_0


def shifted_target(xs, x, f):
    """The target x moved by d = z - E_{K-1}(z): every step below the top stays, x_K misses x."""
    z = section_stacks([random_section(f.bundle, 91 + s, "general") for s in range(len(x[0]))])
    d = [a - b for a, b in zip(z, condexp._project(f.cond_exps[-2].target.projectors, z))]
    return xs[:-1] + [[a - b for a, b in zip(xs[-1], d)]], x


target_missed = steps(shifted_target)


def other_trace_weights(monkeypatch):
    """Every step and every E of the checks taken for the trace weights of w3 swapped.

    That tower has the same subalgebras, so its expectations are idempotent and compose,
    and the steps are a martingale with limit x; but they are not orthogonal in the
    trace that the norms use.
    """
    real_build, real_project = runner.build_tower, condexp._project
    towers = {}

    def build(cfg, bundle):
        f = real_build(cfg, bundle)
        weights = [cs[::-1] for cs in bundle.trace_weights]
        other = BundleSpec(bundle.space, bundle.fiber_shapes, weights)
        g = build_filtration(other, cfg.tower_generators(other))
        towers.update({id(a.target.projectors): b.target.projectors
                       for a, b in zip(f.cond_exps, g.cond_exps)})
        return f

    def project(projectors, blocks):
        return real_project(towers.get(id(projectors), projectors), blocks)

    monkeypatch.setattr(runner, "build_tower", build)
    monkeypatch.setattr(runner, "_project", project)
    monkeypatch.setattr(martingale, "_project", project)


def means(edit):
    """The running means replaced by ``edit(xs, sigmas, ratios)``."""
    def mutate(monkeypatch):
        real = martingale._running_means

        def edited(xs, w, extend_by=0):
            return edit(xs, *real(xs, w, extend_by))

        monkeypatch.setattr(martingale, "_running_means", edited)
    return mutate


# sigma_2 from the weights (-3, 4): 4 x_1 - 3 x_0, out of the convex hull of the steps
non_convex_mean = means(lambda xs, sigmas, ratios: (
    sigmas[:1] + [[4 * b - 3 * a for a, b in zip(xs[0], xs[1])]] + sigmas[2:], ratios))
# every held step keeps the terminal mean sigma_K: W_K / W_n stays 1
frozen_tail = means(lambda xs, sigmas, ratios: (sigmas, np.ones_like(ratios)))


def cx(*names):
    return {f"condexp/{n}" for n in names}


# check name -> (defect, the other checks that fail with it)
ROWS = {
    "trace/traciality": (skewed_trace, set()),
    "trace/positivity": (negative_weight, set()),
    "trace/faithfulness": (dropped_block, set()),
    "condexp/idempotence": (convex_with_identity, set()),
    "condexp/unitality": (dropped_atom_image,
                          cx("trace_preservation", "bimodule_pairing", "scalarized_trace")),
    "condexp/positivity": (overshoot, cx("idempotence")),
    "condexp/module_property": (rotated_subalgebra, cx("bimodule_pairing")),
    "condexp/bimodule_pairing": (rotated_subalgebra, cx("module_property")),
    "condexp/trace_preservation": (dropped_atom_image,
                                   cx("unitality", "bimodule_pairing", "scalarized_trace")),
    "condexp/scalarized_trace": (dropped_atom_image,
                                 cx("unitality", "trace_preservation", "bimodule_pairing")),
    "condexp/fiberwise_agreement": (atom_leak, cx(
        "idempotence", "module_property", "trace_preservation", "bimodule_pairing",
        "scalarized_trace", "lp_contraction_p1", "lp_contraction_p2", "lp_contraction_p3",
        "lp_contraction_p4")),
    "condexp/lp_contraction_p1": (reflection, cx(
        "idempotence", "positivity", "lp_contraction_p3", "lp_contraction_p4")),
    "condexp/lp_contraction_p2": (scaled_up, cx(
        "idempotence", "unitality", "trace_preservation", "bimodule_pairing", "scalarized_trace",
        "lp_contraction_p1", "lp_contraction_p3", "lp_contraction_p4")),
    "condexp/lp_contraction_p3": (reflection, cx(
        "idempotence", "positivity", "lp_contraction_p1", "lp_contraction_p4")),
    "condexp/lp_contraction_p4": (reflection, cx(
        "idempotence", "positivity", "lp_contraction_p1", "lp_contraction_p3")),
    **{f"duality/p={p:g}/violation": (dual_norms_shrunk(p), set()) for p in EXPONENTS},
    **{f"duality/p={p:g}/attainment": (witness_grown(p), set()) for p in EXPONENTS},
    "martingale/defect": (step_scaled, {"martingale/limit_reconstruction",
                                        "martingale/pythagoras_p2"}),
    "martingale/limit_reconstruction": (step_raised, {"martingale/defect"}),
    "martingale/terminal_residual": (target_missed, {"martingale/pythagoras_p2"}),
    "martingale/monotone_residuals": (step_lowered, {"martingale/defect",
                                                     "martingale/limit_reconstruction"}),
    "martingale/pythagoras_p2": (other_trace_weights, set()),
    "martingale/sup_gap": (non_convex_mean, set()),
    # the element side of the Cesaro verdict always converges in the runner (its held
    # steps read 0), so the two names are one verdict and fire together
    "martingale/cesaro_both": (frozen_tail, {"martingale/cesaro_never_one"}),
    "martingale/cesaro_never_one": (frozen_tail, {"martingale/cesaro_both"}),
}


def failing_checks(tmp_path, part, mutate=None) -> set:
    with pytest.MonkeyPatch.context() as patched:
        if mutate is not None:
            mutate(patched)
        summary, _ = run_experiment(config(), str(tmp_path), parts=(part,))
    return {c["name"] for c in summary["checks"] if not c["pass"]}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_injected_defect_fails_its_check(name, tmp_path):
    mutate, others = ROWS[name]
    assert failing_checks(tmp_path, name.split("/")[0], mutate) == {name} | others


def onto_a_larger_subalgebra(monkeypatch):
    """Each level's E replaced by the top level's, the identity of the full algebra."""
    real_build, real = runner.build_tower, condexp._FiberProjector.project_stack
    top = {}

    def build(cfg, bundle):
        f = real_build(cfg, bundle)
        top.update({id(p): q for E in f.cond_exps
                    for p, q in zip(E.target.projectors, f.cond_exps[-1].target.projectors)})
        return f

    monkeypatch.setattr(runner, "build_tower", build)
    monkeypatch.setattr(condexp._FiberProjector, "project_stack",
                        lambda proj, blocks: real(top.get(id(proj), proj), blocks))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no condexp check ties E to its target subalgebra "
                   "(ROADMAP item 9)")
def test_an_expectation_onto_a_larger_subalgebra_fails_a_check(tmp_path):
    # E onto N, N containing M, is idempotent, unital, positive, M-bimodular, trace-preserving,
    # contractive and local: it passes all 12 condexp checks of M
    assert failing_checks(tmp_path, "condexp", onto_a_larger_subalgebra)


@pytest.mark.parametrize("part", runner.ALL_PARTS)
def test_every_phase_passes_unmutated(part, tmp_path):
    assert failing_checks(tmp_path, part) == set()


def test_every_check_name_has_a_row(tmp_path):
    emitted = set()
    for name in ("mat2_tower", "hetero4_tower"):
        summary, _ = run_experiment(fixture_config(name), str(tmp_path / name))
        emitted |= {c["name"] for c in summary["checks"]}
    pinned = {name for _, names in WORKLOADS.values() for name in names}
    assert len(emitted) == 29
    assert set(ROWS) == emitted | pinned
