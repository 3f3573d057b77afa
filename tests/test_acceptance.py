"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criterion scopes that needed tightening against the mathematics (residual
monotonicity exponent, averaged-sup gap tower depth) are noted inline.
"""

import time

import numpy as np
import pytest

from tracebundle import (
    BundleSpec,
    ConditionalExpectation,
    MeasureSpace,
    center_trace,
    cesaro_equivalence,
    check_cond_exp_axioms,
    derive_seed,
    dual_extremal,
    double_sequence_check,
    duality_checks,
    identity_fiber,
    lp_norm,
    martingale_from_target,
    martingale_limit,
    random_section,
    run_experiment,
    spectral_norm,
    sup_norm_comparison,
    validate_subalgebra,
)
from tracebundle.fixtures import fixture_config
from tracebundle.martingale import build_filtration, martingale_defect
from tracebundle.towers import fiber_level_generators, level_generators

from oracles import ExactFiberProjection, pinching_basis, restricted_basis

MASTER_SEED = 987654321


def verdict(number, budget, started, description):
    elapsed = time.time() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget


@pytest.fixture(scope="module")
def bundle(hetero_bundle):
    return hetero_bundle


@pytest.fixture(scope="module")
def fiber_bundles(hetero_bundle):
    """One single-atom bundle per fiber type of the heterogeneous bundle."""
    return {label: hetero_bundle.restrict([label]) for label in hetero_bundle.space.labels}


def make_tower(b, *specs):
    return build_filtration(b, [level_generators(b, s) for s in specs])


def test_criterion_1_trace_axioms(bundle):
    t0 = time.time()
    traciality = positivity = 0.0
    for t in range(1000):
        x = random_section(bundle, derive_seed(MASTER_SEED, "c1-x", t), "general")
        y = random_section(bundle, derive_seed(MASTER_SEED, "c1-y", t), "general")
        d = np.abs(center_trace(x * y) - center_trace(y * x))
        traciality = max(traciality, float(d.max()))
        gram = center_trace(x.adjoint() * x)
        positivity = max(
            positivity, float(np.abs(gram.imag).max()), max(0.0, float(-gram.real.min()))
        )
        if t < 100:
            # faithfulness contrapositive on sections tiny enough to trigger it
            tiny = 1e-9 * x
            tiny_gram = center_trace(tiny.adjoint() * tiny).real
            for i, label in enumerate(bundle.space.labels):
                if tiny_gram[i] < 1e-12:
                    assert spectral_norm(tiny.fiber(label)) < 1e-5
    assert traciality <= 1e-10
    assert positivity <= 1e-10
    verdict(1, 10, t0, f"trace axioms over 1000 sections "
                       f"(traciality {traciality:.1e}, positivity {positivity:.1e})")


def test_criterion_2_duality(bundle):
    t0 = time.time()
    worst_violation = worst_attainment = 0.0
    cases = [(random_section(bundle, derive_seed(MASTER_SEED, "c2", p, k), "general"), p,
              derive_seed(MASTER_SEED, "c2-samples", p, k))
             for p in (1.0, 1.5, 2.0, 3.0, 4.0) for k in range(50)]
    for rep in duality_checks(cases, 500):  # the 250 reports of one duality_check each
        worst_violation = max(worst_violation, rep.max_violation)
        worst_attainment = max(worst_attainment, rep.attainment_residual)
    assert worst_violation <= 1e-9
    assert worst_attainment <= 1e-8
    verdict(2, 60, t0, f"duality over 5 exponents x 50 sections x 500 samples "
                       f"(violation {worst_violation:.1e}, attainment {worst_attainment:.1e})")


TOWER_SPECS = ("scalars", "diagonal", "block(1,1)", "full")

LEVEL_PARTITIONS = {
    # hand-written partitions for the exact oracle on 2x2-block fibers
    (2,): {
        "diagonal": [[(0, 1), (1, 2)]],
        "block(1,1)": [[(0, 1), (1, 2)]],
        "full": [[(0, 2)]],
    },
    (2, 2): {
        "diagonal": [[(0, 1), (1, 2)], [(0, 1), (1, 2)]],
        "block(1,1)": [[(0, 1), (1, 2)], [(0, 2)]],
        "full": [[(0, 2)], [(0, 2)]],
    },
}


def test_criterion_3_conditional_expectation(fiber_bundles):
    t0 = time.time()
    worst_axiom = 0.0
    worst_oracle = 0.0
    for label, fb in fiber_bundles.items():
        tower = build_filtration(fb, [level_generators(fb, s) for s in TOWER_SPECS])
        for level, E in enumerate(tower.cond_exps):
            rep = check_cond_exp_axioms(
                E, 200, derive_seed(MASTER_SEED, "c3", label, level)
            )
            worst_axiom = max(worst_axiom, rep.worst())
        shape = fb.fiber_shapes[0]
        if shape in LEVEL_PARTITIONS:  # every 2x2-block fiber gets the exact oracle
            weights = fb.trace_weights[0]
            for spec in TOWER_SPECS:
                if spec == "scalars":
                    exact = ExactFiberProjection([[np.eye(n) for n in shape]], weights)
                else:
                    exact = ExactFiberProjection(
                        pinching_basis(shape, LEVEL_PARTITIONS[shape][spec]), weights
                    )
                basis = validate_subalgebra(fb, [fiber_level_generators(shape, spec)])
                E = ConditionalExpectation(basis)
                for k in range(50):
                    x = random_section(fb, derive_seed(MASTER_SEED, "c3o", label, spec, k), "general")
                    got = E(x).fibers[0]
                    want = exact.project(x.fibers[0].blocks)
                    worst_oracle = max(
                        worst_oracle,
                        max(np.abs(a - b).max() for a, b in zip(got.blocks, want)),
                    )
    assert worst_axiom <= 1e-9
    assert worst_oracle <= 1e-12
    verdict(3, 60, t0, f"conditional expectation axioms on 4 fiber types x 4 levels "
                       f"(worst {worst_axiom:.1e}, exact-oracle gap {worst_oracle:.1e})")


def test_criterion_4_fiberwise_factorization(bundle):
    t0 = time.time()
    gens = [fiber_level_generators(s, "block(1,1)") for s in bundle.fiber_shapes]
    basis = validate_subalgebra(bundle, gens)
    E = ConditionalExpectation(basis)
    atom_exps = {
        label: ConditionalExpectation(restricted_basis(basis, [label]))
        for label in bundle.space.labels
    }
    for k in range(100):
        x = random_section(bundle, derive_seed(MASTER_SEED, "c4", k), "general")
        ex = E(x)
        for label, sub in atom_exps.items():
            got = sub(x.restrict([label])).fibers[0]
            want = ex.fiber(label)
            for a, b in zip(got.blocks, want.blocks):
                assert np.array_equal(a, b)  # bitwise
    verdict(4, 5, t0, "global and single-atom expectations agree bitwise on 100 sections")


def test_criterion_5_martingale_convergence(bundle, mat2_bundle):
    t0 = time.time()
    mat4 = BundleSpec(MeasureSpace(["w"], [1.0]), [[4]], [[0.25]])
    towers = [
        make_tower(mat2_bundle, "scalars", "diagonal", "full"),                      # depth 3
        make_tower(bundle, "scalars", "diagonal", "block(1,1)", "full"),             # depth 4
        make_tower(mat4, "scalars", "diagonal", "block(1,1,2)", "block(2,2)", "full"),  # depth 5
    ]
    worst_terminal = worst_recon = worst_pyth = worst_increase = 0.0
    for ti, tower in enumerate(towers):
        for k in range(20):
            x = random_section(tower.bundle, derive_seed(MASTER_SEED, "c5", ti, k), "general")
            seq = martingale_from_target(x, tower, p=2)
            lim = martingale_limit(seq)
            worst_recon = max(worst_recon, lim.reconstruction_residual)
            for p in (1.0, 2.0, 3.0, 4.0):
                worst_terminal = max(
                    worst_terminal, float(lp_norm(seq.elements[-1] - x, p).max())
                )
            # pointwise nonincreasing residuals: a theorem at p = 2 (Pythagoras);
            # measured counterexamples exist at p = 1 and p = 4, see the ledger
            res = [lp_norm(x_n - x, 2) for x_n in seq.elements]
            for a, b in zip(res, res[1:]):
                worst_increase = max(worst_increase, float((b - a).max()))
            nx = lp_norm(x, 2) ** 2
            for x_n, r in zip(seq.elements, res):
                drift = np.abs(nx - lp_norm(x_n, 2) ** 2 - r**2)
                worst_pyth = max(worst_pyth, float(drift.max()))
    assert worst_increase <= 1e-12
    assert worst_terminal <= 1e-10
    assert worst_recon <= 1e-9
    assert worst_pyth <= 1e-8
    verdict(5, 30, t0, f"martingale convergence on towers of depth 3-5 "
                       f"(terminal {worst_terminal:.1e}, reconstruction {worst_recon:.1e}, "
                       f"pythagoras {worst_pyth:.1e})")


def test_criterion_6_double_sequence(bundle):
    t0 = time.time()
    tower = make_tower(bundle, "scalars", "diagonal", "block(1,1)", "full")
    x = random_section(bundle, derive_seed(MASTER_SEED, "c6-x"), "general")
    h = random_section(bundle, derive_seed(MASTER_SEED, "c6-h"), "hermitian")
    xs = [x + (1.0 / n) * h for n in range(1, 51)]
    rep = double_sequence_check(xs, x, tower, p=2)
    bound = rep.sequence_residuals[-1] + rep.tower_residuals[-1] + 1e-9
    assert rep.corner <= bound
    assert rep.triangle_violation <= 1e-9
    for residuals in (rep.sequence_residuals, rep.tower_residuals):
        assert all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))
    verdict(6, 10, t0, f"double-sequence corner {rep.corner:.2e} within combined "
                       f"tolerance {bound:.2e}")


def test_criterion_7_weighted_averages(bundle, mat2_bundle):
    t0 = time.time()
    mat4 = BundleSpec(MeasureSpace(["w"], [1.0]), [[4]], [[0.25]])
    towers = [
        make_tower(mat2_bundle, "diagonal", "full"),                                  # depth 2
        make_tower(mat2_bundle, "scalars", "diagonal", "full"),                       # depth 3
        make_tower(bundle, "scalars", "diagonal", "block(1,1)", "full"),              # depth 4
        make_tower(mat4, "scalars", "diagonal", "block(1,1,2)", "block(2,2)", "full"),  # depth 5
    ]
    n_ext = 1000
    worst_sup_excess = 0.0
    verdicts_ok = True
    never_one = True
    # 100 seeds spread over the four depths: sup inequality + cesaro biconditional.
    # The averaged residual scales like (depth-1)*||x|| / W_N, so the fixed
    # 1e-2 example tolerance only fits depth <= 3; deeper towers get 5e-2
    # (see ledger), and the 1e-2 case is asserted on the depth-3 tower below.
    for k in range(100):
        tower = towers[k % len(towers)]
        x = random_section(tower.bundle, derive_seed(MASTER_SEED, "c7", k), "general")
        seq = martingale_from_target(x, tower, p=2)
        w = [1.0] * (len(seq) + n_ext)
        sup_x, sup_sigma, _ = sup_norm_comparison(seq, w, p=2, extend_by=n_ext)
        worst_sup_excess = max(
            worst_sup_excess, float((sup_sigma - sup_x).max())
        )
        tol = 1e-2 if tower.depth <= 3 else 5e-2
        rep = cesaro_equivalence(seq, w, p=2, tol=tol, extend_by=n_ext)
        verdicts_ok = verdicts_ok and rep.verdict == "both"
        never_one = never_one and rep.verdict != "exactly-one"
    # tight 1e-3 gap bound: asserted on depth-2 towers, where
    # gap <= ||x_1 - x_2||_2 / W <= sup_x / 1002 is a theorem (see ledger)
    worst_rel_gap = 0.0
    for k in range(100):
        x = random_section(mat2_bundle, derive_seed(MASTER_SEED, "c7-gap", k), "general")
        seq = martingale_from_target(x, towers[0], p=2)
        w = [1.0] * (len(seq) + n_ext)
        sup_x, sup_sigma, gap = sup_norm_comparison(seq, w, p=2, extend_by=n_ext)
        assert np.all(gap <= 1e-3 * sup_x)
        worst_rel_gap = max(worst_rel_gap, float((gap / sup_x).max()))
    assert worst_sup_excess <= 1e-9
    assert verdicts_ok
    assert never_one
    verdict(7, 60, t0, f"averaged sups across 100 seeds (sup excess {worst_sup_excess:.1e}, "
                       f"depth-2 relative gap {worst_rel_gap:.2e}, all verdicts 'both')")


def test_criterion_8_reproducibility(tmp_path):
    t0 = time.time()
    cfg = fixture_config("mat2_tower")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    s1, ok1 = run_experiment(cfg, str(out1))
    s2, ok2 = run_experiment(cfg, str(out2))
    assert ok1 and ok2
    names = ["summary.json", "traces.csv", "axioms.json", "duality.json", "limit_section.csv"]
    for name in names:
        with open(out1 / name, "rb") as fh:
            b1 = fh.read()
        with open(out2 / name, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name
    verdict(8, 5, t0, "fixture rerun produced byte-identical artifacts")
