import json

import numpy as np
import pytest

from tracebundle import (
    ConditionalExpectation,
    FiberElement,
    InconsistencyError,
    Section,
    ShapeMismatchError,
    UsageError,
    build_cond_exp,
    center_trace,
    check_cond_exp_axioms,
    herm_eig,
    identity_fiber,
    identity_section,
    lp_norm,
    random_section,
    validate_subalgebra,
)
from tracebundle import tracelp
from tracebundle.towers import fiber_level_generators, level_generators
from tracebundle.tracelp import DUALITY_CHUNK

from oracles import ExactFiberProjection, axiom_report_reference, matrix_unit_blocks, pinching_basis

PRESET_LEVELS = ("scalars", "diagonal", "block(2,1)", "full")


def full_units(shape):
    return fiber_level_generators(shape, "full")


def diagonal_units(shape):
    return fiber_level_generators(shape, "diagonal")


@pytest.fixture(scope="module")
def hetero_diag_exp(hetero_bundle):
    basis = validate_subalgebra(
        hetero_bundle, [diagonal_units(s) for s in hetero_bundle.fiber_shapes]
    )
    return ConditionalExpectation(basis)


# ------------------------------------------------------------- validation

def test_scalars_have_dimension_one(mat2_bundle):
    basis = validate_subalgebra(mat2_bundle, [[identity_fiber((2,))]])
    assert basis.dims == (1,)


def test_diagonal_subalgebra_dimension(mat2_bundle):
    basis = validate_subalgebra(mat2_bundle, [diagonal_units((2,))])
    assert basis.dims == (2,)


def test_full_units_reach_whole_fiber(mat2_bundle):
    basis = validate_subalgebra(mat2_bundle, [full_units((2,))])
    assert basis.dims == (4,)
    assert basis.is_full()


def test_closure_from_single_generator(mat2_bundle):
    shift = FiberElement([np.array([[0.0, 1.0], [0.0, 0.0]])])
    basis = validate_subalgebra(mat2_bundle, [[shift]])
    assert basis.dims == (4,)  # E12 generates all of Mat(2)


def test_generator_shape_mismatch(mat2_bundle):
    with pytest.raises(ShapeMismatchError):
        validate_subalgebra(mat2_bundle, [[identity_fiber((3,))]])


def test_orthonormal_basis_gram(hetero_bundle):
    basis = validate_subalgebra(
        hetero_bundle, [diagonal_units(s) for s in hetero_bundle.fiber_shapes]
    )
    for proj in basis.projectors:
        q = proj.ortho
        assert np.abs(q.conj().T @ q - np.eye(proj.rank)).max() < 1e-10
    assert basis.closure_residual <= 1e-9


def test_identity_always_in_span(hetero_bundle):
    gens = [[fiber_level_generators(s, "diagonal")[0]] for s in hetero_bundle.fiber_shapes]
    basis = validate_subalgebra(hetero_bundle, gens)
    assert basis.membership_residual(identity_section(hetero_bundle)) < 1e-10


# ------------------------------------------------------------ construction

def test_full_subalgebra_gives_identity_map(hetero_bundle):
    basis = validate_subalgebra(
        hetero_bundle, [full_units(s) for s in hetero_bundle.fiber_shapes]
    )
    E = build_cond_exp(basis)
    x = random_section(hetero_bundle, 1, "general")
    assert (E(x) - x).max_abs() < 1e-12


def test_diagonal_projection_is_pinching(mat2_bundle):
    basis = validate_subalgebra(mat2_bundle, [diagonal_units((2,))])
    E = ConditionalExpectation(basis)
    x = Section(mat2_bundle, [FiberElement([np.array([[1.0, 2.0], [3.0, 4.0]])])])
    assert np.abs(E(x).fibers[0].blocks[0] - np.diag([1.0, 4.0])).max() < 1e-12


def test_scalar_projection_is_normalized_trace(hetero_bundle):
    basis = validate_subalgebra(
        hetero_bundle, [[identity_fiber(s)] for s in hetero_bundle.fiber_shapes]
    )
    E = ConditionalExpectation(basis)
    x = random_section(hetero_bundle, 2, "general")
    ex = E(x)
    phi_x = center_trace(x).values
    phi_one = center_trace(identity_section(hetero_bundle)).values.real
    for i, label in enumerate(hetero_bundle.space.labels):
        scale = phi_x[i] / phi_one[i]
        expected = complex(scale) * identity_fiber(hetero_bundle.fiber_shapes[i])
        assert (ex.fiber(label) - expected).max_abs() < 1e-12


def test_expectation_fixes_identity_and_subalgebra(hetero_diag_exp, hetero_bundle):
    one = identity_section(hetero_bundle)
    assert (hetero_diag_exp(one) - one).max_abs() < 1e-12
    y = hetero_diag_exp.target.random_element(5)
    assert (hetero_diag_exp(y) - y).max_abs() < 1e-12


def test_image_lies_in_target_subalgebra(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        assert hetero_diag_exp.target.membership_residual(hetero_diag_exp(x)) <= 1e-10


def test_module_property(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        a = hetero_diag_exp.target.random_element(100 + seed)
        b = hetero_diag_exp.target.random_element(200 + seed)
        lhs = hetero_diag_exp(a * x * b)
        rhs = a * hetero_diag_exp(x) * b
        assert (lhs - rhs).max_abs() < 1e-9


def test_trace_self_adjointness(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 400 + seed, "general")
        lhs = center_trace(hetero_diag_exp(x) * y).values
        rhs = center_trace(x * hetero_diag_exp(y)).values
        assert np.abs(lhs - rhs).max() < 1e-9


def test_idempotence_on_spanning_units(hetero_diag_exp, hetero_bundle):
    for atom_units, label in zip(
        level_generators(hetero_bundle, "full"), hetero_bundle.space.labels
    ):
        for u in atom_units:
            once = hetero_diag_exp.apply_fiber(label, u)
            twice = hetero_diag_exp.apply_fiber(label, once)
            assert (once - twice).max_abs() < 1e-10


def test_positivity_1000_seeds(mat2_bundle):
    basis = validate_subalgebra(mat2_bundle, [diagonal_units((2,))])
    E = ConditionalExpectation(basis)
    for seed in range(1000):
        pos = random_section(mat2_bundle, seed, "positive")
        image = E(pos)
        image = 0.5 * (image + image.adjoint())
        eig = herm_eig(image.fibers[0])
        assert min(w.min() for w in eig.eigenvalues) >= -1e-9


def test_lp_contraction(hetero_diag_exp, hetero_bundle):
    for seed in range(15):
        x = random_section(hetero_bundle, seed, "general")
        ex = hetero_diag_exp(x)
        for p in (1.0, 2.0, 3.0, 4.0):
            assert np.all(lp_norm(ex, p).values <= lp_norm(x, p).values + 1e-9)


def test_monotone_on_increasing_positives(hetero_diag_exp, hetero_bundle):
    # order continuity smoke test: increasing inputs give increasing images
    base = random_section(hetero_bundle, 60, "positive")
    bump = random_section(hetero_bundle, 61, "positive")
    previous = None
    for k in range(4):
        x = base + float(k) * bump
        ex = hetero_diag_exp(x)
        if previous is not None:
            step = ex - previous
            step = 0.5 * (step + step.adjoint())
            for f in step.fibers:
                eig = herm_eig(f)
                assert min(w.min() for w in eig.eigenvalues) >= -1e-9
        previous = ex


def test_fiberwise_factorization_bitwise(hetero_bundle):
    gens = [fiber_level_generators(s, "block(1,1)") for s in hetero_bundle.fiber_shapes]
    basis = validate_subalgebra(hetero_bundle, gens)
    E = ConditionalExpectation(basis)
    for seed in range(20):
        x = random_section(hetero_bundle, seed, "general")
        ex = E(x)
        for label in hetero_bundle.space.labels:
            sub = ConditionalExpectation(basis.restrict([label]))
            got = sub(x.restrict([label])).fibers[0]
            for a, b in zip(got.blocks, ex.fiber(label).blocks):
                assert np.array_equal(a, b)


# ------------------------------------------------------------ axiom reports

def test_axiom_report_full_subalgebra(hetero_bundle):
    basis = validate_subalgebra(
        hetero_bundle, [full_units(s) for s in hetero_bundle.fiber_shapes]
    )
    rep = check_cond_exp_axioms(ConditionalExpectation(basis), 10, 0)
    assert rep.worst() < 1e-12


def test_axiom_report_pinching(hetero_diag_exp):
    rep = check_cond_exp_axioms(hetero_diag_exp, 200, 9)
    assert rep.worst() <= 1e-9
    payload = rep.to_dict()
    assert set(payload) == {"trials", "seed", "residuals", "per_fiber_worst"}
    json.dumps(payload)  # serializable
    assert payload["trials"] == 200
    assert "lp_contraction_p4" in payload["residuals"]


def test_axiom_report_deterministic(hetero_diag_exp):
    a = check_cond_exp_axioms(hetero_diag_exp, 15, 3)
    b = check_cond_exp_axioms(hetero_diag_exp, 15, 3)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("trials", [0, -3])
def test_axiom_report_needs_a_trial(hetero_diag_exp, trials):
    with pytest.raises(UsageError):
        check_cond_exp_axioms(hetero_diag_exp, trials, 0)


def preset_expectation(bundle, level):
    return ConditionalExpectation(validate_subalgebra(bundle, level_generators(bundle, level)))


def perturbed_expectation(bundle):
    """A map that is no conditional expectation: block(2,1) projector bases pushed off their span.

    Its residuals are O(1) and depend on every trial, so a trial the checker
    skips or mismeasures shows against the reference; those of a true
    expectation are rounding noise.
    """
    basis = validate_subalgebra(bundle, level_generators(bundle, "block(2,1)"))
    rng = np.random.default_rng(5)
    for p in basis.projectors:
        shape = p.ortho.shape
        p.ortho = p.ortho + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ConditionalExpectation(basis)


@pytest.fixture(scope="module")
def axiom_cases(hetero_bundle, large_blocks_bundle):
    """Per (bundle, level): E, its 20-trial reference and unchunked stacked reports."""
    cases = {}
    for name, bundle in (("hetero", hetero_bundle), ("large", large_blocks_bundle)):
        maps = {level: preset_expectation(bundle, level) for level in PRESET_LEVELS}
        maps["perturbed"] = perturbed_expectation(bundle)
        for level, E in maps.items():
            whole = check_cond_exp_axioms(E, 20, 31).to_dict()
            cases[name, level] = (E, axiom_report_reference(E, 20, 31), whole)
    return cases


def assert_matches_reference(rep, want):
    # 1e-14 absolute for residuals below 1 (every true expectation), else relative
    assert (rep.trials, rep.seed) == (want.trials, want.seed)
    for got, ref in ((rep.residuals, want.residuals), (rep.per_fiber_worst, want.per_fiber_worst)):
        assert list(got) == list(ref)
        assert all(abs(got[k] - ref[k]) <= 1e-14 * max(1.0, abs(ref[k])) for k in ref), (got, ref)
    assert (rep.residuals["fiberwise_agreement"] == 0.0) == (want.residuals["fiberwise_agreement"] == 0.0)


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_axiom_report_matches_per_trial_reference(axiom_cases, monkeypatch, chunk):
    # chunks of 1 and 7 split the 20 trials; the report must not change by a bit
    if chunk is not None:
        monkeypatch.setattr(tracelp, "DUALITY_CHUNK", chunk)
    for E, want, whole in axiom_cases.values():
        rep = check_cond_exp_axioms(E, 20, 31)
        assert_matches_reference(rep, want)
        assert rep.to_dict() == whole


def test_axiom_report_reference_above_chunk_size(hetero_bundle):
    # more trials than one chunk, so the last chunk is partial
    E = preset_expectation(hetero_bundle, "block(2,1)")
    trials = DUALITY_CHUNK + 13
    assert_matches_reference(check_cond_exp_axioms(E, trials, 32),
                             axiom_report_reference(E, trials, 32))


def test_expectation_commutes_with_adjoint(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        lhs = hetero_diag_exp(x.adjoint())
        rhs = hetero_diag_exp(x).adjoint()
        assert (lhs - rhs).max_abs() < 1e-10


def test_random_subalgebra_element_lies_in_span(hetero_diag_exp):
    y = hetero_diag_exp.target.random_element(123)
    assert hetero_diag_exp.target.membership_residual(y) < 1e-10


def test_projection_invariant_under_trace_rescaling(hetero_bundle):
    # uniqueness content: rescaling the fiber trace by any positive per-atom
    # factor leaves the trace-preserving projection unchanged
    from tracebundle import BundleSpec, Section

    factors = [0.3, 2.5, 7.0, 0.05]
    scaled = BundleSpec(
        hetero_bundle.space,
        hetero_bundle.fiber_shapes,
        [
            [f * c for c in cs]
            for f, cs in zip(factors, hetero_bundle.trace_weights)
        ],
    )
    gens_a = [diagonal_units(s) for s in hetero_bundle.fiber_shapes]
    gens_b = [diagonal_units(s) for s in scaled.fiber_shapes]
    E_a = ConditionalExpectation(validate_subalgebra(hetero_bundle, gens_a))
    E_b = ConditionalExpectation(validate_subalgebra(scaled, gens_b))
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        x_scaled = Section(scaled, x.fibers)
        got_a = E_a(x)
        got_b = E_b(x_scaled)
        worst = max(
            np.abs(a - b).max()
            for fa, fb in zip(got_a.fibers, got_b.fibers)
            for a, b in zip(fa.blocks, fb.blocks)
        )
        assert worst < 1e-10


# --------------------------------------------------- exact rational oracle

def _exact_agreement(bundle, label, float_exp, exact_basis_blocks, seeds):
    shape = bundle.shape_at(label)
    weights = bundle.trace_weights[bundle.space.index_of(label)]
    oracle = ExactFiberProjection(exact_basis_blocks, weights)
    worst = 0.0
    for seed in seeds:
        x = random_section(bundle, seed, "general")
        got = float_exp(x).fiber(label)
        want = oracle.project(x.fiber(label).blocks)
        worst = max(
            worst,
            max(np.abs(a - b).max() for a, b in zip(got.blocks, want)),
        )
    return worst


def test_exact_oracle_pinchings_mat2(mat2_bundle):
    # diagonal and full pinchings on the 2x2 fiber, exact rational arithmetic
    cases = {
        "diagonal": pinching_basis((2,), [[(0, 1), (1, 2)]]),
        "full": pinching_basis((2,), [[(0, 2)]]),
    }
    for preset, exact_basis in cases.items():
        basis = validate_subalgebra(
            mat2_bundle, [fiber_level_generators((2,), preset)]
        )
        worst = _exact_agreement(
            mat2_bundle, "w", ConditionalExpectation(basis), exact_basis, range(25)
        )
        assert worst <= 1e-12, preset


def test_exact_oracle_scalars_mat2(mat2_bundle):
    basis = validate_subalgebra(mat2_bundle, [[identity_fiber((2,))]])
    exact_basis = [[np.eye(2)]]
    worst = _exact_agreement(
        mat2_bundle, "w", ConditionalExpectation(basis), exact_basis, range(25)
    )
    assert worst <= 1e-12


def test_exact_oracle_symmetric_two_dim_subalgebra(mat2_bundle):
    # span{1, X} with X the symmetric flip: closure keeps it two-dimensional
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    basis = validate_subalgebra(mat2_bundle, [[FiberElement([flip])]])
    assert basis.dims == (2,)
    exact_basis = [[np.eye(2)], [flip]]
    worst = _exact_agreement(
        mat2_bundle, "w", ConditionalExpectation(basis), exact_basis, range(25)
    )
    assert worst <= 1e-12


def test_exact_oracle_multiblock_fiber(hetero_bundle):
    # Mat(2)+Mat(2) fiber: block(1,1) keeps the first block diagonal, second full
    label = "w3"
    gens = [fiber_level_generators(s, "block(1,1)") for s in hetero_bundle.fiber_shapes]
    basis = validate_subalgebra(hetero_bundle, gens)
    exact_basis = pinching_basis((2, 2), [[(0, 1), (1, 2)], [(0, 2)]])
    worst = _exact_agreement(
        hetero_bundle, label, ConditionalExpectation(basis), exact_basis, range(15)
    )
    assert worst <= 1e-12


def test_exact_oracle_scalars_multiblock(hetero_bundle):
    # weighted average across blocks with distinct trace weights (1.0 and 2.0)
    label = "w3"
    basis = validate_subalgebra(
        hetero_bundle, [[identity_fiber(s)] for s in hetero_bundle.fiber_shapes]
    )
    exact_basis = [[np.eye(2), np.eye(2)]]
    worst = _exact_agreement(
        hetero_bundle, label, ConditionalExpectation(basis), exact_basis, range(15)
    )
    assert worst <= 1e-12
