import json
from pathlib import Path

import numpy as np
import pytest

from tracebundle import (
    BundleSpec,
    ConditionalExpectation,
    ContractViolationError,
    FiberElement,
    InconsistencyError,
    MeasureSpace,
    Section,
    ShapeMismatchError,
    UsageError,
    build_filtration,
    center_trace,
    check_cond_exp_axioms,
    cond_exp_axiom_checks,
    herm_eig,
    identity_fiber,
    identity_section,
    lp_norm,
    random_section,
    validate_subalgebra,
)
from tracebundle import condexp, runner, tracelp
from tracebundle.config import DEFAULT_TOLERANCES, parse_config
from tracebundle.fixtures import FIXTURES, fixture_text
from tracebundle.towers import fiber_level_generators, level_generators
from tracebundle.tracelp import DUALITY_CHUNK

from conftest import values_drawn
from oracles import (
    ExactFiberProjection,
    axiom_report_reference,
    closure_loop_reference,
    closure_residual_reference,
    closed_form_expectation,
    matrix_unit_blocks,
    membership_residual,
    pinching_basis,
    random_element,
    restricted_basis,
)

PRESET_LEVELS = ("scalars", "diagonal", "block(2,1)", "full")
PRESET_TOWERS = {
    "mat2": ("scalars", "diagonal", "full"),
    "hetero": ("scalars", "diagonal", "block(1,1)", "full"),
    "large_blocks": ("scalars", "diagonal", "block(2,1)", "full"),
}


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


@pytest.mark.parametrize("level", PRESET_LEVELS)
def test_closure_stops_once_the_span_is_full(large_blocks_bundle, monkeypatch, level):
    # a span of full rank is the whole fiber algebra: no candidate is tried against it
    ranks = []
    extend = condexp._FiberProjector.try_extend

    def recording(proj, f):
        ranks.append((proj.rank, sum(n * n for n in proj.shape)))
        return extend(proj, f)

    monkeypatch.setattr(condexp._FiberProjector, "try_extend", recording)
    basis = validate_subalgebra(large_blocks_bundle, level_generators(large_blocks_bundle, level))
    assert basis.is_full() == (level == "full")
    assert ranks and all(rank < cap for rank, cap in ranks)


def accumulated_levels(bundle, specs):
    """Per-level generator lists with every lower level folded in, as build_filtration does."""
    accumulated = [()] * bundle.space.size
    for spec in specs:
        new = level_generators(bundle, spec)
        accumulated = [acc + tuple(gens) for acc, gens in zip(accumulated, new)]
        yield accumulated


def mat3_bundle():
    return BundleSpec(MeasureSpace(["m"], [1.0]), [[3]], [[1.0 / 3.0]])


def explicit_generating_sets(mat2_bundle):
    """Explicit generating sets; all but the flip (already closed) need a second round."""
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    diag_ab = np.zeros((3, 3), dtype=np.complex128)
    diag_ab[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    diag_ab[2, 2] = 0.7 - 0.2j
    # e11 and e12 in a random unitary frame: e12 e12 = 0 comes out as rounding
    frame, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    units = [FiberElement([frame @ np.eye(3)[:, [i]] @ np.eye(3)[[j]] @ frame.conj().T])
             for i, j in [(0, 0), (0, 1)]]
    return {
        "shift": (mat2_bundle, [[FiberElement([np.array([[0.0, 1.0], [0.0, 0.0]])])]]),
        "hermitian": (mat3_bundle(), [[FiberElement([g + g.conj().T])]]),
        "flip": (mat2_bundle, [[FiberElement([np.array([[0.0, 1.0], [1.0, 0.0]])])]]),
        "diag_ab": (mat3_bundle(), [[FiberElement([diag_ab])]]),
        "frame_units": (mat3_bundle(), [units]),
    }


def assert_matches_closure_loop_reference(bundle, generators):
    basis = validate_subalgebra(bundle, generators)
    orthos, closures = closure_loop_reference(bundle, generators)
    assert all(np.array_equal(p.ortho, o) for p, o in zip(basis.projectors, orthos))
    # a span of full rank is the fiber algebra: closed by dimension, so it reports 0.0
    full = [p.rank == p.sqrt_weights.size for p in basis.projectors]
    assert all(c <= condexp.CLOSURE_RESIDUAL_TOL for c, f in zip(closures, full) if f)
    assert basis.closure_residual == max([c for c, f in zip(closures, full) if not f], default=0.0)
    return basis


@pytest.mark.parametrize("name", sorted(PRESET_TOWERS))
def test_preset_towers_match_closure_loop_reference(name, request):
    bundle = request.getfixturevalue(f"{name}_bundle")
    for generators in accumulated_levels(bundle, PRESET_TOWERS[name]):
        assert_matches_closure_loop_reference(bundle, generators)


@pytest.mark.parametrize("name", ["shift", "hermitian", "flip", "diag_ab", "frame_units"])
def test_explicit_sets_match_closure_loop_reference(name, mat2_bundle):
    bundle, generators = explicit_generating_sets(mat2_bundle)[name]
    basis = assert_matches_closure_loop_reference(bundle, generators)
    assert basis.dims == {"shift": (4,), "hermitian": (3,), "flip": (2,), "diag_ab": (5,),
                          "frame_units": (5,)}[name]


def test_chunked_closure_matches_the_per_product_reference(request, mat2_bundle, monkeypatch):
    # stacks of 7 products split every span of rank 3 or more; each span is measured
    # as validated and with its basis pushed off it, where every product has its own
    # residual of O(1)
    monkeypatch.setattr(tracelp, "DUALITY_CHUNK", 7)
    bundles = {name: request.getfixturevalue(f"{name}_bundle") for name in PRESET_TOWERS}
    cases = [(bundles[name], gens) for name, specs in PRESET_TOWERS.items()
             for gens in accumulated_levels(bundles[name], specs)]
    cases += explicit_generating_sets(mat2_bundle).values()
    rng = np.random.default_rng(5)
    for bundle, generators in cases:
        for proj in validate_subalgebra(bundle, generators).projectors:
            pushed = proj.copy()
            pushed.ortho = proj.ortho + 0.1 * rng.standard_normal(proj.ortho.shape)
            for p in (proj, pushed):
                assert abs(condexp._closure_residual(p) - closure_residual_reference(p)) <= 1e-14


@pytest.mark.parametrize("name", [*sorted(PRESET_TOWERS), "flip"])
def test_closed_generating_sets_form_no_product(name, request, mat2_bundle, monkeypatch):
    # a preset level, or span{1, X} with X* X = 1, is a *-algebra already: the
    # closure test after the first round stops the loop
    if name == "flip":
        cases = [explicit_generating_sets(mat2_bundle)["flip"]]
    else:
        bundle = request.getfixturevalue(f"{name}_bundle")
        cases = [(bundle, gens) for gens in accumulated_levels(bundle, PRESET_TOWERS[name])]
    products = []
    mul = FiberElement.__mul__

    def counting(f, other):
        products.append(None)
        return mul(f, other)

    monkeypatch.setattr(FiberElement, "__mul__", counting)
    for bundle, generators in cases:
        validate_subalgebra(bundle, generators)
    assert products == []


def test_generator_shape_mismatch(mat2_bundle):
    with pytest.raises(ShapeMismatchError):
        validate_subalgebra(mat2_bundle, [[identity_fiber((3,))]])


def test_validation_needs_one_generator_list_per_atom(hetero_bundle):
    with pytest.raises(ShapeMismatchError, match="need one generator list per atom"):
        validate_subalgebra(hetero_bundle, [[identity_fiber((2,))]])


def test_a_basis_that_drifted_from_orthonormal_is_refused(mat2_bundle):
    # a level goes on from the basis below it; one whose columns lost their unit norm is
    # refused by the Gram-drift test, naming the atom, before any projection reads it
    basis = validate_subalgebra(mat2_bundle, [diagonal_units((2,))])
    basis.projectors[0].ortho = basis.projectors[0].ortho * np.array([1.0, 1.01])
    with pytest.raises(ContractViolationError,
                       match=r"orthonormalization at 'w' degenerated \(Gram drift 2\.01e-02\)"):
        validate_subalgebra(basis, [[]])


def test_a_basis_and_its_expectation_refuse_a_section_of_another_bundle(mat2_bundle, hetero_bundle):
    basis = validate_subalgebra(mat2_bundle, [diagonal_units((2,))])
    x = identity_section(hetero_bundle)
    with pytest.raises(ShapeMismatchError, match="section lives on a different bundle"):
        membership_residual(basis, x)
    with pytest.raises(ShapeMismatchError, match="section lives on a different bundle"):
        ConditionalExpectation(basis)(x)


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
    assert membership_residual(basis, identity_section(hetero_bundle)) < 1e-10


def test_a_span_at_a_tiny_weight_unit_holds_the_identity():
    # at trace weight 1e-24 the identity has weighted norm 1.4e-12, below the rank tolerance:
    # an absolute pivot dropped it, and the span of 1e8 e11 missed it by 0.71 of its norm.
    # The rank decision is on the direction, so the identity is the first basis element and
    # 1e8 e11 spans the diagonal with it, as at weight 1
    spike = FiberElement([np.array([[1e8, 0.0], [0.0, 0.0]])])
    other = FiberElement([np.array([[0.0, 0.0], [0.0, 1e8]])])
    for weight in (1.0, 1e-24):
        bundle = BundleSpec(MeasureSpace(["a"], [1.0]), [[2]], [[weight]])
        basis = validate_subalgebra(bundle, [[spike]])
        assert basis.dims == (2,)
        # the identity's distance to the span, relative to its weighted norm sqrt(2 c)
        assert membership_residual(basis, identity_section(bundle)) <= 1e-15 * np.sqrt(2.0 * weight)
        assert validate_subalgebra(bundle, [[spike, other]]).dims == (2,)


def power_of_two_cases():
    """A Mat2 shift and a Hermitian Mat3 element, each on one atom of trace weight 1."""
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return {"shift": ((2,), np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)),
            "hermitian": ((3,), g + g.conj().T)}


@pytest.mark.parametrize("name", ["shift", "hermitian"])
def test_the_closure_is_the_same_at_any_power_of_two(name):
    # 2**k m is m up to an exact scaling, and the rank decision reads only the direction of
    # a candidate, normed at a power of two in range where its squares leave the float range:
    # every k gives the k = 0 basis bit for bit.  With the absolute pivot, k below about -34
    # refused the generator: the k = 0 bits came at 1,034 and 1,037 of the 2,001 exponents
    shape, m = power_of_two_cases()[name]
    bundle = BundleSpec(MeasureSpace(["a"], [1.0]), [list(shape)], [[1.0]])
    want = validate_subalgebra(bundle, [[FiberElement([m])]]).projectors[0].ortho
    for k in range(-1000, 1001):
        got = validate_subalgebra(bundle, [[FiberElement([m * 2.0**k])]]).projectors[0].ortho
        assert got.shape == want.shape and np.array_equal(got, want), k


def test_a_generator_below_the_pivot_in_the_span_is_kept(mat2_bundle):
    # a generator counts by its direction, whatever its norm: 1e-11 * 1 is the identity's,
    # and 1e-11 * e11 is e11's, whatever their order (an absolute pivot refused the last set)
    tiny, unit = FiberElement([1e-11 * np.eye(2)]), FiberElement([np.diag([1.0, 0.0])])
    assert validate_subalgebra(mat2_bundle, [[tiny]]).dims == (1,)
    assert validate_subalgebra(mat2_bundle, [[1e-11 * unit, unit]]).dims == (2,)
    assert validate_subalgebra(mat2_bundle, [[tiny, 1e-11 * unit]]).dims == (2,)
    # only the exact zero is in every span
    assert validate_subalgebra(mat2_bundle, [[0.0 * unit, 1e-300 * unit]]).dims == (2,)


def test_a_vanished_product_is_not_tried(mat2_bundle):
    # e11 and e12 of Mat3 in a random unitary frame generate M2 + C (dims 5); their product
    # e12 e12 = 0 comes out as rounding, whose direction is arbitrary: tried, it grew the
    # span to all of Mat3.  It is skipped at every weight unit
    _, (units,) = explicit_generating_sets(mat2_bundle)["frame_units"]
    assert 0.0 < (units[1] * units[1]).max_abs() < 1e-15
    for weight in (1.0, 1e-24, 4.0**-300):
        bundle = BundleSpec(MeasureSpace(["m"], [1.0]), [[3]], [[weight]])
        assert validate_subalgebra(bundle, [units]).dims == (5,)


def test_the_preset_tower_is_the_same_at_any_weight_unit(hetero_bundle):
    # every trace weight times 4**k scales the weighted coordinates by exactly 2**k: the
    # rank decision and the closure test read directions and ratios, so every level keeps
    # its k = 0 basis bit for bit.  With the absolute pivot and closure test, every k <= -25
    # refused the tower: 'w3' not closed, and from k = -34 on an empty span at 'w1'
    specs = PRESET_TOWERS["hetero"]

    def tower_at(unit):
        bundle = BundleSpec(hetero_bundle.space, hetero_bundle.fiber_shapes,
                            [[c * unit for c in cs] for cs in hetero_bundle.trace_weights])
        return build_filtration(bundle, [level_generators(bundle, s) for s in specs]).tower

    want = tower_at(1.0)
    for k in range(-300, 301):
        got = tower_at(4.0**k)
        assert [level.dims for level in got] == [level.dims for level in want], k
        assert all(np.array_equal(p.ortho, q.ortho) for a, b in zip(got, want)
                   for p, q in zip(a.projectors, b.projectors)), k


def test_a_block_of_tiny_trace_weight_closes_to_its_levels():
    # one atom Mat2 + Mat2 with block weights [1, 1e-24]: the second block's generators have
    # weighted norms near 1e-12, which an absolute pivot dropped (the full level was refused)
    bundle = BundleSpec(MeasureSpace(["w"], [1.0]), [[2, 2]], [[1.0, 1e-24]])
    specs = PRESET_TOWERS["hetero"]
    tower = build_filtration(bundle, [level_generators(bundle, s) for s in specs]).tower
    assert [level.dims for level in tower] == [(1,), (4,), (6,), (8,)]
    assert tower[-1].is_full()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the closure test depends on the trace-weight ratio between the blocks "
                   "of an atom (ROADMAP item 2)")
def test_a_generic_hermitian_generates_its_algebra_at_any_block_weight_ratio():
    # h = g + g* on Mat2 + Mat2 has four distinct eigenvalues, so it generates a 4-dimensional
    # commutative algebra whatever the block weights [1, r].  At r = 1 all six seeds give it;
    # at r = 4**20 seeds 0 and 1, and at r = 4**25 all six, are refused as not closed
    dims = {}
    for r in (1.0, 4.0**20, 4.0**25):
        bundle = BundleSpec(MeasureSpace(["w"], [1.0]), [[2, 2]], [[1.0, r]])
        for seed in range(6):
            rng = np.random.default_rng(seed)
            g = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
            h = FiberElement([b + b.conj().T for b in g])
            try:
                dims[r, seed] = validate_subalgebra(bundle, [[h]]).dims
            except InconsistencyError:
                dims[r, seed] = "refused"
    assert dims == dict.fromkeys(dims, (4,))


# ------------------------------------------------------------ construction

def test_full_subalgebra_gives_identity_map(hetero_bundle):
    basis = validate_subalgebra(
        hetero_bundle, [full_units(s) for s in hetero_bundle.fiber_shapes]
    )
    E = ConditionalExpectation(basis)
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
    phi_x = center_trace(x)
    phi_one = center_trace(identity_section(hetero_bundle)).real
    for i, label in enumerate(hetero_bundle.space.labels):
        scale = phi_x[i] / phi_one[i]
        expected = complex(scale) * identity_fiber(hetero_bundle.fiber_shapes[i])
        assert (ex.fiber(label) - expected).max_abs() < 1e-12


def test_expectation_fixes_identity_and_subalgebra(hetero_diag_exp, hetero_bundle):
    one = identity_section(hetero_bundle)
    assert (hetero_diag_exp(one) - one).max_abs() < 1e-12
    y = random_element(hetero_diag_exp.target, 5)
    assert (hetero_diag_exp(y) - y).max_abs() < 1e-12


def test_image_lies_in_target_subalgebra(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        assert membership_residual(hetero_diag_exp.target, hetero_diag_exp(x)) <= 1e-10


def test_module_property(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        a = random_element(hetero_diag_exp.target, 100 + seed)
        b = random_element(hetero_diag_exp.target, 200 + seed)
        lhs = hetero_diag_exp(a * x * b)
        rhs = a * hetero_diag_exp(x) * b
        assert (lhs - rhs).max_abs() < 1e-9


def test_trace_self_adjointness(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 400 + seed, "general")
        lhs = center_trace(hetero_diag_exp(x) * y)
        rhs = center_trace(x * hetero_diag_exp(y))
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
            assert np.all(lp_norm(ex, p) <= lp_norm(x, p) + 1e-9)


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
            sub = ConditionalExpectation(restricted_basis(basis, [label]))
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


def test_contraction_names_keep_fractional_exponents(hetero_diag_exp, monkeypatch):
    monkeypatch.setattr(condexp, "CONTRACTION_EXPONENTS", (1.5,))
    names = set(check_cond_exp_axioms(hetero_diag_exp, 3, 0).residuals)
    assert "lp_contraction_p1.5" in names and "lp_contraction_p1" not in names


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["axioms-large-blocks"])
def test_rank_one_axiom_draws_keep_the_identity_contractive(name, monkeypatch):
    # every axiom draw x made rank 1 per block; E is the identity on the full level.  Spectra
    # from x* x alone read the p = 1 contraction at 4.2e-8 (hetero4_tower), 5.3e-9 (mat2_tower)
    # and 4.2e-8 (axioms-large-blocks); with the rank-deficient lanes solved one-sided
    # (ROADMAP item 5, hard draws) they read 3.6e-15, 4.4e-16 and 1.8e-15
    real = condexp.gaussian_stacks
    monkeypatch.setattr(condexp, "gaussian_stacks", lambda *args: [
        s[:, :, :1] @ s[:, :1, :] for s in real(*args)])
    workload = Path(__file__).resolve().parent.parent / "bench" / "workloads" / f"{name}.json"
    cfg = parse_config(fixture_text(name) if name in FIXTURES else workload.read_text())
    checks, _ = runner.run_condexp_checks(cfg, runner.build_tower(cfg, cfg.build_bundle()))
    (check,) = [c for c in checks if c.name == "condexp/lp_contraction_p1"]
    assert check.passed, check.worst_residual


def test_a_span_the_rank_decision_leaves_open_fails_closure(monkeypatch):
    # under a pivot tolerance of 0.9, e11 and e22 (residual 0.71 of their norm against
    # span{1, e12, e21}) are dropped, so no round grows the span and it stays unclosed
    monkeypatch.setattr(condexp, "ORTHO_PIVOT_TOL", 0.9)
    bundle = BundleSpec(MeasureSpace(["w"], [1.0]), [[2]], [[2.0]])
    e12 = FiberElement([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(InconsistencyError, match="'w' is not closed under \\* and products"):
        validate_subalgebra(bundle, [[e12]])


def test_axiom_report_deterministic(hetero_diag_exp):
    a = check_cond_exp_axioms(hetero_diag_exp, 15, 3)
    b = check_cond_exp_axioms(hetero_diag_exp, 15, 3)
    assert a.to_dict() == b.to_dict()


def test_axiom_report_dict_holds_its_fields_and_is_its_own(hetero_diag_exp):
    rep = check_cond_exp_axioms(hetero_diag_exp, 5, 3)
    payload = rep.to_dict()
    assert payload == {"trials": 5, "seed": 3, "residuals": rep.residuals,
                       "per_fiber_worst": rep.per_fiber_worst}
    payload["residuals"]["idempotence"] = payload["per_fiber_worst"]["w1"] = -1.0
    assert rep.residuals["idempotence"] >= 0.0 and rep.per_fiber_worst["w1"] >= 0.0


@pytest.mark.parametrize("trials", [0, -3])
def test_axiom_report_needs_a_trial(hetero_diag_exp, trials):
    with pytest.raises(UsageError):
        check_cond_exp_axioms(hetero_diag_exp, trials, 0)


def preset_expectation(bundle, level):
    return ConditionalExpectation(validate_subalgebra(bundle, level_generators(bundle, level)))


def config_bundles():
    """The distinct bundles of the fixture configs and of the bench workload configs."""
    workloads = Path(__file__).resolve().parent.parent / "bench" / "workloads"
    docs = [fixture_text(name) for name in sorted(FIXTURES)]
    docs += [path.read_text() for path in sorted(workloads.glob("*.json"))]
    bundles = []
    for doc in docs:
        bundle = parse_config(doc).build_bundle()
        if bundle not in bundles:
            bundles.append(bundle)
    return bundles


@pytest.mark.parametrize("k", [0, 10, -10])
def test_preset_expectations_match_their_closed_forms(k):
    # every preset level is the weighted scalar average or a pinching, on every fiber shape of
    # the configs, also with every trace weight times 4**k (the weights' square roots scale
    # exactly)
    bundles = config_bundles()
    assert {shape for b in bundles for shape in b.fiber_shapes} == {(1,), (2,), (3,), (4,), (5,),
                                                                   (2, 2), (3, 2)}
    for bundle in bundles:
        scaled = BundleSpec(bundle.space, bundle.fiber_shapes,
                            [[c * 4.0**k for c in cs] for cs in bundle.trace_weights])
        xs = [random_section(scaled, seed, "general") for seed in range(5)]
        for level in ("scalars", "diagonal", "block(1,1)", "block(2,1)", "full"):
            E = preset_expectation(scaled, level)
            for x in xs:
                assert (E(x) - closed_form_expectation(scaled, level, x)).max_abs() <= 1e-12


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
def axiom_cases(hetero_bundle, large_blocks_bundle, mat2x8_bundle):
    """Per (bundle, level): E, its 20-trial reference and unchunked stacked reports."""
    cases = {}
    for name, bundle in (("hetero", hetero_bundle), ("large", large_blocks_bundle),
                         ("mat2x8", mat2x8_bundle)):
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


@pytest.mark.parametrize("chunk, trials", [(1, 3), (7, 3), (7, 20), (512, 20)])
def test_axiom_checks_match_one_check_per_level(axiom_cases, monkeypatch, chunk, trials):
    # every level of both bundles in one call; at 3 trials in chunks of 7 and at 20
    # in chunks of 512 a group holds several levels, so case boundaries fall inside it
    cases = [(E, 40 + k) for k, (E, _, _) in enumerate(axiom_cases.values())]
    want = [check_cond_exp_axioms(E, trials, seed).to_dict() for E, seed in cases]
    monkeypatch.setattr(tracelp, "DUALITY_CHUNK", chunk)
    assert [rep.to_dict() for rep in cond_exp_axiom_checks(cases, trials)] == want


@pytest.mark.parametrize("trials", [20, 600])
def test_axiom_trials_draw_from_six_keys(hetero_bundle, stream_log, trials):
    # one stream key per tag, whatever the trial count: x and pos draw 2 * 22
    # values per trial, a, b and y two per basis element, nu one per atom
    E = preset_expectation(hetero_bundle, "block(2,1)")
    stream_log.clear()
    check_cond_exp_axioms(E, trials, 34)
    rank = sum(E.target.dims)
    per_trial = [44, 44, 2 * rank, 2 * rank, 2 * rank, 4]
    assert values_drawn(stream_log) == [trials * w for w in per_trial]


def test_axiom_report_reference_above_chunk_size(hetero_bundle):
    # more trials than one chunk, so the last chunk is partial
    E = preset_expectation(hetero_bundle, "block(2,1)")
    trials = DUALITY_CHUNK + 13
    assert_matches_reference(check_cond_exp_axioms(E, trials, 32),
                             axiom_report_reference(E, trials, 32))


@pytest.mark.parametrize("bundle", ["hetero", "large", "mat2x8"])
def test_fiberwise_agreement_is_zero_on_every_local_map(axiom_cases, bundle):
    # every map here acts fiber by fiber, the perturbed one too: that one is flagged
    # by idempotence, not by locality.  Scaling by a power of two is exact, so E(z x) / z
    # is E(x) bit for bit, at all 8 powers of two of the mat2x8 bundle too
    for (name, level), (E, want, whole) in axiom_cases.items():
        if name != bundle:
            continue
        assert whole["residuals"]["fiberwise_agreement"] == 0.0
        assert want.residuals["fiberwise_agreement"] == 0.0
        if level == "perturbed":
            assert whole["residuals"]["idempotence"] > 1.0


@pytest.mark.parametrize("bundle, source, target", [("hetero_bundle", 0, 3),
                                                    ("mat2x8_bundle", 6, 7),
                                                    ("mat2x64_bundle", 0, 1)],
                         ids=["hetero", "mat2x8", "mat2x64"])
def test_fiberwise_agreement_catches_a_map_that_mixes_atoms(request, monkeypatch, bundle,
                                                            source, target):
    # the leak adds 1e-3 of the projected block ``source`` to block ``target``: on hetero the
    # Mat2 block of w1 to the first Mat2 block of w3, on mat2x8 atom v6 to atom v7 only, where
    # it reads z_6 / z_7 - 1 = -1/2 times it.  On mat2x64, atom v0 to v1 reads z_0 / z_1 - 1
    # too; read as E(z x) - z E(x), without the division by z_1 = 2**-31, it passed at 5e-13
    bundle = request.getfixturevalue(bundle)
    real = condexp._project

    def leaky(projectors, blocks):
        out = real(projectors, blocks)
        assert [p.shape for p in projectors] == list(bundle.fiber_shapes)
        out[target] = out[target] + 1e-3 * out[source]
        return out

    monkeypatch.setattr(condexp, "_project", leaky)
    for level in PRESET_LEVELS:  # each reads exactly 0.0 unpatched (the test above)
        E = preset_expectation(bundle, level)
        residual = check_cond_exp_axioms(E, 20, 31).residuals["fiberwise_agreement"]
        assert residual > DEFAULT_TOLERANCES["condexp_axioms"]


def test_expectation_commutes_with_adjoint(hetero_diag_exp, hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        lhs = hetero_diag_exp(x.adjoint())
        rhs = hetero_diag_exp(x).adjoint()
        assert (lhs - rhs).max_abs() < 1e-10


def test_random_subalgebra_element_lies_in_span(hetero_diag_exp):
    y = random_element(hetero_diag_exp.target, 123)
    assert membership_residual(hetero_diag_exp.target, y) < 1e-10


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
