import copy
import json

import numpy as np
import pytest

from tracebundle import (
    BundleSpec,
    FiberElement,
    InconsistencyError,
    MartingaleSeq,
    MeasureSpace,
    ShapeMismatchError,
    UnsupportedConfigurationError,
    UsageError,
    build_filtration,
    center_sup,
    cesaro_equivalence,
    derive_seed,
    double_sequence_check,
    identity_section,
    lp_norm,
    martingale_defect,
    martingale_from_target,
    martingale_limit,
    random_section,
    sup_norm_comparison,
    weighted_averages,
)
from tracebundle import condexp, martingale, runner
from tracebundle.condexp import SubalgebraBasis
from tracebundle.config import parse_config
from tracebundle.fixtures import FIXTURES, fixture_config
from tracebundle.martingale import MARTINGALE_TOL, Filtration
from tracebundle.runner import run_experiment
from tracebundle.towers import level_generators
from tracebundle.tracelp import lp_norms, section_stacks

from oracles import (
    cesaro_traces_reference,
    closure_residual_reference,
    martingale_phase_reference,
    composition_residual_reference,
    inclusion_residual_reference,
    running_means_reference,
    write_trace_csv_reference,
)


def tower(bundle, *specs):
    return build_filtration(bundle, [level_generators(bundle, s) for s in specs])


@pytest.fixture(scope="module")
def mat2_tower(mat2_bundle):
    return tower(mat2_bundle, "scalars", "diagonal", "full")


@pytest.fixture(scope="module")
def hetero_tower(hetero_bundle):
    return tower(hetero_bundle, "scalars", "diagonal", "block(1,1)", "full")


MAT4_SPECS = ("scalars", "diagonal", "block(1,1,2)", "block(2,2)", "full")


@pytest.fixture(scope="module")
def mat4_tower():
    bundle = BundleSpec(MeasureSpace(["w"], [1.0]), [[4]], [[0.25]])
    return tower(bundle, *MAT4_SPECS)


# ----------------------------------------------------------------- building

def test_mat2_tower_dimension_ladder(mat2_tower):
    assert [t.dims for t in mat2_tower.tower] == [(1,), (2,), (4,)]
    assert mat2_tower.terminal_is_full
    assert mat2_tower.inclusion_residual <= 1e-10
    assert mat2_tower.composition_residual <= 1e-9


def test_trivial_single_level_tower(mat2_bundle):
    f = tower(mat2_bundle, "full")
    assert f.depth == 1
    assert f.terminal_is_full


def test_depth5_refinement_tower():
    bundle = BundleSpec(MeasureSpace(["w"], [1.0]), [[4]], [[0.25]])
    f = tower(bundle, "scalars", "diagonal", "block(1,1,2)", "block(2,2)", "full")
    assert [t.dims for t in f.tower] == [(1,), (4,), (6,), (8,), (16,)]
    assert f.inclusion_residual <= 1e-10
    assert f.composition_residual <= 1e-9
    assert f.terminal_is_full


def test_hetero_tower_is_nested(hetero_tower):
    dims = [t.dims for t in hetero_tower.tower]
    for lower, upper in zip(dims, dims[1:]):
        assert all(a <= b for a, b in zip(lower, upper))
    assert hetero_tower.terminal_is_full


def test_empty_tower_rejected(mat2_bundle):
    with pytest.raises(UsageError):
        build_filtration(mat2_bundle, [])


def test_a_one_sequence_call_refuses_a_section_of_another_bundle(mat2_tower, hetero_bundle):
    x = identity_section(hetero_bundle)
    with pytest.raises(ShapeMismatchError, match="section lives on a different bundle"):
        martingale_defect([x, x], mat2_tower)


# ------------------------------------ tower checks against the per-element loops

TOWER_SPECS = {
    "mat2": ("scalars", "diagonal", "full"),
    "hetero": ("scalars", "diagonal", "block(1,1)", "full"),
    "large_blocks": ("scalars", "diagonal", "block(2,1)", "full"),
}


def push_off_span(basis, column=-1, seed=9):
    """A copy of ``basis`` with one ``ortho`` column per atom moved O(1) off its span."""
    rng = np.random.default_rng(seed)
    projectors = []
    for p in basis.projectors:
        q = p.copy()
        q.ortho = p.ortho.copy()
        d = len(q.ortho)
        q.ortho[:, column] += 0.1 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        projectors.append(q)
    return SubalgebraBasis(basis.bundle, basis.generators, projectors)


# ------------------------------------------- levels extended from the one below

def generator_bits(basis):
    return [[b"".join(b.tobytes() for b in g.blocks) for g in gens] for gens in basis.generators]


@pytest.mark.parametrize("name", [*TOWER_SPECS, "mat4"])
def test_tower_levels_equal_from_scratch_validation(name, request):
    # each level goes on from the validated level below, and gets the bases, closure
    # residual and generators of validating all generators up to it from scratch
    f = request.getfixturevalue(f"{name}_tower") if name == "mat4" else tower(
        request.getfixturevalue(f"{name}_bundle"), *TOWER_SPECS[name])
    bundle, specs = f.bundle, TOWER_SPECS.get(name, MAT4_SPECS)
    accumulated = [()] * bundle.space.size
    for level, spec in zip(f.tower, specs):
        accumulated = [a + tuple(g) for a, g in zip(accumulated, level_generators(bundle, spec))]
        scratch = condexp.validate_subalgebra(bundle, accumulated)
        assert all(p.ortho.tobytes() == q.ortho.tobytes()
                   for p, q in zip(level.projectors, scratch.projectors))
        assert level.closure_residual == scratch.closure_residual
        assert generator_bits(level) == generator_bits(scratch)


def test_extending_a_level_leaves_the_level_below_as_it_was(hetero_bundle):
    # the extension goes on from copies of the projectors below: their spans, accepted
    # elements and tried candidates stay the level's own
    below = condexp.validate_subalgebra(hetero_bundle, level_generators(hetero_bundle, "diagonal"))
    state = [(p.ortho.tobytes(), len(p.accepted), set(p.tried), p.closure)
             for p in below.projectors]
    above = condexp.validate_subalgebra(below, level_generators(hetero_bundle, "full"))
    assert above.dims == hetero_bundle.algebra_dims() != below.dims
    assert [(p.ortho.tobytes(), len(p.accepted), p.tried, p.closure)
            for p in below.projectors] == state


def test_explicit_tower_matches_from_scratch_projectors():
    # explicit generators that need product rounds: the level below was closed first, so
    # the bases differ in their bits, but they span the same algebras
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    diag_ab = np.zeros((3, 3), dtype=np.complex128)
    diag_ab[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    diag_ab[2, 2] = 0.7 - 0.2j
    bundle = BundleSpec(MeasureSpace(["m", "s"], [1.0, 2.0]), [[3], [2]], [[1 / 3], [0.5]])
    flip = FiberElement([np.array([[0.0, 1.0], [1.0, 0.0]])])
    shift = FiberElement([np.array([[0.0, 1.0], [0.0, 0.0]])])
    levels = [[[FiberElement([diag_ab])], [flip]], [[FiberElement([g + g.conj().T])], [shift]]]
    f = build_filtration(bundle, levels)
    assert [t.dims for t in f.tower] == [(5, 2), (9, 4)]
    accumulated = [()] * bundle.space.size
    for level, gens in zip(f.tower, levels):
        accumulated = [a + tuple(new) for a, new in zip(accumulated, gens)]
        scratch = condexp.validate_subalgebra(bundle, accumulated)
        assert level.dims == scratch.dims
        for p, q in zip(level.projectors, scratch.projectors):
            gap = p.ortho @ p.ortho.conj().T - q.ortho @ q.ortho.conj().T
            assert np.abs(gap).max() <= 1e-12


def test_tower_validates_each_level_once_and_tries_no_candidate_twice(hetero_bundle, monkeypatch):
    specs = ("scalars", "diagonal", "block(1,1)", "full")
    calls, tried = [], []
    real, extend = martingale.validate_subalgebra, condexp._FiberProjector.try_extend

    def validate(below, generators):
        calls.append(below)
        return real(below, generators)

    def recording(proj, f):
        tried.append((proj.shape, b"".join(b.tobytes() for b in f.blocks)))
        return extend(proj, f)

    monkeypatch.setattr(martingale, "validate_subalgebra", validate)
    monkeypatch.setattr(condexp._FiberProjector, "try_extend", recording)
    f = tower(hetero_bundle, *specs)
    assert calls == [hetero_bundle, *f.tower[:-1]]
    assert len(tried) == len(set(tried))  # each atom's candidates are tried once per tower


@pytest.mark.parametrize("broken", [False, True], ids=["valid", "broken"])
@pytest.mark.parametrize("name", list(TOWER_SPECS))
def test_tower_checks_match_per_element_loops(name, broken, request):
    levels = tower(request.getfixturevalue(f"{name}_bundle"), *TOWER_SPECS[name]).tower
    # closure is per level: when broken, every level is measured with its first
    # (the identity) or its last column pushed off its span
    bases = [push_off_span(level, c) for level in levels for c in (0, -1)] if broken else levels
    projectors = [p for basis in bases for p in basis.projectors]
    if broken:
        levels[1] = push_off_span(levels[1])
    inclusion, composition = martingale._tower_residuals(levels)
    closures = np.array([condexp._closure_residual(p) for p in projectors])
    assert abs(inclusion - inclusion_residual_reference(levels)) <= 1e-14
    assert abs(composition - composition_residual_reference(levels)) <= 1e-14
    assert np.abs(closures - [closure_residual_reference(p) for p in projectors]).max() <= 1e-14
    if broken:  # residuals of O(1) that the build tolerances reject
        assert min(inclusion, composition, closures.max()) > 1e-2
    else:
        assert inclusion <= 1e-10 and composition <= 1e-9 and closures.max() <= 1e-9


@pytest.mark.parametrize("specs, broken_call, message", [
    (("scalars", "diagonal", "full"), 2, "tower inclusion residual"),
    (("diagonal",), 1, "tower composition residual"),  # one level: E E = E fails
])
def test_build_filtration_rejects_broken_tower(hetero_bundle, monkeypatch, specs, broken_call,
                                               message):
    # level broken_call is measured with a column pushed off its span; each level is
    # extended from the validated one below, so the push goes into the measurement only
    real = martingale._tower_residuals

    def measure(levels):
        return real([push_off_span(t) if k + 1 == broken_call else t for k, t in enumerate(levels)])

    monkeypatch.setattr(martingale, "_tower_residuals", measure)
    with pytest.raises(InconsistencyError, match=message):
        tower(hetero_bundle, *specs)


# ----------------------------------------------------- canonical martingales

def test_target_in_first_level_gives_constant_sequence(mat2_tower, mat2_bundle):
    x = 3.25 * identity_section(mat2_bundle)  # scalar section lies in M_1
    seq = martingale_from_target(x, mat2_tower)
    for x_n in seq.elements:
        assert (x_n - x).max_abs() < 1e-12


def test_identity_target_gives_constant_identity(hetero_tower, hetero_bundle):
    one = identity_section(hetero_bundle)
    seq = martingale_from_target(one, hetero_tower)
    for x_n in seq.elements:
        assert (x_n - one).max_abs() < 1e-12


def test_residuals_decrease_and_vanish(mat2_tower, mat2_bundle):
    for seed in range(20):
        x = random_section(mat2_bundle, seed, "general")
        seq = martingale_from_target(x, mat2_tower, p=2)
        res = [lp_norm(x_n - x, 2).values for x_n in seq.elements]
        for a, b in zip(res, res[1:]):
            assert np.all(b <= a + 1e-12)
        assert res[-1].max() <= 1e-10
        # nested-projection Pythagoras oracle at p = 2
        nx = lp_norm(x, 2).values ** 2
        for x_n, r in zip(seq.elements, res):
            drift = np.abs(nx - lp_norm(x_n, 2).values ** 2 - r**2)
            assert drift.max() < 1e-8


def test_martingale_norms_bounded_by_target(hetero_tower, hetero_bundle):
    for seed in range(5):
        x = random_section(hetero_bundle, seed, "general")
        seq = martingale_from_target(x, hetero_tower, p=3)
        for p in (1.0, 2.0, 3.0, 4.0):
            bound = lp_norm(x, p).values
            sup = center_sup([lp_norm(x_n, p) for x_n in seq.elements])
            assert np.all(sup.values <= bound + 1e-9)


def test_norm_monotone_along_tower(hetero_tower, hetero_bundle):
    for seed in range(5):
        x = random_section(hetero_bundle, seed, "general")
        seq = martingale_from_target(x, hetero_tower)
        for p in (1.0, 2.0, 3.0, 4.0):
            norms = [lp_norm(x_n, p).values for x_n in seq.elements]
            for a, b in zip(norms, norms[1:]):
                assert np.all(a <= b + 1e-9)


# ------------------------------------------------------------- the property

def test_from_target_is_martingale(hetero_tower, hetero_bundle):
    x = random_section(hetero_bundle, 31, "general")
    seq = martingale_from_target(x, hetero_tower)
    assert martingale_defect(seq.elements, hetero_tower) <= 1e-9


def test_constant_sequence_is_martingale(mat2_tower, mat2_bundle):
    one = identity_section(mat2_bundle)
    assert martingale_defect([one, one, one], mat2_tower) <= MARTINGALE_TOL
    # a constant general section is exact only when it lies in every level
    assert martingale_defect([one, one, one], mat2_tower) < 1e-14


def test_perturbed_sequence_is_not_martingale(mat2_tower, mat2_bundle):
    x = random_section(mat2_bundle, 32, "general")
    seq = martingale_from_target(x, mat2_tower)
    # bump the second element off the M_1-measurable part
    h = random_section(mat2_bundle, 33, "hermitian")
    h = h - mat2_tower.cond_exps[0](h)  # not M_1-measurable
    elements = [seq.elements[0], seq.elements[1] + 1e-3 * h, seq.elements[2]]
    assert martingale_defect(elements, mat2_tower) > 1e-5
    with pytest.raises(UsageError):
        MartingaleSeq(mat2_tower, elements)


def test_defect_is_measured_once_and_kept(mat2_tower, mat2_bundle):
    x = random_section(mat2_bundle, 34, "general")
    seq = martingale_from_target(x, mat2_tower)
    assert isinstance(seq.elements, tuple)
    assert seq.defect == martingale_defect(seq.elements, mat2_tower)
    assert seq.defect <= 1e-9
    h = random_section(mat2_bundle, 35, "hermitian")
    h = h - mat2_tower.cond_exps[0](h)
    bumped = [seq.elements[0], seq.elements[1] + 1e-3 * h, seq.elements[2]]
    kept = MartingaleSeq(mat2_tower, bumped, check=False)
    assert kept.defect == martingale_defect(bumped, mat2_tower) > 1e-5


def test_more_elements_than_levels_rejected(mat2_tower, mat2_bundle):
    one = identity_section(mat2_bundle)
    with pytest.raises(UsageError, match="more elements than tower levels"):
        MartingaleSeq(mat2_tower, [one] * 4, check=False)
    with pytest.raises(UsageError, match="at least one element"):
        MartingaleSeq(mat2_tower, [])


# -------------------------------------------------------------------- limits

def test_limit_recovers_target(hetero_tower, hetero_bundle):
    x = random_section(hetero_bundle, 41, "general")
    seq = martingale_from_target(x, hetero_tower, p=2)
    lim = martingale_limit(seq)
    assert (lim.limit - x).max_abs() <= 1e-10
    assert lim.reconstruction_residual <= 1e-9
    assert lim.residual_trace[-1] <= 1e-10


def test_limit_of_constant_martingale(mat2_tower, mat2_bundle):
    one = identity_section(mat2_bundle)
    seq = MartingaleSeq(mat2_tower, [one, one, one])
    lim = martingale_limit(seq)
    assert (lim.limit - one).max_abs() == 0.0
    assert lim.residual_trace == [0.0, 0.0, 0.0]


def test_limit_refuses_a_broken_reconstruction(mat2_tower, mat2_bundle):
    # the one-sequence library calls keep their refusals; the stacked checks only measure
    x = random_section(mat2_bundle, 36, "general")
    seq = martingale_from_target(x, mat2_tower)
    h = random_section(mat2_bundle, 37, "hermitian")
    h = h - mat2_tower.cond_exps[0](h)
    bumped = [seq.elements[0], seq.elements[1] + 1e-3 * h, seq.elements[2]]
    broken = MartingaleSeq(mat2_tower, bumped, check=False)
    with pytest.raises(InconsistencyError, match="limit reconstruction residual"):
        martingale_limit(broken)
    checks = martingale.martingale_checks(mat2_tower, [section_stacks([e]) for e in bumped],
                                          limit=True)
    assert checks.recon[0] > 1e-5 and checks.defect[0] > 1e-5


def test_limit_requires_full_terminal(mat2_bundle):
    shallow = tower(mat2_bundle, "scalars", "diagonal")
    assert not shallow.terminal_is_full
    x = random_section(mat2_bundle, 42, "general")
    seq = martingale_from_target(x, shallow)
    with pytest.raises(UnsupportedConfigurationError):
        martingale_limit(seq)


def test_limit_requires_terminal_element(hetero_tower, hetero_bundle):
    x = random_section(hetero_bundle, 43, "general")
    seq = martingale_from_target(x, hetero_tower)
    short = MartingaleSeq(hetero_tower, seq.elements[:-1])
    with pytest.raises(UsageError):
        martingale_limit(short)


# ----------------------------------------------------------- double sequence

def test_double_sequence_constant_input(hetero_tower, hetero_bundle):
    x = random_section(hetero_bundle, 51, "general")
    rep = double_sequence_check([x, x, x], x, hetero_tower, p=2)
    # every row equals the tower residuals when x_n = x
    for row in rep.grid:
        assert np.abs(np.array(row) - np.array(rep.tower_residuals)).max() < 1e-12
    assert rep.corner <= 1e-10
    assert rep.corner_ok


def test_double_sequence_shrinking_perturbation(hetero_tower, hetero_bundle):
    x = random_section(hetero_bundle, 52, "general")
    h = random_section(hetero_bundle, 53, "hermitian")
    xs = [x + (1.0 / n) * h for n in range(1, 21)]
    rep = double_sequence_check(xs, x, hetero_tower, p=2)
    assert rep.corner_ok
    assert rep.triangle_violation <= 1e-9
    assert rep.bound_monotone_ok
    assert rep.corner <= rep.sequence_residuals[-1] + rep.tower_residuals[-1] + 1e-9
    payload = rep.to_dict()
    assert len(payload["grid"]) == 20


def test_double_sequence_requires_full_terminal(mat2_bundle):
    shallow = tower(mat2_bundle, "scalars", "diagonal")
    x = random_section(mat2_bundle, 54, "general")
    with pytest.raises(UnsupportedConfigurationError):
        double_sequence_check([x], x, shallow, p=2)


def test_double_sequence_needs_a_sequence(mat2_tower, mat2_bundle):
    with pytest.raises(UsageError, match="empty sequence"):
        double_sequence_check([], random_section(mat2_bundle, 55, "general"), mat2_tower, p=2)


# ------------------------------------------------------------------ averages

def test_averages_of_constant_martingale(mat2_tower, mat2_bundle):
    one = identity_section(mat2_bundle)
    seq = MartingaleSeq(mat2_tower, [one, one, one])
    for sigma in weighted_averages(seq, [1.0, 1.0, 1.0]):
        assert (sigma - one).max_abs() < 1e-15


def test_uniform_weights_give_arithmetic_mean(mat2_tower, mat2_bundle):
    x = random_section(mat2_bundle, 61, "general")
    seq = martingale_from_target(x, mat2_tower)
    sigmas = weighted_averages(seq, [1.0, 1.0, 1.0])
    mean = (1.0 / 3.0) * (seq.elements[0] + seq.elements[1] + seq.elements[2])
    assert (sigmas[-1] - mean).max_abs() < 1e-12


def test_averages_match_naive_summation_oracle(hetero_tower, hetero_bundle):
    x = random_section(hetero_bundle, 62, "general")
    seq = martingale_from_target(x, hetero_tower)
    w = [float(k + 1) for k in range(len(seq))]
    sigmas = weighted_averages(seq, w)
    for n in range(1, len(seq) + 1):
        total = sum(w[:n])
        acc = None
        for k in range(n):
            term = w[k] * seq.elements[k]
            acc = term if acc is None else acc + term
        naive = (1.0 / total) * acc
        assert (sigmas[n - 1] - naive).max_abs() < 1e-12


def test_weight_validation(mat2_tower, mat2_bundle):
    x = random_section(mat2_bundle, 63, "general")
    seq = martingale_from_target(x, mat2_tower)
    with pytest.raises(UsageError):
        weighted_averages(seq, [1.0, -1.0, 1.0])
    with pytest.raises(UsageError):
        weighted_averages(seq, [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_weight_validation_covers_the_whole_list(mat2_tower, mat2_bundle, bad):
    # a bad weight past the first len(seq), inside the held range or past it
    x = random_section(mat2_bundle, 63, "general")
    seq = martingale_from_target(x, mat2_tower)
    w = [1.0] * (len(seq) + 5)
    w[len(seq) + 2] = bad
    with pytest.raises(UsageError, match="finite and strictly positive"):
        weighted_averages(seq, w)
    for extend_by in (0, 5):
        with pytest.raises(UsageError, match="finite and strictly positive"):
            sup_norm_comparison(seq, w, p=2, extend_by=extend_by)
        with pytest.raises(UsageError, match="finite and strictly positive"):
            cesaro_equivalence(seq, w, p=2, tol=1e-2, extend_by=extend_by)


def test_sigma_domination(hetero_tower, hetero_bundle):
    for seed in range(5):
        x = random_section(hetero_bundle, seed, "general")
        seq = martingale_from_target(x, hetero_tower)
        sigmas = weighted_averages(seq, [1.0] * len(seq))
        for p in (1.0, 2.0, 3.0):
            bound = center_sup([lp_norm(x_n, p) for x_n in seq.elements])
            for sigma in sigmas:
                assert np.all(lp_norm(sigma, p).values <= bound.values + 1e-9)


# ------------------------------------------------------------- sup equality

def test_sup_comparison_constant(mat2_tower, mat2_bundle):
    one = identity_section(mat2_bundle)
    seq = MartingaleSeq(mat2_tower, [one, one, one])
    sup_x, sup_sigma, gap = sup_norm_comparison(seq, [1.0] * 3, p=2)
    assert np.abs(gap.values).max() < 1e-14


def test_sup_comparison_heavy_tail_weight(mat2_bundle):
    two_level = tower(mat2_bundle, "diagonal", "full")
    x = random_section(mat2_bundle, 71, "general")
    seq = martingale_from_target(x, two_level, p=2)
    sup_x, sup_sigma, gap = sup_norm_comparison(seq, [1.0, 1e6], p=2)
    scale = lp_norm(x, 2).values
    assert np.all(gap.values <= 1e-5 * scale)
    assert np.all(sup_sigma.values <= sup_x.values + 1e-9)


def test_sup_gap_vanishes_under_extension(mat2_bundle):
    two_level = tower(mat2_bundle, "diagonal", "full")
    for seed in range(20):
        x = random_section(mat2_bundle, seed, "general")
        seq = martingale_from_target(x, two_level, p=2)
        w = [1.0] * (len(seq) + 1000)
        sup_x, sup_sigma, gap = sup_norm_comparison(seq, w, p=2, extend_by=1000)
        assert np.all(sup_sigma.values <= sup_x.values + 1e-9)
        assert np.all(gap.values <= 1e-3 * sup_x.values)


# ---------------------------------------------------------------- the cesaro

def test_cesaro_constant_martingale(mat2_tower, mat2_bundle):
    one = identity_section(mat2_bundle)
    seq = MartingaleSeq(mat2_tower, [one, one, one])
    rep = cesaro_equivalence(seq, [1.0] * 3, p=2, tol=1e-12)
    assert rep.verdict == "both"
    assert max(rep.element_trace) == 0.0
    assert max(rep.average_trace) == 0.0


def test_cesaro_full_tower_converges_both(mat2_tower, mat2_bundle):
    x = random_section(mat2_bundle, 81, "general")
    seq = martingale_from_target(x, mat2_tower, p=2)
    w = [1.0] * (len(seq) + 1000)
    rep = cesaro_equivalence(seq, w, p=2, tol=1e-2, extend_by=1000)
    assert rep.verdict == "both"
    assert rep.element_trace[-1] <= 1e-2
    assert rep.average_trace[-1] <= 1e-2
    assert rep.to_dict()["verdict"] == "both"


def test_cesaro_deeper_tower_converges_both(hetero_tower, hetero_bundle):
    # averaged residual scales with tower depth: tolerance widened accordingly
    x = random_section(hetero_bundle, 81, "general")
    seq = martingale_from_target(x, hetero_tower, p=2)
    w = [1.0] * (len(seq) + 1000)
    rep = cesaro_equivalence(seq, w, p=2, tol=5e-2, extend_by=1000)
    assert rep.verdict == "both"


def test_cesaro_refuses_non_martingale(mat2_tower, mat2_bundle):
    x = random_section(mat2_bundle, 82, "general")
    seq = martingale_from_target(x, mat2_tower)
    h = random_section(mat2_bundle, 83, "hermitian")
    h = h - mat2_tower.cond_exps[0](h)
    broken = MartingaleSeq(
        mat2_tower,
        [seq.elements[0], seq.elements[1] + 1e-2 * h, seq.elements[2]],
        check=False,
    )
    with pytest.raises(UsageError):
        cesaro_equivalence(broken, [1.0] * 3, p=2, tol=1e-2)


def test_cesaro_reports_the_limit_it_verified(hetero_tower, hetero_bundle):
    x = random_section(hetero_bundle, 84, "general")
    seq = martingale_from_target(x, hetero_tower, p=2)
    rep = cesaro_equivalence(seq, [1.0] * (len(seq) + 5), p=2, tol=5e-2, extend_by=5)
    direct = martingale_limit(seq)
    assert rep.limit.limit is seq.elements[-1]
    assert rep.limit.to_dict() == direct.to_dict()
    assert set(rep.to_dict()) == {"p", "tol", "verdict", "element_trace", "average_trace"}


def _explicit_held_means(seq, w, extend_by):
    """Reference running means over an explicitly held list of elements."""
    held = list(seq.elements) + [seq.elements[-1]] * extend_by
    out, running, total = [], None, 0.0
    for x_k, w_k in zip(held, w):
        running = w_k * x_k if running is None else running + w_k * x_k
        total += w_k
        out.append((1.0 / total) * running)
    return out


@pytest.mark.parametrize("weights", ["uniform", "linear"])
@pytest.mark.parametrize("which", ["hetero", "mat4"])
def test_held_tail_closed_form_matches_explicit_means(which, weights, request):
    f = request.getfixturevalue(f"{which}_tower")
    n_ext = 1000
    x = random_section(f.bundle, 86, "general")
    seq = martingale_from_target(x, f, p=2)
    k = len(seq)
    steps = k + n_ext
    w = [1.0] * steps if weights == "uniform" else [float(n + 1) for n in range(steps)]
    sigmas = _explicit_held_means(seq, w, n_ext)
    y = seq.elements[-1]
    offsets = [s - y for s in sigmas]
    for p in (1.0, 2.0, 3.0):
        rep = cesaro_equivalence(seq, w, p=p, tol=1.0, extend_by=n_ext)
        got = np.array(rep.average_trace_per_atom)
        want = lp_norms(offsets, p)
        assert got.shape == want.shape == (steps, f.bundle.space.size)
        assert np.array_equal(got[:k], want[:k])
        assert np.all(np.abs(got[k:] - want[k:]) <= 1e-12 * lp_norm(x, p).values)
        assert rep.element_trace[k - 1:] == [0.0] * (n_ext + 1)
        assert np.array_equal(rep.element_trace_per_atom[k:], np.zeros((n_ext, f.bundle.space.size)))
        _, sup_sigma, _ = sup_norm_comparison(seq, w, p, extend_by=n_ext)
        ref_sup = lp_norms(sigmas, p).max(axis=0)
        assert np.all(np.abs(sup_sigma.values - ref_sup) <= 1e-13 * ref_sup)


def _held_tail_config(name, weights, extension):
    doc = copy.deepcopy(FIXTURES[name]) if isinstance(name, str) else name
    doc["extension"] = extension
    steps = len(doc["tower"]) + extension
    # non-integer explicit weights, whose partial sums depend on the summation order
    doc["weights"] = (np.random.default_rng(14).uniform(0.1, 3.0, steps).tolist()
                      if weights == "explicit" else weights)
    return parse_config(json.dumps(doc))


@pytest.mark.parametrize("extension", [0, 1000])
@pytest.mark.parametrize("weights", ["uniform", "linear", "explicit"])
@pytest.mark.parametrize("name", ["hetero4_tower", "mat2_tower"])
def test_held_tail_arrays_match_per_step_reference(name, weights, extension, tmp_path):
    cfg = _held_tail_config(name, weights, extension)
    f = runner.build_tower(cfg, cfg.build_bundle())
    _, traces, _ = runner.run_martingale_checks(cfg, f)
    rows = []
    for s, (tag, labels, xa, sa) in enumerate(traces):
        x = random_section(f.bundle, derive_seed(cfg.seed, "mart-x", s), "general")
        seq = martingale_from_target(x, f, p=2.0)
        y = seq.elements[-1]
        w = cfg.weight_list(len(seq) + extension)
        ref_sigmas, ref_ratios = running_means_reference(seq.elements, w, extension)
        stacks = [section_stacks([e]) for e in seq.elements]
        assert martingale._running_means(stacks, w, extension)[1].tolist() == ref_ratios
        for p in (1.0, 2.0, 3.0):
            rep = cesaro_equivalence(seq, w, p, tol=1.0, extend_by=extension)
            ref_xa, ref_sa = cesaro_traces_reference(seq, w, p, extension)
            assert rep.element_trace_per_atom.tolist() == ref_xa
            assert rep.average_trace_per_atom.tolist() == ref_sa
            assert rep.element_trace == [max(r) for r in ref_xa]
            assert rep.average_trace == [max(r) for r in ref_sa]
            ends = ref_sigmas + [y + r * (ref_sigmas[-1] - y) for r in ref_ratios[-1:]]
            sup = sup_norm_comparison(seq, w, p, extend_by=extension)
            assert np.array_equal(sup[1].values,
                                  center_sup([lp_norm(e, p) for e in ends]).values)
            assert all(np.array_equal(a.values, b.values) for a, b in zip(rep.sup_comparison, sup))
        ref_xa, ref_sa = cesaro_traces_reference(seq, w, 2.0, extension)
        assert xa.tolist() == ref_xa and sa.tolist() == ref_sa
        rows += [(tag, n, label, rx, rs)
                 for n, (xv, sv) in enumerate(zip(ref_xa, ref_sa), start=1)
                 for label, rx, rs in zip(labels, xv, sv)]
    assert len(rows) == len(traces) * (len(f.tower) + extension) * f.bundle.space.size
    runner.write_trace_csv(str(tmp_path / "traces.csv"), traces)
    write_trace_csv_reference(str(tmp_path / "reference.csv"), rows)
    assert (tmp_path / "traces.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def bits(values) -> bytes:
    return np.asarray(values).tobytes()


@pytest.mark.parametrize("exponents", [[1], [2], [1.5, 3]], ids=lambda e: "p=" + ",".join(map(str, e)))
@pytest.mark.parametrize("extension", [0, 1000])
@pytest.mark.parametrize("weights", ["uniform", "linear", "explicit"])
@pytest.mark.parametrize("name", ["hetero4_tower", "mat2_tower"])
def test_stacked_phase_equals_the_per_seed_reference(name, weights, extension, exponents):
    doc = copy.deepcopy(FIXTURES[name])
    doc["exponents"] = exponents
    cfg = _held_tail_config(doc, weights, extension)
    f = runner.build_tower(cfg, cfg.build_bundle())
    checks, traces, limit = runner.run_martingale_checks(cfg, f)
    worst, ref_traces, ref_limit = martingale_phase_reference(cfg, f)
    assert [c.name for c in checks] == list(worst)
    assert bits([c.worst_residual for c in checks]) == bits(list(worst.values()))
    assert len(traces) == len(ref_traces) == cfg.trials["martingale_seeds"]
    for (tag, labels, xa, sa), (ref_tag, ref_labels, ref_xa, ref_sa) in zip(traces, ref_traces):
        assert (tag, labels) == (ref_tag, ref_labels)
        assert bits(xa) == bits(ref_xa) and bits(sa) == bits(ref_sa)
    ref_blocks = [b for f_b in ref_limit.fibers for b in f_b.blocks]
    assert len(limit) == len(ref_blocks)
    assert all(bits(a) == bits(b) for a, b in zip(limit, ref_blocks))


def test_depth_one_tower_has_no_defect_differences(mat2_bundle):
    # a one-level tower: no E_n(x_{n+1}) - x_n to measure, and the pass still runs
    f = tower(mat2_bundle, "full")
    x = section_stacks([random_section(mat2_bundle, s, "general") for s in range(3)])
    checks = martingale.martingale_checks(f, [x], 1.5, limit=True, w=[1.0] * 4, extend_by=3,
                                          target=x)
    assert bits(checks.defect) == bits(np.zeros(3))
    assert checks.xa.shape == checks.sa.shape == (3, 4, 1)
    assert checks.recon.max() <= 1e-12 and checks.terminal.max() <= 1e-12


def test_one_defect_and_one_limit_per_seed(monkeypatch, tmp_path):
    # one stacked martingale_checks pass measures every seed's defect and limit; the
    # one-sequence martingale_defect and martingale_limit are not called
    calls = dict.fromkeys(["martingale_checks", "martingale_defect", "martingale_limit",
                           "cesaro_equivalence", "sup_norm_comparison"], 0)
    results = []
    for name in calls:
        def counted(*args, _fn=getattr(martingale, name), _name=name, **kwargs):
            calls[_name] += 1
            out = _fn(*args, **kwargs)
            if _name == "martingale_checks":
                results.append(out)
            return out

        monkeypatch.setattr(martingale, name, counted)
        monkeypatch.setattr(runner, name, counted, raising=False)
    cfg = fixture_config("mat2_tower")
    seeds = cfg.trials["martingale_seeds"]
    assert seeds > 1
    run_experiment(cfg, str(tmp_path), parts=("martingale",))
    assert calls == {"martingale_checks": 1, "martingale_defect": 0, "martingale_limit": 0,
                     "cesaro_equivalence": 0, "sup_norm_comparison": 0}
    (r,) = results
    assert r.defect.shape == r.recon.shape == r.terminal.shape == (seeds,)


def test_one_running_means_pass_per_seed(monkeypatch, tmp_path):
    # the sup comparison comes with the cesaro report, from the same running means, and
    # the running means of all seeds are one pass over their stacked lanes
    calls = []
    real = martingale._running_means
    monkeypatch.setattr(martingale, "_running_means", lambda *a: calls.append(a) or real(*a))
    cfg = fixture_config("hetero4_tower")
    seeds = cfg.trials["martingale_seeds"]
    assert seeds > 1
    run_experiment(cfg, str(tmp_path), parts=("martingale",))
    (args,) = calls
    assert all(len(block) == seeds for step in args[0] for block in step)


def test_terminal_residual_measures_the_target(monkeypatch):
    # each seed's martingale generated by x - d with d = z - E_{K-1}(z): every level below
    # the top and the martingale property stay, and only the terminal element misses x
    cfg = fixture_config("hetero4_tower")
    f = runner.build_tower(cfg, cfg.build_bundle())
    z = random_section(f.bundle, 91, "general")
    d = z - f.cond_exps[f.depth - 2](z)
    real, shift = runner._project, section_stacks([d])
    monkeypatch.setattr(runner, "_project",
                        lambda projectors, x: real(projectors, [b - s for b, s in zip(x, shift)]))
    checks, _, _ = runner.run_martingale_checks(cfg, f)
    worst = {c.name: c.worst_residual for c in checks}
    assert worst["martingale/defect"] <= 1e-12
    want = float(lp_norm(d, 2).values.max())
    assert want > 1.0
    assert abs(worst["martingale/terminal_residual"] - want) <= 1e-12 * want


def test_residual_traces_feed_order_convergence(mat2_tower, mat2_bundle):
    # on finitely many atoms order convergence is pointwise: the worst atom's residual
    x = random_section(mat2_bundle, 85, "general")
    seq = martingale_from_target(x, mat2_tower, p=2)
    residuals = [lp_norm(x_n - x, 2).max_abs() for x_n in seq.elements]
    # strictly decreasing until the tower saturates at the full algebra
    assert all(b < a for a, b in zip(residuals, residuals[1:]) if a > 1e-10)
    assert residuals[-1] <= 1e-10


# ------------------------------------------------------ fiberwise martingale

def test_fiberwise_martingale_property(hetero_tower, hetero_bundle):
    # a global martingale restricts to a martingale over every single atom
    x = random_section(hetero_bundle, 91, "general")
    seq = martingale_from_target(x, hetero_tower)
    global_verdict = martingale_defect(seq.elements, hetero_tower) <= MARTINGALE_TOL
    for label in hetero_bundle.space.labels:
        sub_tower = hetero_tower.restrict([label])
        sub_elements = [x_n.restrict([label]) for x_n in seq.elements]
        assert (martingale_defect(sub_elements, sub_tower) <= MARTINGALE_TOL) == global_verdict


def test_restricted_tower_matches_atomwise(hetero_tower, hetero_bundle):
    sub = hetero_tower.restrict(["w2"])
    assert isinstance(sub, Filtration)
    assert sub.depth == hetero_tower.depth
    assert sub.terminal_is_full


def test_restricted_tower_keeps_each_levels_own_generators(hetero_tower, hetero_bundle):
    # a level's generators start with those of the level below; restricting passes each level
    # only its own, so the counts and bases are those of the tower at the atom
    for i, label in enumerate(hetero_bundle.space.labels):
        sub = hetero_tower.restrict([label])
        assert ([len(level.generators[0]) for level in sub.tower]
                == [len(level.generators[i]) for level in hetero_tower.tower])
        for level, sub_level in zip(hetero_tower.tower, sub.tower):
            assert level.projectors[i].ortho.tobytes() == sub_level.projectors[0].ortho.tobytes()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_restricted_tower_reuses_the_validated_levels(name, monkeypatch):
    # no level is validated again, and each atom's bases are those of a tower built on it alone
    cfg = fixture_config(name)
    full = runner.build_tower(cfg, cfg.build_bundle())
    for label in full.bundle.space.labels:
        built = runner.build_tower(cfg, full.bundle.restrict([label]))
        with monkeypatch.context() as patch:
            patch.setattr(martingale, "validate_subalgebra", None)
            sub = full.restrict([label])
        assert sub.bundle == built.bundle and sub.terminal_is_full == built.terminal_is_full
        assert (sub.inclusion_residual, sub.composition_residual) == (
            built.inclusion_residual, built.composition_residual)
        for level, want in zip(sub.tower, built.tower, strict=True):
            assert level.closure_residual == want.closure_residual
            assert [len(g) for g in level.generators] == [len(g) for g in want.generators]
            assert level.projectors[0].ortho.tobytes() == want.projectors[0].ortho.tobytes()
