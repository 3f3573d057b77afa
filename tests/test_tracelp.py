import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from tracebundle import (
    BundleSpec,
    ContractViolationError,
    FiberElement,
    MeasureSpace,
    Section,
    ShapeMismatchError,
    UsageError,
    abs_power,
    center_scale,
    center_trace,
    dual_extremal,
    duality_check,
    duality_checks,
    identity_section,
    lp_norm,
    random_section,
    spectral_norm,
)
import oracles
from conftest import values_drawn
from tracebundle import bundle as bundle_module
from tracebundle import fiber, tracelp, views
from tracebundle.fiber import gram_eigenvalues_stack
from tracebundle.tracelp import (
    DUALITY_CHUNK,
    lp_norms,
    packed_chunks,
    section_stacks,
    solve_by_block_size,
    stacked_lp_norms,
    stacked_traces,
)

from oracles import (
    dual_extremal_reference,
    duality_worst_reference,
    worst_excess_reference,
    lp_norm_reference,
    scalarize,
    spectral_norm_reference,
    zero_section,
)


def abs_section(x):
    return Section(x.bundle, [abs_power(f, 1.0) for f in x.fibers])


def gram_spectra(stacks):
    return solve_by_block_size(stacks, gram_eigenvalues_stack)


def with_zero_fiber(x, k):
    return Section(x.bundle, [0.0 * f if i == k else f for i, f in enumerate(x.fibers)])


# -------------------------------------------------------------- center trace

def test_trace_of_identity(hetero_bundle):
    phi = center_trace(identity_section(hetero_bundle)).real
    expected = [
        sum(c * n for c, n in zip(cs, shape))
        for cs, shape in zip(hetero_bundle.trace_weights, hetero_bundle.fiber_shapes)
    ]
    assert np.abs(phi - np.array(expected)).max() < 1e-14


def test_trace_cyclicity(hetero_bundle):
    for seed in range(20):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 300 + seed, "general")
        d = center_trace(x * y) - center_trace(y * x)
        assert np.abs(d).max() < 1e-10


def test_trace_positivity_and_faithfulness(hetero_bundle):
    for seed in range(20):
        x = random_section(hetero_bundle, seed, "general")
        gram = center_trace(x.adjoint() * x)
        assert np.abs(gram.imag).max() < 1e-12
        assert gram.real.min() >= -1e-12
    # contrapositive: a trace of x*x below 1e-12 forces a tiny fiber norm
    tiny = 1e-9 * random_section(hetero_bundle, 5, "general")
    gram = center_trace(tiny.adjoint() * tiny).real
    for i, label in enumerate(hetero_bundle.space.labels):
        assert gram[i] < 1e-12
        assert spectral_norm(tiny.fiber(label)) < 1e-5
    assert np.abs(center_trace(zero_section(hetero_bundle))).max() == 0.0


def test_trace_is_center_linear(hetero_bundle):
    rng = np.random.default_rng(1)
    z = rng.standard_normal(4)
    x = random_section(hetero_bundle, 9, "general")
    lhs = center_trace(center_scale(z, x))
    rhs = z * center_trace(x)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_center_views_are_the_stacked_rows(hetero_bundle):
    # a center value is a plain array, one entry per atom in space.labels order
    x = random_section(hetero_bundle, 17, "general")
    trace = center_trace(x)
    assert type(trace) is np.ndarray and trace.dtype == np.complex128
    assert np.array_equal(trace, stacked_traces(section_stacks([x]), hetero_bundle)[0])
    for p in (1.0, 2.0, 3.5):
        norm = lp_norm(x, p)
        assert type(norm) is np.ndarray and norm.dtype == np.float64
        assert norm.shape == (hetero_bundle.space.size,)
        assert np.array_equal(norm.view(np.uint64), lp_norms([x], p)[0].view(np.uint64))


# ------------------------------------------------------------- scalarization

def test_scalarize_identity(hetero_bundle):
    nu = np.array([0.3, 0.5, 0.1, 1.2])
    tau = scalarize(nu, identity_section(hetero_bundle))
    expected = float(np.sum(nu * center_trace(identity_section(hetero_bundle)).real))
    assert abs(tau - expected) < 1e-12


def test_scalarize_positive_and_cyclic(hetero_bundle):
    nu = np.array([1.0, 0.25, 2.0, 0.5])
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 40 + seed, "general")
        assert scalarize(nu, x.adjoint() * x).real >= -1e-12
        assert abs(scalarize(nu, x * y) - scalarize(nu, y * x)) < 1e-10


def test_scalarize_validates_weights(hetero_bundle):
    x = identity_section(hetero_bundle)
    with pytest.raises(UsageError):
        scalarize([1.0, 1.0], x)
    with pytest.raises(UsageError):
        scalarize([1.0, -1.0, 1.0, 1.0], x)


# ------------------------------------------------------------------ lp norms

def test_lp_norm_hand_value(mat2_bundle):
    x = Section(mat2_bundle, [FiberElement([np.diag([1.0, 2.0])])])
    got = lp_norm(x, 2)[0]
    assert abs(got - np.sqrt(2.5)) < 1e-12


def test_lp_norm_of_identity(hetero_bundle):
    phi_one = center_trace(identity_section(hetero_bundle)).real
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        got = lp_norm(identity_section(hetero_bundle), p)
        assert np.abs(got - phi_one ** (1.0 / p)).max() < 1e-12


def test_lp_norm_invariances(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        for p in (1.0, 2.0, 3.0):
            base = lp_norm(x, p)
            assert np.abs(lp_norm(x.adjoint(), p) - base).max() < 1e-10
            assert np.abs(lp_norm(abs_section(x), p) - base).max() < 1e-10


def test_lp_norm_matches_svd_oracle(hetero_bundle):
    # independent route: LAPACK singular values, explicit weighted power sums
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            got = lp_norm(x, p)
            want = []
            for f, cs in zip(x.fibers, hetero_bundle.trace_weights):
                total = 0.0
                for c, b in zip(cs, f.blocks):
                    total += c * float(np.sum(np.linalg.svd(b, compute_uv=False) ** p))
                want.append(total ** (1.0 / p))
            assert np.abs(got - np.array(want)).max() < 1e-10


def test_lp_norm_rejects_small_p(hetero_bundle):
    with pytest.raises(UsageError):
        lp_norm(identity_section(hetero_bundle), 0.5)


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_exponent_must_be_finite_and_at_least_one(hetero_bundle, p):
    # inf used to give 1.0 on every atom and NaN a ContractViolationError
    x = random_section(hetero_bundle, 1, "general")
    for call in (lambda: lp_norm(x, p), lambda: dual_extremal(x, p),
                 lambda: duality_check(x, p, 10, 0)):
        with pytest.raises(UsageError, match="finite number >= 1"):
            call()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_stacked_lp_norms_match_per_section(hetero_bundle, large_blocks_bundle, p):
    # against the list kernels, one section and one block at a time: the p = 2 sums of one
    # vecdot and the spectra of the stacked one-sided kernel give every finite p the bits of
    # the per-block loop
    for bundle in (hetero_bundle, large_blocks_bundle):
        xs = [random_section(bundle, 40 + s, "general") for s in range(12)]
        xs.append(with_zero_fiber(xs[0], 1))  # a zero atom keeps its norm of 0
        xs.append(1e-90 * xs[1])
        stacks = section_stacks(xs)
        (got,) = stacked_lp_norms(stacks, bundle, [p], gram_spectra(stacks))
        if p == math.inf:  # the uniform norm, largest singular value per atom
            want = np.array([[spectral_norm_reference(f) for f in x.fibers] for x in xs])
        else:
            want = np.array([lp_norm_reference(x, p) for x in xs])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(lp_norms(xs, p), got)
            assert all(np.array_equal(lp_norm(x, p), row) for x, row in zip(xs, got))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_lp_norms_refuses_sections_of_two_bundles(hetero_bundle, large_blocks_bundle):
    with pytest.raises(ShapeMismatchError):
        lp_norms([random_section(b, 1, "general") for b in (hetero_bundle, large_blocks_bundle)], 2)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_lp_norms_of_no_section_is_a_usage_error(p):
    with pytest.raises(UsageError, match="need at least one section"):
        lp_norms([], p)


@pytest.mark.parametrize("chunk, cases, count", [(1, 3, 2), (7, 5, 3), (7, 3, 10), (512, 25, 100)])
def test_packed_chunks_keep_case_order_within_the_bound(monkeypatch, chunk, cases, count):
    monkeypatch.setattr(tracelp, "DUALITY_CHUNK", chunk)
    groups = packed_chunks(cases, count)
    assert all(sum(size for _, size in g) <= chunk for g in groups)
    flat = [member for g in groups for member in g]
    assert flat == [(k, min(chunk, count - s)) for k in range(cases) for s in range(0, count, chunk)]
    assert all(groups)


def test_solve_by_block_size_splits_stacks_of_unequal_length():
    # stacks of 3 and 5 lanes share one solve per block size and come back as 3 and 5
    rng = np.random.default_rng(3)
    stacks = [rng.standard_normal((s, n, n)) for s, n in ((3, 2), (5, 2), (1, 3), (4, 3), (2, 2))]
    calls = []
    got = solve_by_block_size(stacks, lambda h: calls.append(len(h)) or h.sum(axis=2))
    assert sorted(calls) == [5, 10]
    for stack, part in zip(stacks, got):
        assert np.array_equal(part, stack.sum(axis=2))


def constant_section(bundle, scale):
    """Two lanes of blocks with every entry ``scale``: the stacks and the section of lane 0."""
    blocks = [np.full((2, n, n), scale, dtype=np.complex128) for n in (2, 3, 2, 2, 1)]
    lane = iter(b[0] for b in blocks)
    return blocks, Section(bundle, [FiberElement([next(lane) for _ in s]) for s in bundle.fiber_shapes])


@pytest.mark.parametrize("p, scale", [(2.0, 1e200), (3.0, 1e160)])
def test_stacked_lp_norms_overflow_raises(hetero_bundle, p, scale):
    # finite entries whose squares overflow, summed (p = 2) or as squared singular values
    # (p = 3); both paths raise, without a warning
    huge, x = constant_section(hetero_bundle, scale)
    with pytest.raises(ContractViolationError, match=f"L{p:g} norm is not finite"):
        stacked_lp_norms(huge, hetero_bundle, [p], gram_spectra(huge))
    with pytest.raises(ContractViolationError, match=f"L{p:g} norm is not finite"):
        lp_norm(x, p)


def svd_lp_norms(x, p):
    """Lp norms from numpy's singular values ``s``, summed over ``s / max s`` so nothing underflows."""
    out = []
    for f, cs in zip(x.fibers, x.bundle.trace_weights):
        s = [np.linalg.svd(b, compute_uv=False) for b in f.blocks]
        top = max(v.max() for v in s)
        out.append(top * sum(c * np.sum((v / top) ** p) for c, v in zip(cs, s)) ** (1.0 / p))
    return np.array(out)


def test_huge_entries_keep_the_norm(hetero_bundle):
    # entries of 1e32: the Gram eigenvalues ** 5 of p = 10 overflow unless taken over w / max w
    huge, x = constant_section(hetero_bundle, 1e32)
    want = svd_lp_norms(x, 10.0)
    (stacked,) = stacked_lp_norms(huge, hetero_bundle, [10.0], gram_spectra(huge))
    for got in (lp_norm(x, 10.0), stacked[0], stacked[1]):
        assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("p", [30.0, 200.0, 300.0, 1e7])
def test_underflowing_power_sums_keep_the_norm(hetero_bundle, p):
    # sections at scale 1, 2**-40 and 8: the power sums w**(p/2) of the small ones fall below
    # the smallest normal float (at p >= 200 some of the others too), and at p >= 300 those of
    # the scale-8 ones overflow; summed over w / max w, every norm keeps its value
    xs = [k * random_section(hetero_bundle, 70 + s, "general")
          for s in range(4) for k in (1.0, 2.0**-40, 8.0)]
    with np.errstate(over="ignore"):
        sums = np.array([[sum(c * float(np.sum(w ** (p / 2.0)))
                              for c, w in zip(cs, fiber.gram_eigenvalues(f)))
                          for f, cs in zip(x.fibers, hetero_bundle.trace_weights)] for x in xs])
    lost, over = sums < np.finfo(np.float64).tiny, sums == math.inf
    assert lost.any() and not lost.all()
    assert over.any() == (p >= 300)
    got = np.array([lp_norm(x, p) for x in xs])
    want = np.array([svd_lp_norms(x, p) for x in xs])
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    stacks = [np.stack(bs) for bs in zip(*[[b for f in x.fibers for b in f.blocks] for x in xs])]
    (stacked,) = stacked_lp_norms(stacks, hetero_bundle, [p], gram_spectra(stacks))
    assert np.all(np.abs(stacked - got) <= 1e-14 * got)
    for norms in (got, stacked):  # the norms that overflowed
        assert np.all(np.abs(norms - want)[over] <= 1e-14 * want[over])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the squared singular values (fiber.py, np.ldexp by 2 * exponent) and "
                   "the p = 2 squares (tracelp.py, np.vecdot) underflow (ROADMAP item 2)")
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_a_tiny_section_keeps_its_norm(hetero_bundle, p):
    # 2**k scaling is exact and the norm is homogeneous, but the squares of entries near
    # 2**-540 fall below the smallest subnormal float: the norms read exactly 0 at k = -540
    # (the relative error is 2.4e-14 at k = -515 and 1.8e-5 at k = -530)
    x = random_section(hetero_bundle, 2, "general")
    want = 2.0**-540 * lp_norm(x, p)
    got = lp_norm(2.0**-540 * x, p)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_lp_norm_zero_iff_zero(hetero_bundle):
    assert np.abs(lp_norm(zero_section(hetero_bundle), 2)).max() == 0.0
    x = random_section(hetero_bundle, 8, "general")
    assert lp_norm(x, 2).min() > 1e-6


def test_lp_norm_monotone_in_p_on_normalized_bundle():
    # fiber traces normalized to tau(1) = 1 per atom
    space = MeasureSpace(["a", "b"], [1.0, 2.0])
    bundle = BundleSpec(space, [[2], [2, 2]], [[0.5], [0.25, 0.25]])
    for seed in range(10):
        x = random_section(bundle, seed, "general")
        previous = None
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            current = lp_norm(x, p)
            if previous is not None:
                assert np.all(previous <= current + 1e-10)
            previous = current


def test_triangle_inequality(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 99 + seed, "general")
        for p in (1.0, 2.0, 3.0, 4.0):
            lhs = lp_norm(x + y, p)
            rhs = lp_norm(x, p) + lp_norm(y, p)
            assert np.all(lhs <= rhs + 1e-9)


def test_hoelder_inequality(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 151 + seed, "general")
        pairing = np.abs(center_trace(x * y))
        for p in (1.0, 2.0, 3.0, 4.0):
            nx = lp_norm(x, p)
            if p == 1.0:
                ny = np.array([spectral_norm(f) for f in y.fibers])
            else:
                ny = lp_norm(y, p / (p - 1.0))
            assert np.all(pairing <= nx * ny + 1e-9)


# ----------------------------------------------------------------- dual pair

def test_dual_extremal_p1_positive(hetero_bundle):
    pos = random_section(hetero_bundle, 4, "positive")
    y = dual_extremal(pos, 1)
    # witness is the support projection of a positive element
    assert (y * y - y).max_abs() < 1e-9
    attained = center_trace(pos * y)
    target = lp_norm(pos, 1)
    assert np.abs(attained - target).max() < 1e-9


def test_dual_extremal_hand_value(mat2_bundle):
    x = Section(mat2_bundle, [FiberElement([np.diag([3.0, 4.0])])])
    y = dual_extremal(x, 1)
    assert np.abs(y.fibers[0].blocks[0] - np.eye(2)).max() < 1e-12
    assert abs(center_trace(x * y)[0] - 3.5) < 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_dual_extremal_attains_on_unit_sphere(hetero_bundle, p):
    q = p / (p - 1.0)
    for seed in range(8):
        x = random_section(hetero_bundle, seed, "general")
        y = dual_extremal(x, p)
        attained = center_trace(x * y)
        target = lp_norm(x, p)
        assert np.abs(attained - target).max() < 1e-9
        assert np.abs(lp_norm(y, q) - 1.0).max() < 1e-8


def rank_deficient_section():
    """The E12 shift on Mat2, a Mat2+Mat2 fiber with one zero block, and a rank-1 Mat3 block.

    A generic rank-1 block is checked for attainment in
    test_dual_extremal_attains_on_generic_rank_one_block.
    """
    space = MeasureSpace(["shift", "half", "rank1"], [1.0, 0.5, 2.0])
    bundle = BundleSpec(space, [[2], [2, 2], [3]], [[0.5], [1.0, 2.0], [0.75]])
    rng = np.random.default_rng(31)
    half = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rank1 = np.outer([1.0, 2.0j, 2.0], np.conj([1.0, 1.0j, 1.0]))
    return Section(bundle, [FiberElement([[[0.0, 1.0], [0.0, 0.0]]]),
                            FiberElement([half, np.zeros((2, 2))]),
                            FiberElement([rank1])])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_dual_extremal_matches_polar_reference(hetero_bundle, large_blocks_bundle, p):
    xs = [random_section(b, 60 + s, "general") for b in (hetero_bundle, large_blocks_bundle)
          for s in range(6)]
    for x in xs + [rank_deficient_section()]:
        got = dual_extremal(x, p)
        assert (got - dual_extremal_reference(x, p)).max_abs() <= 1e-13
        attained = center_trace(x * got)
        assert np.abs(attained - lp_norm(x, p)).max() <= 1e-12


@pytest.mark.parametrize("p, bound", [(1.0, 1e-12), (1.5, 1e-10), (2.0, 1e-12), (3.0, 1e-12),
                                      (4.0, 1e-12)])
def test_dual_extremal_attains_on_generic_rank_one_block(p, bound):
    # the kernel of a c* comes out of the one-sided solve at singular values near
    # 1e-16 ||x||, below PINV_CUTOFF, so no noise direction enters the witness or the norm
    space = MeasureSpace(["rank1"], [1.0])
    bundle = BundleSpec(space, [[3]], [[0.75]])
    rng = np.random.default_rng(0)
    a, c = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x = Section(bundle, [FiberElement([np.outer(a, c.conj())])])
    attained = center_trace(x * dual_extremal(x, p))
    assert np.abs(attained - lp_norm(x, p)).max() <= bound


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("rank", [1, 2])
def test_lp_norms_of_rank_deficient_blocks_match_the_svd(rank, p):
    # the singular values come from the blocks, not from their Gram matrices, so the
    # kernel's sigma near 1e-16 sigma_max adds no more than that to the norm (squaring to
    # x* x would leave it near 1e-8 sigma_max, which the L1 sum takes in full)
    bundle = BundleSpec(MeasureSpace(["w"], [1.0]), [[3]], [[1.0]])
    rng = np.random.default_rng(40 + rank)
    sections = []
    for _ in range(100):
        a, c = rng.standard_normal((2, 3, rank)) + 1j * rng.standard_normal((2, 3, rank))
        sections.append(Section(bundle, [FiberElement([a @ c.conj().T])]))
    got = lp_norms(sections, p)[:, 0]
    for x, norm in zip(sections, got):
        sigma = np.linalg.svd(x.fibers[0].blocks[0], compute_uv=False)
        assert abs(norm - np.sum(sigma**p) ** (1.0 / p)) <= 1e-14 * sigma.max()


@pytest.mark.parametrize("p, scale", [(100.0, 1e-4), (300.0, 5e-2)])
def test_dual_extremal_stays_finite_at_large_p(hetero_bundle, p, scale):
    # norm_p**(1 - p) alone overflows here (norms below 10**(-308 / (p - 1))), and the
    # power sums of the norms underflow; the witness still attains and has Lq norm 1
    q = p / (p - 1.0)
    for seed in range(4):
        x = scale * random_section(hetero_bundle, seed, "general")
        target = lp_norm(x, p)
        assert target.min() < 10.0 ** (-308.0 / (p - 1.0))
        y = dual_extremal(x, p)
        attained = center_trace(x * y)
        assert np.all(np.abs(attained - target) <= 1e-12 * target)
        assert np.abs(lp_norm(y, q) - 1.0).max() < 1e-8


def test_dual_extremal_solves_one_stack_per_block_size(hetero_bundle, monkeypatch):
    # one stacked one-sided solve with singular vectors per block size (1, 2, 3) and no
    # other solve, the norms taken from the same spectra; and a zero witness for a zero fiber
    solved = []
    real = fiber.gram_eigenvalues_stack
    monkeypatch.setattr(tracelp, "gram_eigenvalues_stack",
                        lambda y, vectors=False: solved.append((y.shape, vectors)) or real(y, vectors))
    monkeypatch.setattr(fiber, "_jacobi_eigenvalues_stack", None)  # no Hermitian solve
    x = with_zero_fiber(random_section(hetero_bundle, 5, "general"), 2)
    for p in (1.0, 1.5, 3.0):
        solved.clear()
        y = dual_extremal(x, p)
        assert solved == [((1, 1, 1), True), ((3, 2, 2), True), ((1, 3, 3), True)]
        assert y.fibers[2].max_abs() == 0.0
        assert min(f.max_abs() for f in y.fibers[:2] + y.fibers[3:]) > 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 1e8])
def test_dual_extremal_of_a_tiny_fiber_attains(hetero_bundle, p):
    # the w1 block at max-abs 1e-11 has squared singular values below PINV_CUTOFF**2; with
    # the support cut absolute its witness was zero and its attainment residual its whole
    # norm (7.6e-12 to 1.1e-11); at max-abs 1e-14 its Lp norm is below the absolute 1e-12
    # under which every fiber once got the zero witness; only a zero fiber gets it now
    x = random_section(hetero_bundle, 5, "general")
    for size in (1e-11, 1e-14):
        tiny = Section(hetero_bundle, [x.fibers[0] * (size / x.fibers[0].max_abs()), *x.fibers[1:]])
        y = dual_extremal(tiny, p)
        norm = lp_norm(tiny, p)
        assert y.fibers[0].max_abs() > 0.0
        assert np.all(np.abs(center_trace(tiny * y) - norm) <= 1e-13 * norm)
        if p < 1e8:  # the reference raises norm_p to the power 1 - p
            assert (y - dual_extremal_reference(tiny, p)).max_abs() <= 1e-13 * y.max_abs()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 1e8])
def test_the_duality_phase_is_the_same_at_any_power_of_two(hetero_bundle, p):
    # the Lp norm is homogeneous and 2**k scaling is exact, so the witness of 2**k x is
    # that of x bit for bit, and every per-fiber field of its report is 2**k times it;
    # with an absolute zero-fiber threshold the witness was zero from k = -40 downward
    x = random_section(hetero_bundle, 7, "general")
    ks = range(-500, 501, 20)
    blocks = {k: b"".join(b.tobytes() for f in dual_extremal(2.0**k * x, p).fibers
                          for b in f.blocks)
              for k in ks}
    assert all(blocks[k] == blocks[0] for k in ks)
    reports = duality_checks([(2.0**k * x, p, 3) for k in ks], 40)
    fields = ("norm_p", "attained", "attainment_residual", "worst_sample_violation")
    base = reports[list(ks).index(0)].per_fiber
    for k, rep in zip(ks, reports):
        for row, row0 in zip(rep.per_fiber, base):
            assert [row[f] for f in fields] == [2.0**k * row0[f] for f in fields]


def test_dual_extremal_zero_section(hetero_bundle):
    y = dual_extremal(zero_section(hetero_bundle), 3)
    assert y.max_abs() == 0.0


def test_duality_check_zero(hetero_bundle):
    rep = duality_check(zero_section(hetero_bundle), 2, 20, 0)
    assert rep.max_violation <= 0.0
    assert rep.attainment_residual == 0.0


def test_duality_check_p1(hetero_bundle):
    x = random_section(hetero_bundle, 17, "general")
    rep = duality_check(x, 1, 500, 21)
    assert rep.max_violation <= 1e-9
    assert rep.attainment_residual <= 1e-8


def test_duality_check_p3(hetero_bundle):
    x = random_section(hetero_bundle, 18, "general")
    rep = duality_check(x, 3, 200, 22)
    assert rep.max_violation <= 1e-9
    assert rep.attainment_residual <= 1e-8
    payload = rep.to_dict()
    assert payload == {  # the fields duality.json has always held
        "p": 3, "samples": 200, "seed": 22, "max_violation": rep.max_violation,
        "attainment_residual": rep.attainment_residual, "per_fiber": rep.per_fiber,
    }
    assert payload["p"] == 3
    assert len(payload["per_fiber"]) == 4


def test_duality_check_deterministic(hetero_bundle):
    x = random_section(hetero_bundle, 19, "general")
    a = duality_check(x, 2, 50, 33)
    b = duality_check(x, 2, 50, 33)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_duality_check_matches_per_sample_reference(hetero_bundle, monkeypatch, p):
    # more samples than one chunk, so the last chunk is partial; then 1..7 samples in
    # chunks of 3, where every sample is the worst of some atom often enough that a
    # sample left out of any chunk shows
    x = random_section(hetero_bundle, 23, "general")
    for chunk, samples in [(DUALITY_CHUNK, DUALITY_CHUNK + 37)] + [(3, n) for n in range(1, 8)]:
        monkeypatch.setattr(tracelp, "DUALITY_CHUNK", chunk)
        rep = duality_check(x, p, samples, 24)
        got = np.array([f["worst_sample_violation"] for f in rep.per_fiber])
        want = duality_worst_reference(x, p, samples, 24)
        assert np.abs(got - want).max() <= 1e-14
        assert rep.max_violation == got.max()


@pytest.mark.parametrize("chunk, samples", [(1, 3), (7, 3), (7, 10), (512, 40)])
def test_duality_checks_match_one_check_per_case(hetero_bundle, large_blocks_bundle,
                                                 monkeypatch, chunk, samples):
    # at 3 samples in chunks of 7 and at 40 in chunks of 512 a group holds several
    # cases, so case boundaries fall inside it; p = 2 needs no spectrum, and one
    # section has a zero fiber
    pairs = itertools.product((1.0, 1.5, 2.0, 3.0), (hetero_bundle, large_blocks_bundle))
    cases = [(random_section(b, 50 + k, "general"), p, 60 + k) for k, (p, b) in enumerate(pairs)]
    cases.append((with_zero_fiber(cases[0][0], 1), 3.0, 70))
    want = [duality_check(x, p, samples, seed).to_dict() for x, p, seed in cases]
    monkeypatch.setattr(tracelp, "DUALITY_CHUNK", chunk)
    assert [rep.to_dict() for rep in duality_checks(cases, samples)] == want


def test_duality_checks_norms_and_attainment_match_the_references(hetero_bundle, large_blocks_bundle):
    # sections of two bundles at every exponent in one call, one with a zero fiber, and
    # the rank-deficient section (a zero block and a rank-1 block)
    xs = [random_section(b, 80 + s, "general") for b in (hetero_bundle, large_blocks_bundle)
          for s in range(3)]
    xs += [with_zero_fiber(xs[0], 1), rank_deficient_section()]
    cases = [(x, p, 90 + k) for k, (x, p) in enumerate(itertools.product(xs, (1.0, 1.5, 2.0, 3.0, 4.0)))]
    for (x, p, _), rep in zip(cases, duality_checks(cases, 5)):
        want = lp_norm(x, p)
        norms = np.array([f["norm_p"] for f in rep.per_fiber])
        assert np.all(np.abs(norms - want) <= 1e-13 * want)
        attained = np.array([f["attained"] for f in rep.per_fiber])
        want_attained = center_trace(x * dual_extremal_reference(x, p)).real
        assert np.all(np.abs(attained - want_attained) <= 1e-13 * want)


def test_duality_checks_build_no_witness_section(hetero_bundle, monkeypatch):
    # the checks read only the witnesses' norms and attained traces
    cases = [(random_section(hetero_bundle, 40 + k, "general"), p, k)
             for k, p in enumerate((1.0, 1.5, 2.0, 3.0))]
    monkeypatch.setattr(views, "lane_section", None)
    assert len(duality_checks(cases, 3)) == 4


# sha256 of dual_extremal(random_section(hetero_bundle, 31, "general"), p), recorded before
# the witnesses became block stacks that only dual_extremal turns into a section, and again
# when the draws moved to the counter-based bundle.Stream
DUAL_EXTREMAL_DIGESTS = {
    1: "24d1ed997f96f9258a6e8605c18b9a72fe2348a34502f738336c5605dc9daefb",
    1.5: "d37a58fe37f8a1b13ac2031f798b8c231e6d3b93b3e7ff0ad382b4c7b108e455",
    2: "814fc63f7e53e4b21242f940686773c7ad3e8d2cd19ad8c0329d82f83abd8aed",
    3: "5d601d61c829f191a78a26dc5357ba4d3589f6425b9f3b7ef54a71ec7d0f496a",
    4: "ff503b3c30e5122cec52c372daf22d742969331f12c04d0580b39ab01bd8d03d",
}


@pytest.mark.parametrize("p", sorted(DUAL_EXTREMAL_DIGESTS))
def test_dual_extremal_keeps_its_bits(hetero_bundle, p):
    y = dual_extremal(random_section(hetero_bundle, 31, "general"), p)
    blocks = b"".join(b.tobytes() for f in y.fibers for b in f.blocks)
    assert hashlib.sha256(blocks).hexdigest() == DUAL_EXTREMAL_DIGESTS[p]


def test_duality_checks_need_a_sample(hetero_bundle):
    with pytest.raises(UsageError, match="at least one sample"):
        duality_checks([(random_section(hetero_bundle, 1, "general"), 2.0, 0)], 0)
    assert duality_checks([], 5) == []  # no case, no report


def test_dual_extremal_of_an_overflowing_section_raises(hetero_bundle):
    # the squares of the Mat2 block overflow
    x = random_section(hetero_bundle, 3, "general")
    x.fibers[0].blocks[0][:] = [[1e160, 1e160], [1e160, -1e160]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1.5, 3.0):
            with pytest.raises(ContractViolationError, match=f"L{p:g} norm is not finite"):
                dual_extremal(x, p)


def test_duality_check_near_one_passes(hetero_bundle):
    # q = p / (p - 1) ~ 1e7: the dual norms' w**(q/2) would overflow unless summed over
    # w / max w, and an infinite dual norm would scale every sample to zero
    x = random_section(hetero_bundle, 27, "general")
    rep = duality_check(x, 1.0000001, 50, 28)
    assert rep.max_violation <= 1e-9 and rep.attainment_residual <= 1e-8
    norms = np.array([f["norm_p"] for f in rep.per_fiber])
    want = svd_lp_norms(x, 1.0000001)
    assert np.all(np.abs(norms - want) <= 1e-14 * want)


@pytest.mark.parametrize("samples", [40, 600])
def test_duality_check_draws_from_one_key(hetero_bundle, stream_log, samples):
    # one stream key per check, every sample's 2 * 22 values drawn from it once
    x = random_section(hetero_bundle, 29, "general")
    stream_log.clear()
    duality_check(x, 3.0, samples, 30)
    assert values_drawn(stream_log) == [samples * 44]


def test_duality_chunking_is_invisible(hetero_bundle, monkeypatch):
    x = random_section(hetero_bundle, 25, "general")
    whole = {p: duality_check(x, p, 40, 26).to_dict() for p in (1.0, 2.0, 3.0)}
    for chunk in (1, 7):
        monkeypatch.setattr(tracelp, "DUALITY_CHUNK", chunk)
        for p, report in whole.items():
            assert duality_check(x, p, 40, 26).to_dict() == report


# ------------------------------------ samples solved only where they can be the worst

PRUNED_EXPONENTS = (1.0, 1.0000001, 1.5, 2.0, 3.0, 4.0, 300.0)


def all_lanes_reports(monkeypatch, cases, samples) -> str:
    """``duality_checks`` with the dual norm of every sample lane solved, as JSON text."""
    with monkeypatch.context() as patched:
        patched.setattr(tracelp, "_worst_excess", worst_excess_reference)
        return json.dumps([rep.to_dict() for rep in duality_checks(cases, samples)])


@pytest.mark.parametrize("samples", [1, 7, 600])
def test_duality_reports_equal_the_all_lanes_loop(hetero_bundle, large_blocks_bundle,
                                                  monkeypatch, samples):
    # JSON text compares every float by its repr, the sign of zero included; 600 samples
    # cross DUALITY_CHUNK, so a case's lanes fall in two groups
    cases = [(random_section(b, 110 + k, "general"), p, 130 + k) for k, (b, p) in
             enumerate(itertools.product((hetero_bundle, large_blocks_bundle), PRUNED_EXPONENTS))]
    reports = duality_checks(cases, samples)
    text = json.dumps([rep.to_dict() for rep in reports])
    assert text == all_lanes_reports(monkeypatch, cases, samples)
    if samples < 600:  # the per-sample oracle is a Python loop
        for (x, p, seed), rep in zip(cases, reports):
            got = np.array([f["worst_sample_violation"] for f in rep.per_fiber])
            want = duality_worst_reference(x, p, samples, seed)
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def bracket_inputs(bundle) -> list[np.ndarray]:
    """Gaussian, rank-1, graded ``D G D`` (``D = diag(1, 1e-6, 1e-12, ...)``), zeroed and
    2**150- and 2**-150-scaled blocks, 6 lanes of each, stacked per block slot."""
    rng = np.random.default_rng(140)
    gauss = bundle_module.gaussian_stacks(bundle, rng, 6)
    rank1 = [g[:, :, :1] @ g[:, :1, :] for g in bundle_module.gaussian_stacks(bundle, rng, 6)]
    grade = [1e-6 ** np.arange(g.shape[1]) for g in gauss]
    graded = [g * d[:, None] * d[None, :] for g, d in zip(gauss, grade)]
    zeroed = [np.where((np.arange(6) % (j + 2) == 0)[:, None, None], 0.0, g)
              for j, g in enumerate(gauss)]  # lane 0 all zero, others some zero blocks
    scaled = [[2.0**e * g for g in gauss] for e in (150, -150)]
    return [np.concatenate(parts) for parts in zip(gauss, rank1, graded, zeroed, *scaled)]


@pytest.mark.parametrize("q", [math.inf, 4.0, 3.0, 2.0, 1.5, 4.0 / 3.0, 300.0 / 299.0, 1e7])
def test_dual_norm_bracket_contains_the_solved_norms(hetero_bundle, large_blocks_bundle, q):
    for bundle in (hetero_bundle, large_blocks_bundle):
        stacks = bracket_inputs(bundle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = tracelp.dual_norm_bracket(stacks, bundle, q)
            (solved,) = stacked_lp_norms(stacks, bundle, [q], gram_spectra(stacks))
        assert np.all(lo <= solved) and np.all(solved <= hi)
        # rank-1 blocks attain the spike, which is one end of the bracket
        ends = np.minimum(solved - lo, hi - solved)[6:12]
        assert np.all(ends <= 3e-9 * solved[6:12])


def test_zero_samples_and_fibers_keep_every_worst_lane(hetero_bundle, monkeypatch):
    # block slot j of every lane divisible by j + 2 is zero, so some samples are zero at an
    # atom (dual norm 0) and lanes 0 and 60 are zero throughout; the sections have a zero
    # fiber, a fiber scaled by 1e-14, or are zero: no 0 / 0 may hide a worst lane
    real = bundle_module.gaussian_stacks

    def zeroed(bundle, stream, count):
        stacks = real(bundle, stream, count)
        for j, y in enumerate(stacks):
            y[np.arange(count) % (j + 2) == 0] = 0.0
        return stacks

    monkeypatch.setattr(tracelp, "gaussian_stacks", zeroed)
    monkeypatch.setattr(oracles, "gaussian_stacks", zeroed)
    x = random_section(hetero_bundle, 150, "general")
    tiny = Section(hetero_bundle, [1e-14 * f if i == 2 else f for i, f in enumerate(x.fibers)])
    sections = [x, with_zero_fiber(x, 1), tiny, zero_section(hetero_bundle)]
    pairs = itertools.product(sections, PRUNED_EXPONENTS)
    cases = [(y, p, 160 + k) for k, (y, p) in enumerate(pairs)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = duality_checks(cases, 70)
    got = json.dumps([rep.to_dict() for rep in reports])
    assert "NaN" not in got
    assert got == all_lanes_reports(monkeypatch, cases, 70)
