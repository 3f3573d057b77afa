import math

import numpy as np
import pytest

from tracebundle import (
    BundleSpec,
    CenterElement,
    ContractViolationError,
    FiberElement,
    MeasureSpace,
    Section,
    UsageError,
    abs_power,
    center_scale,
    center_trace,
    dual_extremal,
    duality_check,
    identity_section,
    lp_norm,
    normalize_trace,
    random_section,
    scalarize,
    spectral_norm,
    zero_section,
)
from tracebundle import tracelp
from tracebundle.tracelp import DUALITY_CHUNK, stacked_lp_norms

from oracles import duality_worst_reference


def abs_section(x):
    return Section(x.bundle, [abs_power(f, 1.0) for f in x.fibers])


# -------------------------------------------------------------- center trace

def test_trace_of_identity(hetero_bundle):
    phi = center_trace(identity_section(hetero_bundle)).values.real
    expected = [
        sum(c * n for c, n in zip(cs, shape))
        for cs, shape in zip(hetero_bundle.trace_weights, hetero_bundle.fiber_shapes)
    ]
    assert np.abs(phi - np.array(expected)).max() < 1e-14


def test_trace_cyclicity(hetero_bundle):
    for seed in range(20):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 300 + seed, "general")
        d = center_trace(x * y).values - center_trace(y * x).values
        assert np.abs(d).max() < 1e-10


def test_trace_positivity_and_faithfulness(hetero_bundle):
    for seed in range(20):
        x = random_section(hetero_bundle, seed, "general")
        gram = center_trace(x.adjoint() * x).values
        assert np.abs(gram.imag).max() < 1e-12
        assert gram.real.min() >= -1e-12
    # contrapositive: a trace of x*x below 1e-12 forces a tiny fiber norm
    tiny = 1e-9 * random_section(hetero_bundle, 5, "general")
    gram = center_trace(tiny.adjoint() * tiny).values.real
    for i, label in enumerate(hetero_bundle.space.labels):
        assert gram[i] < 1e-12
        assert spectral_norm(tiny.fiber(label)) < 1e-5
    assert center_trace(zero_section(hetero_bundle)).max_abs() == 0.0


def test_trace_is_center_linear(hetero_bundle):
    rng = np.random.default_rng(1)
    z = CenterElement(hetero_bundle.space, rng.standard_normal(4))
    x = random_section(hetero_bundle, 9, "general")
    lhs = center_trace(center_scale(z, x)).values
    rhs = z.values * center_trace(x).values
    assert np.abs(lhs - rhs).max() < 1e-12


# --------------------------------------------------------- normalized trace

def test_normalized_trace_of_identity(hetero_bundle):
    t = center_trace(identity_section(hetero_bundle)).values.real
    got = normalize_trace(identity_section(hetero_bundle)).values.real
    assert np.abs(got - t / (1.0 + t)).max() < 1e-14
    assert got.max() < 1.0


def test_normalized_trace_of_zero(hetero_bundle):
    assert normalize_trace(zero_section(hetero_bundle)).max_abs() == 0.0


def test_normalized_trace_is_tracial(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 77 + seed, "general")
        d = normalize_trace(x * y).values - normalize_trace(y * x).values
        assert np.abs(d).max() < 1e-10


# ------------------------------------------------------------- scalarization

def test_scalarize_identity(hetero_bundle):
    nu = np.array([0.3, 0.5, 0.1, 1.2])
    tau = scalarize(nu, identity_section(hetero_bundle))
    expected = float(np.sum(nu * center_trace(identity_section(hetero_bundle)).values.real))
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
    got = lp_norm(x, 2).values[0]
    assert abs(got - np.sqrt(2.5)) < 1e-12


def test_lp_norm_of_identity(hetero_bundle):
    phi_one = center_trace(identity_section(hetero_bundle)).values.real
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        got = lp_norm(identity_section(hetero_bundle), p).values
        assert np.abs(got - phi_one ** (1.0 / p)).max() < 1e-12


def test_lp_norm_invariances(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        for p in (1.0, 2.0, 3.0):
            base = lp_norm(x, p).values
            assert np.abs(lp_norm(x.adjoint(), p).values - base).max() < 1e-10
            assert np.abs(lp_norm(abs_section(x), p).values - base).max() < 1e-10


def test_lp_norm_matches_svd_oracle(hetero_bundle):
    # independent route: LAPACK singular values, explicit weighted power sums
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            got = lp_norm(x, p).values
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
    for bundle in (hetero_bundle, large_blocks_bundle):
        xs = [random_section(bundle, 40 + s, "general") for s in range(12)]
        stacks = [np.stack(bs) for bs in zip(*[[b for f in x.fibers for b in f.blocks] for x in xs])]
        (got,) = stacked_lp_norms(stacks, bundle, [p])
        if p == math.inf:  # the uniform norm, largest singular value per atom
            want = np.array([[spectral_norm(f) for f in x.fibers] for x in xs])
        else:
            want = np.array([lp_norm(x, p).values for x in xs])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("p, scale", [(2.0, 1e200), (10.0, 1e32)])
def test_stacked_lp_norms_overflow_raises(hetero_bundle, p, scale):
    # finite entries whose squares (p = 2) or Gram eigenvalues ** 5 (p = 10) overflow
    huge = [np.full((2, n, n), scale, dtype=np.complex128) for n in (2, 3, 2, 2, 1)]
    with pytest.raises(ContractViolationError, match=f"L{p:g} norm is not finite"):
        stacked_lp_norms(huge, hetero_bundle, [p])


def test_lp_norm_zero_iff_zero(hetero_bundle):
    assert lp_norm(zero_section(hetero_bundle), 2).max_abs() == 0.0
    x = random_section(hetero_bundle, 8, "general")
    assert lp_norm(x, 2).values.min() > 1e-6


def test_lp_norm_monotone_in_p_on_normalized_bundle():
    # fiber traces normalized to tau(1) = 1 per atom
    space = MeasureSpace(["a", "b"], [1.0, 2.0])
    bundle = BundleSpec(space, [[2], [2, 2]], [[0.5], [0.25, 0.25]])
    for seed in range(10):
        x = random_section(bundle, seed, "general")
        previous = None
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            current = lp_norm(x, p).values
            if previous is not None:
                assert np.all(previous <= current + 1e-10)
            previous = current


def test_triangle_inequality(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 99 + seed, "general")
        for p in (1.0, 2.0, 3.0, 4.0):
            lhs = lp_norm(x + y, p).values
            rhs = lp_norm(x, p).values + lp_norm(y, p).values
            assert np.all(lhs <= rhs + 1e-9)


def test_hoelder_inequality(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 151 + seed, "general")
        pairing = np.abs(center_trace(x * y).values)
        for p in (1.0, 2.0, 3.0, 4.0):
            nx = lp_norm(x, p).values
            if p == 1.0:
                ny = np.array([spectral_norm(f) for f in y.fibers])
            else:
                ny = lp_norm(y, p / (p - 1.0)).values
            assert np.all(pairing <= nx * ny + 1e-9)


# ----------------------------------------------------------------- dual pair

def test_dual_extremal_p1_positive(hetero_bundle):
    pos = random_section(hetero_bundle, 4, "positive")
    y = dual_extremal(pos, 1)
    # witness is the support projection of a positive element
    assert (y * y - y).max_abs() < 1e-9
    attained = center_trace(pos * y).values
    target = lp_norm(pos, 1).values
    assert np.abs(attained - target).max() < 1e-9


def test_dual_extremal_hand_value(mat2_bundle):
    x = Section(mat2_bundle, [FiberElement([np.diag([3.0, 4.0])])])
    y = dual_extremal(x, 1)
    assert np.abs(y.fibers[0].blocks[0] - np.eye(2)).max() < 1e-12
    assert abs(center_trace(x * y).values[0] - 3.5) < 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_dual_extremal_attains_on_unit_sphere(hetero_bundle, p):
    q = p / (p - 1.0)
    for seed in range(8):
        x = random_section(hetero_bundle, seed, "general")
        y = dual_extremal(x, p)
        attained = center_trace(x * y).values
        target = lp_norm(x, p).values
        assert np.abs(attained - target).max() < 1e-9
        assert np.abs(lp_norm(y, q).values - 1.0).max() < 1e-8


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
    assert payload["p"] == 3
    assert len(payload["per_fiber"]) == 4


def test_duality_check_deterministic(hetero_bundle):
    x = random_section(hetero_bundle, 19, "general")
    a = duality_check(x, 2, 50, 33)
    b = duality_check(x, 2, 50, 33)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_duality_check_matches_per_sample_reference(hetero_bundle, p):
    # more samples than one chunk, so the last chunk is partial
    x = random_section(hetero_bundle, 23, "general")
    samples = DUALITY_CHUNK + 37
    rep = duality_check(x, p, samples, 24)
    got = np.array([f["worst_sample_violation"] for f in rep.per_fiber])
    want = duality_worst_reference(x, p, samples, 24)
    assert np.abs(got - want).max() <= 1e-14
    assert rep.max_violation == got.max()


def test_duality_check_near_one_fails_loudly(hetero_bundle):
    # q = p / (p - 1) ~ 1e7 overflows w**(q/2); an infinite dual norm would scale
    # every sample to zero and pass the violation check vacuously
    x = random_section(hetero_bundle, 27, "general")
    with pytest.raises(ContractViolationError, match=r"L1e\+07 norm is not finite"):
        duality_check(x, 1.0000001, 50, 28)


@pytest.mark.parametrize("samples", [40, 600])
def test_duality_check_draws_from_one_generator(hetero_bundle, rng_log, samples):
    # one generator per check, every sample's 2 * 22 values drawn from it once
    x = random_section(hetero_bundle, 29, "general")
    rng_log.clear()
    duality_check(x, 3.0, samples, 30)
    assert [g.drawn for g in rng_log] == [samples * 44]


def test_duality_chunking_is_invisible(hetero_bundle, monkeypatch):
    x = random_section(hetero_bundle, 25, "general")
    whole = {p: duality_check(x, p, 40, 26).to_dict() for p in (1.0, 2.0, 3.0)}
    for chunk in (1, 7):
        monkeypatch.setattr(tracelp, "DUALITY_CHUNK", chunk)
        for p, report in whole.items():
            assert duality_check(x, p, 40, 26).to_dict() == report
