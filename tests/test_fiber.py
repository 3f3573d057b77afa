import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebundle import (
    ContractViolationError,
    FiberElement,
    Section,
    ShapeMismatchError,
    abs_power,
    herm_eig,
    identity_fiber,
    polar,
    spectral_norm,
    spectral_projection,
    uniform_norm,
)
from tracebundle import fiber
from tracebundle.fiber import gram_eigenvalues, gram_eigenvalues_stack

import oracles
from oracles import eigh_oracle, gram_eigenvalues_reference, jacobi_hermitian, jacobi_singular


def random_fiber(seed, dims=(2,)):
    rng = np.random.default_rng(seed)
    return FiberElement(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in dims]
    )


def random_hermitian_fiber(seed, dims=(2,)):
    g = random_fiber(seed, dims)
    return 0.5 * (g + g.adjoint())


def max_diff(a: FiberElement, b: FiberElement) -> float:
    return (a - b).max_abs()


# ---------------------------------------------------------------- arithmetic

def test_add_identity_twice():
    one = identity_fiber((2,))
    two = one + one
    assert np.array_equal(two.blocks[0], 2.0 * np.eye(2))


def test_adjoint_conjugate_transposes():
    x = FiberElement([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert np.array_equal(x.adjoint().blocks[0], np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_product_with_adjoint_is_positive():
    for seed in range(30):
        a = random_fiber(seed, dims=(3, 2))
        gram = a * a.adjoint()
        eig = herm_eig(gram)
        assert min(w.min() for w in eig.eigenvalues) >= -1e-10


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        random_fiber(0, dims=(2,)) + random_fiber(0, dims=(3,))
    with pytest.raises(ShapeMismatchError):
        FiberElement([np.zeros((2, 3))])


def test_a_fiber_element_needs_a_block():
    with pytest.raises(ShapeMismatchError, match="a fiber element needs at least one block"):
        FiberElement([])


def test_nonfinite_entries_rejected():
    with pytest.raises(ContractViolationError):
        FiberElement([np.array([[np.nan, 0.0], [0.0, 1.0]])])


# ------------------------------------------------------------------ herm_eig

def test_eig_identity():
    eig = herm_eig(identity_fiber((3,)))
    assert np.array_equal(eig.eigenvalues[0], np.ones(3))


def test_eig_diagonal():
    eig = herm_eig(FiberElement([np.diag([3.0, 1.0])]))
    assert np.allclose(eig.eigenvalues[0], [3.0, 1.0], atol=0)
    assert np.abs(eig.bases[0] - np.eye(2)).max() < 1e-14


def test_eig_reconstruction_and_orthogonality():
    for seed in range(50):
        x = random_hermitian_fiber(seed, dims=(5,))
        eig = herm_eig(x)
        w, u = eig.eigenvalues[0], eig.bases[0]
        assert np.abs((u * w) @ u.conj().T - x.blocks[0]).max() < 1e-12
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12
        assert np.all(np.diff(w) <= 0)


def test_eig_matches_lapack_oracle():
    for seed in range(40):
        for dims in ((2,), (4,), (3, 5)):
            x = random_hermitian_fiber(seed, dims=dims)
            eig = herm_eig(x)
            for block, w in zip(x.blocks, eig.eigenvalues):
                w_oracle, _ = eigh_oracle(block)
                assert np.abs(w - w_oracle).max() < 1e-11


def test_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        herm_eig(FiberElement([np.array([[0.0, 1.0], [0.0, 0.0]])]))


@pytest.mark.parametrize("k", [-20, 0, 20, 40, 100, 400])
def test_hermitian_test_is_relative_to_the_block(k):
    # |x| from the one-sided kernel is Hermitian to rounding relative to its own entries;
    # an absolute tolerance refused it from about 2^20 up.  Every step scales by 2^k
    # exactly, so the projection keeps its bits
    scale = 2.0**k
    for seed in range(10):
        x = random_fiber(seed, dims=(4,))
        want = spectral_projection(abs_power(x, 1), 2.0)
        got = spectral_projection(abs_power(scale * x, 1), 2.0 * scale)
        assert np.array_equal(bits(got.blocks[0].view(np.float64)), bits(want.blocks[0].view(np.float64)))
    # and a block far from Hermitian is refused at every scale, below 1 too
    with pytest.raises(ContractViolationError, match="not Hermitian"):
        herm_eig(FiberElement([scale * np.array([[0.0, 1.0], [0.0, 0.0]])]))


def test_the_projection_snap_is_relative_to_the_block():
    # eigenvalues snap onto the cut within EIGENVALUE_CLAMP times the block's largest
    # |eigenvalue|, so scaling x and the cut by 2^k keeps the projection's bits.  The 20
    # random 4x4 blocks of one fiber are solved in one stack (a lane's bits are its own); an
    # absolute snap moved 16 of their projections at k = -40 and all 20 at k = -80
    x = random_fiber(5, dims=(4,) * 20)
    want = [bits(b.view(np.float64)) for b in spectral_projection(abs_power(x, 1), 2.0).blocks]
    for k in range(-80, 401):
        got = spectral_projection(abs_power(2.0**k * x, 1), 2.0 * 2.0**k)
        assert all(np.array_equal(bits(b.view(np.float64)), w) for b, w in zip(got.blocks, want)), k


def test_eig_deterministic_bits():
    x = random_hermitian_fiber(7, dims=(6,))
    a = herm_eig(x)
    b = herm_eig(x)
    for wa, wb, ua, ub in zip(a.eigenvalues, b.eigenvalues, a.bases, b.bases):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ua, ub)


# ----------------------------------------------------------------- abs_power

def test_abs_of_real_diagonal():
    x = FiberElement([np.diag([-2.0, 1.0])])
    assert max_diff(abs_power(x, 1.0), FiberElement([np.diag([2.0, 1.0])])) < 1e-14


def test_abs_power_of_zero():
    zero = FiberElement([np.zeros((3, 3))])
    for p in (1.0, 2.0, 3.5):
        assert abs_power(zero, p).max_abs() == 0.0


def test_abs_square_trace_matches_direct_product():
    for seed in range(25):
        x = random_fiber(seed, dims=(4,))
        lhs = np.trace(abs_power(x, 2.0).blocks[0])
        rhs = np.trace(x.blocks[0].conj().T @ x.blocks[0])
        assert abs(lhs - rhs) < 1e-10


def test_functional_calculus_refuses_a_result_past_the_float_range():
    # w = 100 raised to 200 is inf, and inf times the zero entries of the basis is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolationError, match="NaN or Inf"):
            abs_power(FiberElement([10 * np.eye(2)]), 400)


def digest(*elements) -> str:
    return hashlib.sha256(b"".join(b.tobytes() for f in elements for b in f.blocks)).hexdigest()


def test_functional_calculus_keeps_its_bits():
    x = random_fiber(41, dims=(1, 2, 3))
    h = x.adjoint() * x + x + x.adjoint()
    assert digest(abs_power(x, 2.0)) == "d34c6b1028063fc8b4355817df3e7a0b2b881e61d312c2c70f090c1fb680df46"
    assert digest(abs_power(x, 3.0)) == "932eeac0a86d8ba12729107e3080147880c8472f760c1590a1cd6102dcc8e26a"
    assert digest(*polar(x)) == "6b11f071828abbd675df3293eff41b58ccc17c420beb1617c27e74a1d346be62"
    assert digest(spectral_projection(h, 0.5)) == (
        "f59ccc05e0443d8e451abd87f10352e9d72b48452bd295389f4c4b8bea3e1084")


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 3)])
def test_power_addition_law(p, q):
    for seed in range(10):
        x = random_fiber(seed, dims=(3,))
        lhs = abs_power(x, float(p)) * abs_power(x, float(q))
        rhs = abs_power(x, float(p + q))
        assert max_diff(lhs, rhs) < 1e-9


# --------------------------------------------------------------------- polar

def test_polar_of_positive_invertible_has_identity_isometry():
    g = random_fiber(3, dims=(3,))
    pos = g * g.adjoint() + identity_fiber((3,))
    u, h = polar(pos)
    assert max_diff(u, identity_fiber((3,))) < 1e-10
    assert max_diff(h, pos) < 1e-10


def test_polar_of_unitary():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    x = FiberElement([q])
    u, h = polar(x)
    assert max_diff(h, identity_fiber((4,))) < 1e-10
    assert max_diff(u, x) < 1e-10


def test_polar_of_nilpotent_shift():
    x = FiberElement([np.array([[0.0, 1.0], [0.0, 0.0]])])
    u, h = polar(x)
    assert np.abs(h.blocks[0] - np.diag([0.0, 1.0])).max() < 1e-12
    assert max_diff(u * h, x) < 1e-12
    support = u.adjoint() * u
    assert np.abs(support.blocks[0] - np.diag([0.0, 1.0])).max() < 1e-12


def test_polar_cut_is_relative_to_the_block():
    # every singular value lies below PINV_CUTOFF, yet none is a kernel direction of the block
    x = 1e-11 * random_fiber(5, dims=(3,))
    u, h = polar(x)
    assert max_diff(u * h, x) < 1e-13 * x.max_abs()
    support = u.adjoint() * u
    assert max_diff(support * support, support) < 1e-12
    assert max_diff(support.adjoint(), support) < 1e-12
    assert max_diff(support, identity_fiber((3,))) < 1e-12


def test_polar_of_a_zero_block_is_zero():
    x = FiberElement([np.zeros((2, 2)), random_fiber(6, dims=(3,)).blocks[0]])
    u, h = polar(x)
    assert np.abs(u.blocks[0]).max() == 0.0 and np.abs(h.blocks[0]).max() == 0.0
    assert max_diff(u * h, x) < 1e-12


def test_polar_roundtrip_1000_seeds():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = FiberElement([g])
        u, h = polar(x)
        assert max_diff(u * h, x) < 1e-10


# ------------------------------------------------------- spectral projection

def test_projection_above_cut():
    x = FiberElement([np.diag([3.0, 1.0])])
    proj = spectral_projection(x, 2.0)
    assert np.array_equal(proj.blocks[0].real, np.diag([1.0, 0.0]))


def test_projection_of_positive_definite_at_zero_is_identity():
    g = random_fiber(9, dims=(4,))
    pos = g * g.adjoint() + identity_fiber((4,))
    proj = spectral_projection(pos, 0.0)
    assert max_diff(proj, identity_fiber((4,))) < 1e-10


def test_projection_rank_matches_eigenvalue_count():
    for seed in range(30):
        x = random_hermitian_fiber(seed, dims=(5,))
        cut = 0.3
        proj = spectral_projection(x, cut)
        w_oracle, _ = eigh_oracle(x.blocks[0])
        rank = int(np.sum(w_oracle > cut + 1e-12))
        assert abs(np.trace(proj.blocks[0]).real - rank) < 1e-9


def test_projection_idempotent():
    for seed in range(20):
        x = random_hermitian_fiber(seed, dims=(4,))
        proj = spectral_projection(x, 0.1)
        assert max_diff(proj * proj, proj) < 1e-10
        assert max_diff(proj.adjoint(), proj) < 1e-10


def test_projection_clamps_eigenvalues_at_cut():
    x = FiberElement([np.diag([2.0, 2.0 + 5e-13, 1.0])])
    proj = spectral_projection(x, 2.0)
    assert abs(np.trace(proj.blocks[0])) < 1e-12


def test_projection_below_zero_cut():
    x = FiberElement([np.diag([-1.0, -3.0])])
    proj = spectral_projection(x, -2.0)
    assert np.array_equal(proj.blocks[0].real, np.diag([1.0, 0.0]))


def test_projection_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        spectral_projection(random_fiber(1, dims=(3,)), 0.0)


def test_eig_accuracy_scales_with_input():
    # large-norm spectra: the sweep threshold is relative to the block norm,
    # so the reconstruction has relative precision
    for scale in (1e4, 1e8):
        x = scale * random_hermitian_fiber(13, dims=(5,))
        eig = herm_eig(x)
        w, u = eig.eigenvalues[0], eig.bases[0]
        rec = np.abs((u * w) @ u.conj().T - x.blocks[0]).max()
        assert rec < 1e-12 * scale
        w_oracle, _ = eigh_oracle(x.blocks[0])
        assert np.abs(w - w_oracle).max() < 1e-11 * scale


@pytest.mark.parametrize("scale", [1e-15, 1e-9, 1e-3, 1.0, 1e4, 1e8])
def test_eig_relative_accuracy_at_every_scale(scale):
    # the stopping threshold scales with the block, so tiny blocks are
    # diagonalized as accurately as unit-norm ones
    for seed in range(10):
        x = scale * random_hermitian_fiber(seed, dims=(3, 5))
        for block, w in zip(x.blocks, herm_eig(x).eigenvalues):
            w_oracle, _ = eigh_oracle(block)
            assert np.abs(w - w_oracle).max() <= 1e-13 * np.abs(w_oracle).max()
        g = scale * random_fiber(seed, dims=(3,))
        assert spectral_norm(g) == pytest.approx(np.linalg.norm(g.blocks[0], 2), rel=1e-13)


def test_jacobi_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(fiber, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ContractViolationError, match="did not converge in 1 sweeps"):
        herm_eig(random_hermitian_fiber(3, dims=(4,)))
    with pytest.raises(ContractViolationError, match="did not converge"):
        spectral_norm(random_fiber(3, dims=(3,)))
    # an already diagonal block stops before its first sweep
    herm_eig(FiberElement([np.diag([2.0, 1.0])]))
    # the stacked kernel raises on the same cap, and a diagonal stack stops at once
    with pytest.raises(ContractViolationError, match="did not converge in 1 sweeps"):
        fiber._jacobi_eigenvalues_stack(np.stack([random_hermitian_fiber(s, dims=(4,)).blocks[0]
                                                  for s in range(3)]))
    fiber._jacobi_eigenvalues_stack(np.array([np.diag([2.0, 1.0])] * 3, dtype=np.complex128))
    with pytest.raises(ContractViolationError, match="did not converge in 1 sweeps"):
        fiber._jacobi_eigenvalues_stack(np.stack([random_hermitian_fiber(s, dims=(4,)).blocks[0]
                                                  for s in range(3)]), vectors=True)
    w, u = fiber._jacobi_eigenvalues_stack(np.array([np.diag([2.0, 1.0])] * 3, dtype=np.complex128),
                                           vectors=True)
    assert np.array_equal(u, np.array([np.eye(2)] * 3))
    # the one-sided kernel: the sweep that turns a pair cannot also find the lane settled,
    # while a block of orthogonal columns settles in its first sweep with v = 1
    general = np.stack([random_fiber(s, dims=(3,)).blocks[0] for s in range(3)])
    for vectors in (False, True):
        with pytest.raises(ContractViolationError, match="one-sided Jacobi did not converge in 1 sweeps"):
            fiber.gram_eigenvalues_stack(general, vectors=vectors)
    w, v = fiber.gram_eigenvalues_stack(np.array([[[0.0, 2.0], [1j, 0.0]]] * 3), vectors=True)
    assert np.array_equal(w, [[1.0, 4.0]] * 3) and np.array_equal(v, np.array([np.eye(2)] * 3))


# ------------------------------------------------------ stacked Jacobi kernel

SCALES = (1e-15, 1e-9, 1e-3, 1.0, 1e4, 1e8)
SPECTRA = ("random", "degenerate", "graded")
PATTERNS = ("dense", "pinched", "zero_row")  # where a block's exact zeros sit, as a pinching leaves them


def bits(a):
    """The float64 words of ``a``: equal only when every bit is, the sign of a zero too."""
    return np.ascontiguousarray(a).view(np.uint64)


def zero_pattern(rng, n, pattern):
    """Entries a block keeps: all, two diagonal blocks (zero planes between them), or all but a row and column."""
    keep = np.ones((n, n), dtype=bool)
    if pattern == "pinched":
        labels = rng.integers(0, 2, n)
        keep = labels[:, None] == labels[None, :]
    elif pattern == "zero_row":
        k = rng.integers(n)
        keep[k, :] = keep[:, k] = False
    return keep


def hermitian_stack(seed, n, scales, spectra, patterns):
    """One exactly Hermitian ``u diag(w) u*`` per (scale, spectrum, pattern) triple, stacked."""
    rng = np.random.default_rng(seed)
    out = []
    for scale, spectrum, pattern in zip(scales, spectra, patterns):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        if spectrum == "random":
            w = rng.standard_normal(n)
        elif spectrum == "degenerate":
            w = rng.choice([-1.0, 0.0, 2.0], size=n)
        else:
            w = rng.choice([-1.0, 1.0], size=n) * 10.0 ** (-3.0 * rng.permutation(n))
        h = scale * ((u * w) @ u.conj().T)
        out.append(np.where(zero_pattern(rng, n, pattern), 0.5 * (h + h.conj().T), 0.0))
    return np.array(out)


# a lane's eigenvalue error against eigvalsh, relative to its largest eigenvalue: the worst
# over 18000 draws of ``lane_specs`` (about 99000 lanes) was 1.65e-15, a margin of 6
LAPACK_EIGENVALUE_BOUND = 1e-14


lane_specs = st.lists(
    st.tuples(st.sampled_from(SCALES), st.sampled_from(SPECTRA), st.sampled_from(PATTERNS)),
    min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), lanes=lane_specs)
def test_stacked_eigenvalues_match_lapack(seed, n, lanes):
    h = hermitian_stack(seed, n, *zip(*lanes))
    w = fiber._jacobi_eigenvalues_stack(h)
    assert w.shape == (len(lanes), n)
    for block, lane in zip(h, w):
        oracle = np.linalg.eigvalsh(block)
        assert np.abs(np.sort(lane) - oracle).max() <= LAPACK_EIGENVALUE_BOUND * np.abs(oracle).max()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), lanes=lane_specs)
def test_stacked_lane_bits_do_not_depend_on_the_stack(seed, n, lanes):
    # lanes of mixed scales and spectra converge after different sweep counts
    h = hermitian_stack(seed, n, *zip(*lanes))
    w = fiber._jacobi_eigenvalues_stack(h)
    order = np.random.default_rng(seed).permutation(len(lanes))
    assert np.array_equal(bits(fiber._jacobi_eigenvalues_stack(h[order])), bits(w[order]))
    for block, lane in zip(h, w):
        assert np.array_equal(bits(fiber._jacobi_eigenvalues_stack(block[None])[0]), bits(lane))


def test_a_repeated_eigenvalue_does_not_stall_the_sweeps(monkeypatch):
    # a triple and a double eigenvalue: the diagonal entries of a cluster settle on equal
    # floats while the entries between them are still about 1e-21, whose angle would then
    # come from the rounding of their difference alone; turned at 45 degrees in every
    # sweep, they shuffled the couplings between the clusters and the block took 12 sweeps.
    # Zeroed by the identity turn, as at most NEGLIGIBLE ||h||_F, it takes 2, and a cap of 2
    # holds it: the stop test runs once more after the last sweep (a cap of 3 was needed when
    # it ran only before each sweep)
    h = hermitian_stack(340, 5, [1e-3], ["degenerate"], ["dense"])
    monkeypatch.setattr(fiber, "JACOBI_MAX_SWEEPS", 2)
    w, u = fiber._jacobi_eigenvalues_stack(h, vectors=True)
    oracle = np.linalg.eigvalsh(h[0])
    assert np.abs(np.sort(w[0]) - oracle).max() <= LAPACK_EIGENVALUE_BOUND * np.abs(oracle).max()
    assert np.abs(u[0].conj().T @ u[0] - np.eye(5)).max() <= 1e-14
    # the list kernel runs the same stop test under the same cap
    monkeypatch.setattr(oracles, "JACOBI_MAX_SWEEPS", 2)
    want_w, want_u = jacobi_hermitian(h[0])
    assert np.array_equal(bits(w[0]), bits(want_w)) and np.array_equal(bits(u[0]), bits(want_u))


def hermitian_or_gram_stack(seed, n, lanes, gram):
    """``hermitian_stack``, or Gram matrices ``y* y`` of general complex blocks at the same
    scales, each ``y`` zero where its ``hermitian_stack`` block is (so is the Gram matrix)."""
    h = hermitian_stack(seed, n, *zip(*lanes))
    if gram:
        rng = np.random.default_rng(seed)
        y = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)) * np.sqrt(
            [scale for scale, _, _ in lanes])[:, None, None]
        y = np.where(h != 0.0, y, 0.0)
        h = np.einsum("ski,skj->sij", y.conj(), y)
    return h


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), lanes=lane_specs, gram=st.booleans())
def test_stacked_lanes_equal_the_list_kernel_bit_for_bit(seed, n, lanes, gram):
    # the axiom checks solve positivity and Gram stacks of every block size in one
    # call, which leaves their reports unchanged only under this contract
    h = hermitian_or_gram_stack(seed, n, lanes, gram)
    for block, lane in zip(h, fiber._jacobi_eigenvalues_stack(h)):
        w, vectors = jacobi_hermitian(block, vectors=False)
        assert vectors is None
        assert np.array_equal(bits(lane), bits(w))


def assert_stacked_vectors_equal_the_list_kernel(h):
    # the values match the eigenvalue-only solve too: the vectors never feed back;
    # the vectors match in every bit, the sign of a zero entry too
    w, u = fiber._jacobi_eigenvalues_stack(h, vectors=True)
    assert np.array_equal(bits(w), bits(fiber._jacobi_eigenvalues_stack(h)))
    for block, lane_w, lane_u in zip(h, w, u):
        want_w, want_u = jacobi_hermitian(block)
        assert np.array_equal(bits(lane_w), bits(want_w))
        assert np.array_equal(bits(lane_u), bits(want_u))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), lanes=lane_specs, gram=st.booleans())
def test_stacked_vectors_equal_the_list_kernel_bit_for_bit(seed, n, lanes, gram):
    # the duality witnesses come from the stacked eigenvectors
    assert_stacked_vectors_equal_the_list_kernel(hermitian_or_gram_stack(seed, n, lanes, gram))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("gram", [False, True])
def test_stacked_vectors_equal_the_list_kernel_at_every_scale(n, gram):
    # one lane per (scale, spectrum) pair, so every SCALES value is solved in one stack
    lanes = [(scale, spectrum, pattern) for scale in SCALES for spectrum in SPECTRA
             for pattern in PATTERNS]
    assert_stacked_vectors_equal_the_list_kernel(hermitian_or_gram_stack(n, n, lanes, gram))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), lanes=lane_specs)
def test_stacked_vector_bits_do_not_depend_on_the_stack(seed, n, lanes):
    h = hermitian_stack(seed, n, *zip(*lanes))
    w, u = fiber._jacobi_eigenvalues_stack(h, vectors=True)
    order = np.random.default_rng(seed).permutation(len(lanes))
    w_perm, u_perm = fiber._jacobi_eigenvalues_stack(h[order], vectors=True)
    assert np.array_equal(bits(w_perm), bits(w[order])) and np.array_equal(bits(u_perm), bits(u[order]))
    for block, lane_w, lane_u in zip(h, w, u):
        one_w, one_u = fiber._jacobi_eigenvalues_stack(block[None], vectors=True)
        assert np.array_equal(bits(one_w[0]), bits(lane_w))
        assert np.array_equal(bits(one_u[0]), bits(lane_u))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), lanes=lane_specs)
def test_stacked_vectors_reconstruct_against_lapack(seed, n, lanes):
    h = hermitian_stack(seed, n, *zip(*lanes))
    w, u = fiber._jacobi_eigenvalues_stack(h, vectors=True)
    for block, lane_w, lane_u in zip(h, w, u):
        oracle = np.linalg.eigvalsh(block)
        scale = np.abs(oracle).max()
        assert np.abs(np.sort(lane_w) - oracle).max() <= LAPACK_EIGENVALUE_BOUND * scale
        rebuilt = (lane_u * lane_w) @ lane_u.conj().T
        assert np.abs(rebuilt - block).max() <= 1e-13 * scale
        assert np.abs(lane_u.conj().T @ lane_u - np.eye(n)).max() <= 1e-13


def test_gram_eigenvalues_stack_matches_singular_values():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5):
        y = rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n))
        w = gram_eigenvalues_stack(y)
        assert w.min() >= 0.0
        oracle = np.linalg.svd(y, compute_uv=False) ** 2
        assert np.abs(np.sort(w, axis=1)[:, ::-1] - oracle).max() <= 1e-13 * oracle.max()


# ---------------------------------------------------- one-sided Jacobi kernel

KINDS = ("dense", "zero_column", "rank1", "rank2")
BLOCK_SCALES = (2.0**-150, 1e-9, 1.0, 1e8, 2.0**150)


def general_stack(seed, n, kinds, scales):
    """One complex block per (kind, scale) pair, stacked: dense, with a zero column, or a
    product ``a b*`` of rank 1 or 2 (rank n when n is smaller)."""
    rng = np.random.default_rng(seed)
    out = []
    for kind, scale in zip(kinds, scales):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "zero_column":
            g[:, rng.integers(n)] = 0.0
        elif kind != "dense":
            k = min(n, 1 if kind == "rank1" else 2)
            a, b = rng.standard_normal((2, n, k)) + 1j * rng.standard_normal((2, n, k))
            g = a @ b.conj().T
        out.append(scale * g)
    return np.array(out)


block_specs = st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(BLOCK_SCALES)),
                       min_size=1, max_size=10)


def assert_one_sided_equals_the_list_kernel(y):
    # the values match the solve without vectors, which never feed back; values and
    # vectors match the list kernel in every bit, the sign of a zero entry too
    w, v = gram_eigenvalues_stack(y, vectors=True)
    assert np.array_equal(bits(w), bits(gram_eigenvalues_stack(y)))
    for block, lane_w, lane_v in zip(y, w, v):
        want_w, want_v = jacobi_singular(block)
        assert np.array_equal(bits(lane_w), bits(want_w))
        assert np.array_equal(bits(lane_v), bits(want_v))
        assert jacobi_singular(block, vectors=False)[1] is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), blocks=block_specs)
def test_one_sided_lanes_equal_the_list_kernel_bit_for_bit(seed, n, blocks):
    assert_one_sided_equals_the_list_kernel(general_stack(seed, n, *zip(*blocks)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_sided_equals_the_list_kernel_on_every_kind_and_scale(n):
    blocks = [(kind, scale) for kind in KINDS for scale in BLOCK_SCALES]
    assert_one_sided_equals_the_list_kernel(general_stack(n, n, *zip(*blocks)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), blocks=block_specs)
def test_one_sided_lane_bits_do_not_depend_on_the_stack(seed, n, blocks):
    # lanes of mixed kinds and scales settle after different sweep counts
    y = general_stack(seed, n, *zip(*blocks))
    w, v = gram_eigenvalues_stack(y, vectors=True)
    order = np.random.default_rng(seed).permutation(len(blocks))
    w_perm, v_perm = gram_eigenvalues_stack(y[order], vectors=True)
    assert np.array_equal(bits(w_perm), bits(w[order])) and np.array_equal(bits(v_perm), bits(v[order]))
    for block, lane_w, lane_v in zip(y, w, v):
        one_w, one_v = gram_eigenvalues_stack(block[None], vectors=True)
        assert np.array_equal(bits(one_w[0]), bits(lane_w))
        assert np.array_equal(bits(one_v[0]), bits(lane_v))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), blocks=block_specs)
def test_one_sided_solve_matches_lapack(seed, n, blocks):
    # singular values to eps ||y||, and v unitary with y v of orthogonal columns
    y = general_stack(seed, n, *zip(*blocks))
    w, v = gram_eigenvalues_stack(y, vectors=True)
    for block, lane_w, lane_v in zip(y, w, v):
        sigma = np.linalg.svd(block, compute_uv=False)
        assert np.abs(np.sort(np.sqrt(lane_w))[::-1] - sigma).max() <= 1e-14 * sigma.max()
        assert np.abs(lane_v.conj().T @ lane_v - np.eye(n)).max() <= 1e-14
        cols = block @ lane_v
        assert np.abs(cols.conj().T @ cols - np.diag(lane_w)).max() <= 1e-14 * sigma.max() ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gram_eigenvalues_stack_of_a_concatenation_keeps_the_bits(n):
    # a stack solved together gives each part the bits it gets on its own: the
    # multi-case checks solve the stacks of several cases in one call
    rng = np.random.default_rng(n)
    parts = [rng.standard_normal((s, n, n)) + 1j * rng.standard_normal((s, n, n))
             for s in (1, 7, 3, 40, 2)]
    parts[2] *= 1e-150  # lanes of another scale converge after other sweep counts
    whole = gram_eigenvalues_stack(np.concatenate(parts), vectors=True)
    alone = [gram_eigenvalues_stack(y, vectors=True) for y in parts]
    for got, want in zip(whole, zip(*alone)):
        assert np.array_equal(bits(got), bits(np.concatenate(want)))


def test_gram_eigenvalues_stack_of_overflowing_squares_is_inf():
    # squares past the float range come back as an infinite spectrum, as in the list
    # kernel, and no warning is raised
    y = np.array([[[1e160, 1e160], [1e160, -1e160]], [[1.0, 0.0], [0.0, 2.0]]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = gram_eigenvalues_stack(y, vectors=True)
        assert np.array_equal(gram_eigenvalues_stack(y), w)
    assert np.array_equal(w[0], gram_eigenvalues_reference(FiberElement([y[0]]))[0])
    assert np.array_equal(w[0], [math.inf, math.inf])
    assert np.array_equal(np.sort(w[1]), [1.0, 4.0])


def test_gram_eigenvalues_stack_of_huge_entries_matches_list_kernel():
    # the Gram entries would be 2e240; the one-sided solve scales the block into range
    y = np.full((1, 2, 2), 1e120, dtype=np.complex128)
    want = gram_eigenvalues_reference(FiberElement([y[0]]))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gram_eigenvalues_stack(y)[0]
    assert np.array_equal(got, want)
    assert np.abs(np.sort(want) - [0.0, 4e240]).max() <= 1e-14 * 4e240


def test_gram_eigenvalues_stack_of_a_block_past_the_square_range():
    # a block of entries near 1e-170, whose squares underflow, and a unit column beside
    # columns of 1e-170: the first is solved scaled into range (its w underflow to 0, its v
    # are those of the unscaled block), and the second settles at once instead of
    # turning until the sweep cap
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = np.array([1e-170 * g, [[1.0, 1e-170, 0.0], [0.0, 1e-170, 0.0], [0.0, 0.0, 0.0]]])
    w, v = gram_eigenvalues_stack(y, vectors=True)
    assert np.array_equal(w[0], np.zeros(3))
    sigma = np.linalg.svd(g, compute_uv=False)
    cols = g @ v[0]
    assert np.abs(np.sort(np.linalg.norm(cols, axis=0))[::-1] - sigma).max() <= 1e-14 * sigma.max()
    gram = cols.conj().T @ cols
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-14 * sigma.max() ** 2
    assert np.array_equal(np.sort(w[1]), [0.0, 0.0, 1.0])


# ----------------------------------------------------------- norm primitives

def test_spectral_norm_matches_oracle():
    for seed in range(20):
        x = random_fiber(seed, dims=(3, 2))
        oracle = max(np.linalg.norm(b, 2) for b in x.blocks)
        assert abs(spectral_norm(x) - oracle) < 1e-10


def test_spectral_norm_of_overflowing_gram_is_inf_without_warning(mat2_bundle):
    # the squared singular values 4e320 overflow; the inf spectrum comes back and, under
    # the error::RuntimeWarning filter, no overflow warning is raised
    x = FiberElement([np.full((2, 2), 1e160, dtype=complex)])
    assert spectral_norm(x) == math.inf
    assert uniform_norm(Section(mat2_bundle, [x])) == math.inf
    assert spectral_norm(FiberElement([np.full((2, 2), 1e150, dtype=complex)])) == pytest.approx(2e150)


def test_gram_eigenvalues_nonnegative():
    x = random_fiber(5, dims=(4,))
    for w in gram_eigenvalues(x):
        assert w.min() >= 0.0


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
@pytest.mark.parametrize("kernel", ["one_sided", "hermitian"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_kernels_return_an_empty_stack_at_once(kernel, n, vectors, monkeypatch):
    # no lane to turn: the first sweep ends the solve (a cap of one sweep is not reached)
    solve = {"one_sided": gram_eigenvalues_stack, "hermitian": fiber._jacobi_eigenvalues_stack}[kernel]
    monkeypatch.setattr(fiber, "JACOBI_MAX_SWEEPS", 1)
    got = solve(np.zeros((0, n, n), dtype=np.complex128), vectors=vectors)
    w, v = got if vectors else (got, None)
    assert w.shape == (0, n) and w.dtype == np.float64
    if vectors:
        assert v.shape == (0, n, n) and v.dtype == np.complex128


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_solve_by_block_size_with_a_zero_lane_member(vectors):
    # a member with no lanes gets empty rows, and the others their own bits
    rng = np.random.default_rng(41)
    y = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    empty = np.zeros((0, 2, 2), dtype=np.complex128)
    solve = lambda s: gram_eigenvalues_stack(s, vectors=vectors)  # noqa: E731
    whole = solve(y)
    got = fiber.solve_by_block_size([empty, y, empty[:, :1, :1]], solve)
    if vectors:
        assert [a.shape for a in got[0]] == [(0, 2), (0, 2, 2)]
        assert [a.shape for a in got[2]] == [(0, 1), (0, 1, 1)]
        assert all(np.array_equal(bits(a.view(np.float64)), bits(b.view(np.float64)))
                   for a, b in zip(got[1], whole))
    else:
        assert got[0].shape == (0, 2) and got[2].shape == (0, 1)
        assert np.array_equal(bits(got[1]), bits(whole))
