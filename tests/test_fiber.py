import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebundle import (
    ContractViolationError,
    FiberElement,
    ShapeMismatchError,
    abs_power,
    herm_eig,
    identity_fiber,
    polar,
    spectral_norm,
    spectral_projection,
)
from tracebundle import fiber
from tracebundle.fiber import gram_eigenvalues, gram_eigenvalues_stack

from oracles import eigh_oracle


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


# ------------------------------------------------------ stacked Jacobi kernel

SCALES = (1e-15, 1e-9, 1e-3, 1.0, 1e4, 1e8)
SPECTRA = ("random", "degenerate", "graded")


def hermitian_stack(seed, n, scales, spectra):
    """One exactly Hermitian ``u diag(w) u*`` per (scale, spectrum) pair, stacked."""
    rng = np.random.default_rng(seed)
    out = []
    for scale, spectrum in zip(scales, spectra):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        if spectrum == "random":
            w = rng.standard_normal(n)
        elif spectrum == "degenerate":
            w = rng.choice([-1.0, 0.0, 2.0], size=n)
        else:
            w = rng.choice([-1.0, 1.0], size=n) * 10.0 ** (-3.0 * rng.permutation(n))
        h = scale * ((u * w) @ u.conj().T)
        out.append(0.5 * (h + h.conj().T))
    return np.array(out)


lane_specs = st.lists(st.tuples(st.sampled_from(SCALES), st.sampled_from(SPECTRA)),
                      min_size=1, max_size=10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), lanes=lane_specs)
def test_stacked_eigenvalues_match_lapack(seed, n, lanes):
    h = hermitian_stack(seed, n, *zip(*lanes))
    w = fiber._jacobi_eigenvalues_stack(h)
    assert w.shape == (len(lanes), n)
    for block, lane in zip(h, w):
        oracle = np.linalg.eigvalsh(block)
        assert np.abs(np.sort(lane) - oracle).max() <= 1e-13 * np.abs(oracle).max()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), lanes=lane_specs)
def test_stacked_lane_bits_do_not_depend_on_the_stack(seed, n, lanes):
    # lanes of mixed scales and spectra converge after different sweep counts
    h = hermitian_stack(seed, n, *zip(*lanes))
    w = fiber._jacobi_eigenvalues_stack(h)
    order = np.random.default_rng(seed).permutation(len(lanes))
    assert np.array_equal(fiber._jacobi_eigenvalues_stack(h[order]), w[order])
    for block, lane in zip(h, w):
        assert np.array_equal(fiber._jacobi_eigenvalues_stack(block[None])[0], lane)


def test_gram_eigenvalues_stack_matches_singular_values():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5):
        y = rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n))
        w = gram_eigenvalues_stack(y)
        assert w.min() >= 0.0
        oracle = np.linalg.svd(y, compute_uv=False) ** 2
        assert np.abs(np.sort(w, axis=1)[:, ::-1] - oracle).max() <= 1e-13 * oracle.max()


# ----------------------------------------------------------- norm primitives

def test_spectral_norm_matches_oracle():
    for seed in range(20):
        x = random_fiber(seed, dims=(3, 2))
        oracle = max(np.linalg.norm(b, 2) for b in x.blocks)
        assert abs(spectral_norm(x) - oracle) < 1e-10


def test_gram_eigenvalues_nonnegative():
    x = random_fiber(5, dims=(4,))
    for w in gram_eigenvalues(x):
        assert w.min() >= 0.0
