"""Dense complex-matrix kernels for a single fiber.

A fiber algebra is a finite direct sum of full matrix algebras; an element is
stored as an ordered tuple of square complex blocks (never flattened into one
big matrix, so the cost of a product is the sum of the per-block costs).
Everything here is a pure function of its inputs: arithmetic, a self-contained
Hermitian eigensolver (cyclic Jacobi with a fixed sweep order, hence
bit-deterministic, for one block or for a stack of same-size blocks),
functional calculus, polar decomposition, and spectral projections built on
top of it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, ShapeMismatchError

HERMITIAN_INPUT_TOL = 1e-10   # max-abs tolerance on ``a - a*`` for Hermitian-only kernels
JACOBI_OFFDIAG_TOL = 1e-14    # off-diagonal Frobenius norm stopping threshold, relative to ||a||_F
JACOBI_MAX_SWEEPS = 100
PINV_CUTOFF = 1e-10           # singular values at or below this count as kernel directions
EIGENVALUE_CLAMP = 1e-12      # eigenvalues this close to a spectral cut snap onto it


def _jacobi_hermitian(a, vectors=True):
    """Eigendecomposition of one Hermitian complex block by cyclic Jacobi.

    Returns ``(w, u)`` with ``a = u @ diag(w) @ u*`` and ``w`` unordered;
    ``u`` is None when ``vectors`` is false, which skips its accumulation
    without changing a bit of ``w``.
    Rotations are applied in a fixed row-major (p, q) order, so the output is
    a deterministic function of the input bits.  The sweeps run on nested
    lists of Python complex scalars, which at these block sizes is cheaper
    than per-element numpy indexing; arrays are built only at the end.
    The sweeps stop once the off-diagonal Frobenius norm is at most
    JACOBI_OFFDIAG_TOL times that of ``a`` (rotations preserve the latter),
    so the accuracy does not depend on the scale of ``a``; a block still
    above it after JACOBI_MAX_SWEEPS sweeps raises ContractViolationError.
    """
    n = a.shape[0]
    h = a.tolist()
    u = np.eye(n, dtype=np.complex128).tolist() if vectors else []
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    tol = JACOBI_OFFDIAG_TOL * math.hypot(*[abs(v) for row in h for v in row])
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p, q in pairs:
            hpq = h[p][q]
            off += 2.0 * (hpq.real * hpq.real + hpq.imag * hpq.imag)
        if math.sqrt(off) <= tol:
            break
        for p, q in pairs:
            hp = h[p]
            hq = h[q]
            hpq = hp[q]
            r = abs(hpq)
            if r == 0.0:
                continue
            # Unimodular phase w turns the (p, q) plane Hermitian block
            # into a real symmetric one; then a classical Jacobi rotation
            # annihilates it.  The combined plane transform is
            # j = [[c, s], [-s*conj(w), c*conj(w)]].
            w = hpq / r
            wc = w.conjugate()
            tau = (hq[q].real - hp[p].real) / (2.0 * r)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            swc = s * wc
            cwc = c * wc
            for hi in h:  # columns p, q of h: h j
                x = hi[p]
                y = hi[q]
                hi[p] = c * x - swc * y
                hi[q] = s * x + cwc * y
            for ui in u:  # columns p, q of u: u j
                x = ui[p]
                y = ui[q]
                ui[p] = c * x - swc * y
                ui[q] = s * x + cwc * y
            sw = s * w
            cw = c * w
            for i in range(n):  # rows p, q of h: j* h
                x = hp[i]
                y = hq[i]
                hp[i] = c * x - sw * y
                hq[i] = s * x + cw * y
    else:
        raise ContractViolationError(
            f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
        )
    w = np.array([h[i][i].real for i in range(n)], dtype=np.float64)
    return w, (np.array(u, dtype=np.complex128) if vectors else None)


_SWAP_SIGN = np.array([-1.0, 1.0]).reshape(2, 1, 1)


def _plane_turn(x, y, c, s, wr, wi):
    """``(c x - s w y, s x + c w y)`` for complex vectors stored as (re, im) pairs.

    ``x`` and ``y`` have shape ``(2, n, lanes)``; ``c``, ``s`` and the phase
    ``w = wr + i wi`` have one value per lane.  Each product is formed the
    way Python forms the complex products of ``_jacobi_hermitian``.
    """
    y_swapped = y[::-1]
    sw_im = _SWAP_SIGN * (s * wi)
    cw_im = _SWAP_SIGN * (c * wi)
    new_x = c * x - ((s * wr) * y + sw_im * y_swapped)
    new_y = s * x + ((c * wr) * y + cw_im * y_swapped)
    return new_x, new_y


def _jacobi_eigenvalues_stack(h):
    """Eigenvalues of every Hermitian block of a stack ``h`` of shape ``(B, n, n)``.

    Returns a ``(B, n)`` array, unordered per block.  Each block (a lane)
    runs the eigenvalue-only sweeps of ``_jacobi_hermitian``: the same
    row-major (p, q) rotation order, the same plane transforms written out in
    real float64 arithmetic, and the same stop at
    ``off <= JACOBI_OFFDIAG_TOL * ||a||_F`` (here ``||a||_F`` is accumulated
    by ``np.hypot``).  All unconverged lanes rotate together, one numpy
    operation per step, and a lane leaves the stack at the first sweep that
    finds it converged.  Every operation is elementwise across lanes, so a
    lane's eigenvalues do not depend on the other lanes or on its position in
    the stack.  A stack with a lane still unconverged after JACOBI_MAX_SWEEPS
    sweeps raises ContractViolationError.  For a single block the list kernel
    is the faster one.
    """
    lanes, n = h.shape[0], h.shape[-1]
    # a[0] and a[1] hold the real and imaginary parts, lanes last
    a = np.stack([h.real, h.imag]).transpose(0, 2, 3, 1).copy()
    norm = np.zeros(lanes)
    for i in range(n):
        for j in range(n):
            norm = np.hypot(norm, np.hypot(a[0, i, j], a[1, i, j]))
    tol = JACOBI_OFFDIAG_TOL * norm
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    rows = [p for p, _ in pairs]
    cols = [q for _, q in pairs]
    diag = np.arange(n)
    out = np.empty((lanes, n))
    lane = np.arange(lanes)
    for _ in range(JACOBI_MAX_SWEEPS):
        offdiag = a[:, rows, cols]
        squares = 2.0 * (offdiag[0] * offdiag[0] + offdiag[1] * offdiag[1])
        off = 0.0
        for sq in squares:
            off = off + sq
        done = np.sqrt(off) <= tol
        if done.any():
            out[lane[done]] = a[0, diag, diag][:, done].T
            if done.all():
                break
            keep = ~done
            a, tol, lane = a[..., keep], tol[keep], lane[keep]
        for p, q in pairs:
            re, im = a[0, p, q], a[1, p, q]
            r = np.hypot(re, im)
            skip = r == 0.0
            any_skip = skip.any()
            if any_skip:
                r[skip] = 1.0
            # tau * tau overflows only for a negligible (p, q) entry; t is then
            # 0, as in the list kernel
            with np.errstate(over="ignore"):
                tau = (a[0, q, q] - a[0, p, p]) / (2.0 * r)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            wr = re / r
            wi = im / r
            if any_skip:  # the list kernel leaves these planes alone
                c[skip], s[skip], wr[skip] = 1.0, 0.0, 1.0
            a[:, :, p], a[:, :, q] = _plane_turn(a[:, :, p], a[:, :, q], c, s, wr, -wi)
            a[:, p], a[:, q] = _plane_turn(a[:, p], a[:, q], c, s, wr, wi)
    else:
        raise ContractViolationError(
            f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
        )
    return out


class FiberElement:
    """Element of one fiber algebra: an ordered tuple of square complex blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        mats = []
        for k, b in enumerate(blocks):
            m = np.array(b, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
                raise ShapeMismatchError(f"block {k} is not a square matrix: shape {m.shape}")
            if not np.all(np.isfinite(m.view(np.float64))):
                raise ContractViolationError(f"block {k} contains NaN or Inf entries")
            mats.append(m)
        if not mats:
            raise ShapeMismatchError("a fiber element needs at least one block")
        self.blocks = tuple(mats)

    @classmethod
    def _raw(cls, blocks):
        # internal fast path: caller guarantees well-formed complex128 blocks
        self = object.__new__(cls)
        self.blocks = tuple(blocks)
        return self

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def _require_same_shape(self, other: "FiberElement"):
        if self.dims != other.dims:
            raise ShapeMismatchError(f"fiber shapes differ: {self.dims} vs {other.dims}")

    def __add__(self, other: "FiberElement") -> "FiberElement":
        self._require_same_shape(other)
        return FiberElement._raw([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "FiberElement") -> "FiberElement":
        self._require_same_shape(other)
        return FiberElement._raw([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        """Algebra product for a FiberElement argument, scaling for a scalar."""
        if isinstance(other, FiberElement):
            self._require_same_shape(other)
            return FiberElement._raw([a @ b for a, b in zip(self.blocks, other.blocks)])
        return FiberElement._raw([complex(other) * b for b in self.blocks])

    def __rmul__(self, scalar):
        return FiberElement._raw([complex(scalar) * b for b in self.blocks])

    def __neg__(self):
        return FiberElement._raw([-b for b in self.blocks])

    def adjoint(self) -> "FiberElement":
        return FiberElement._raw([b.conj().T for b in self.blocks])

    def copy(self) -> "FiberElement":
        return FiberElement._raw([b.copy() for b in self.blocks])

    def max_abs(self) -> float:
        return max(float(np.abs(b).max()) for b in self.blocks)

    def __repr__(self):
        return f"FiberElement(dims={self.dims})"


def identity_fiber(dims) -> FiberElement:
    return FiberElement._raw([np.eye(n, dtype=np.complex128) for n in dims])


def zero_fiber(dims) -> FiberElement:
    return FiberElement._raw([np.zeros((n, n), dtype=np.complex128) for n in dims])


class HermEig:
    """Spectral data of a Hermitian fiber element.

    Per block: real eigenvalues in descending order and the matching unitary
    basis, satisfying ``block = basis @ diag(eigenvalues) @ basis*``.
    """

    __slots__ = ("eigenvalues", "bases")

    def __init__(self, eigenvalues, bases):
        self.eigenvalues = tuple(eigenvalues)
        self.bases = tuple(bases)

    def apply(self, fn) -> FiberElement:
        """Functional calculus: assemble ``u @ diag(fn(w)) @ u*`` blockwise."""
        out = []
        for w, u in zip(self.eigenvalues, self.bases):
            fw = np.asarray(fn(w), dtype=np.float64)
            out.append((u * fw) @ u.conj().T)
        return FiberElement._raw(out)


def herm_eig(a: FiberElement) -> HermEig:
    """Deterministic Hermitian eigendecomposition of every block of ``a``.

    Raises ContractViolationError when ``a`` is not Hermitian to within
    HERMITIAN_INPUT_TOL (max-abs entrywise).
    """
    eigenvalues = []
    bases = []
    for k, b in enumerate(a.blocks):
        drift = float(np.abs(b - b.conj().T).max())
        if drift > HERMITIAN_INPUT_TOL:
            raise ContractViolationError(
                f"block {k} is not Hermitian: max |a - a*| = {drift:.3e}"
            )
        w, u = _jacobi_hermitian(np.ascontiguousarray(b))
        order = np.argsort(-w, kind="stable")
        eigenvalues.append(w[order])
        bases.append(np.ascontiguousarray(u[:, order]))
    return HermEig(eigenvalues, bases)


def _gram_eig(x: FiberElement) -> HermEig:
    """Eigendecomposition of ``x* x`` with negatives clamped to zero."""
    gram = FiberElement._raw([b.conj().T @ b for b in x.blocks])
    eig = herm_eig(gram)
    return HermEig([np.maximum(w, 0.0) for w in eig.eigenvalues], eig.bases)


def abs_power(x: FiberElement, p: float) -> FiberElement:
    """``|x|**p`` computed as ``(x* x)**(p/2)`` through the eigensolver.

    Intended for p >= 1 (the Lp norms); any nonnegative power works the same
    way since ``x* x`` is positive semidefinite.
    """
    return _gram_eig(x).apply(lambda w: w ** (p / 2.0))


def polar(x: FiberElement) -> tuple[FiberElement, FiberElement]:
    """Polar decomposition ``x = u h`` with ``h = |x|`` positive.

    ``u`` is the partial isometry ``x h^+`` (pseudo-inverse with singular
    cutoff PINV_CUTOFF), so it vanishes on the kernel of ``h``.
    """
    def cut_inverse(s):
        out = np.zeros_like(s)
        supported = s > PINV_CUTOFF
        out[supported] = 1.0 / s[supported]
        return out

    eig = _gram_eig(x)
    singulars = HermEig([np.sqrt(w) for w in eig.eigenvalues], eig.bases)
    h = singulars.apply(lambda s: s)
    return x * singulars.apply(cut_inverse), h


def spectral_projection(x: FiberElement, threshold: float) -> FiberElement:
    """Projection onto the eigenspaces of Hermitian ``x`` strictly above ``threshold``.

    Eigenvalues within EIGENVALUE_CLAMP of the threshold snap down onto it and
    are excluded, which keeps the projection stable for spectra numerically at
    the cut.
    """
    eig = herm_eig(x)

    def indicator(w):
        snapped = np.where(np.abs(w - threshold) <= EIGENVALUE_CLAMP, threshold, w)
        return (snapped > threshold).astype(np.float64)

    return eig.apply(indicator)


def singular_values(x: FiberElement) -> tuple[np.ndarray, ...]:
    """Per-block singular values in descending order."""
    eig = _gram_eig(x)
    return tuple(np.sqrt(w) for w in eig.eigenvalues)


def gram_eigenvalues(x: FiberElement) -> list[np.ndarray]:
    """Eigenvalues of ``x* x`` per block, clamped nonnegative, unordered.

    Lean path for norm computations that need only the spectrum; skips the
    Hermiticity check (the Gram matrix is Hermitian by construction), the
    descending sort, and the basis bookkeeping of ``herm_eig``.
    """
    out = []
    for b in x.blocks:
        w, _ = _jacobi_hermitian(b.conj().T @ b, vectors=False)
        out.append(np.maximum(w, 0.0))
    return out


def gram_eigenvalues_stack(y: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``y_s* y_s`` for a stack ``y`` of shape ``(S, n, n)``.

    Returns an ``(S, n)`` array, clamped nonnegative and unordered per block.
    One stacked Jacobi solve serves the whole stack; single fibers go through
    ``gram_eigenvalues`` and the list kernel, which is faster for one block.
    """
    gram = np.einsum("ski,skj->sij", y.conj(), y)
    return np.maximum(_jacobi_eigenvalues_stack(gram), 0.0)


def spectral_norm(x: FiberElement) -> float:
    """Largest singular value across the blocks of ``x``."""
    return math.sqrt(max(float(w.max()) for w in gram_eigenvalues(x)))
