"""Dense complex-matrix kernels for a single fiber.

A fiber algebra is a finite direct sum of full matrix algebras; an element is
stored as an ordered tuple of square complex blocks (never flattened into one
big matrix, so the cost of a product is the sum of the per-block costs).
Everything here is a pure function of its inputs: arithmetic, two
self-contained cyclic Jacobi kernels on stacks of same-size blocks (Hermitian
eigenvalues, and one-sided for singular values; fixed sweep orders, hence
bit-deterministic), functional calculus, polar decomposition, and spectral
projections built on them.  Every solve takes all the same-size blocks its
caller has at once: one stacked solve per block size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, ShapeMismatchError

HERMITIAN_INPUT_TOL = 1e-10   # max-abs tolerance on ``a - a*``, relative to max |a|, in ``herm_eig``
JACOBI_OFFDIAG_TOL = 1e-14    # Jacobi stop: off-diagonal / ||a||_F, or |y_p* y_q| / ||y_p|| ||y_q||
JACOBI_MAX_SWEEPS = 100
NEGLIGIBLE = 2.0**-52         # a (p, q) entry, or a one-sided column, at most this times ||a||_F
PINV_CUTOFF = 1e-10           # singular values <= this times the largest count as kernel directions
EIGENVALUE_CLAMP = 1e-12      # eigenvalues this close to a cut, times a block's top |w|, snap to it


_SWAP_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _plane_turn(x, y, c, s, w, out_x=None, out_y=None):
    """``c x - s conj(w) y`` and ``s x + c conj(w) y``, written to ``out_x`` and ``out_y`` when given.

    ``x``, ``y``: contiguous ``(2, n, lanes)`` copies of two planes, real part
    first; ``w = (s wr, s wi, c wr, c wi)`` per lane.  Each complex product is
    formed from its real and imaginary parts.
    """
    y_swapped = y[::-1] * _SWAP_SIGNS  # (yi, -yr): times wi, the part conj(w) adds
    wy = w[0] * y
    wy += w[1] * y_swapped
    new_x = np.subtract(c * x, wy, out=out_x)
    wy = w[2] * y
    wy += w[3] * y_swapped
    return new_x, np.add(s * x, wy, out=out_y)


def _jacobi_eigenvalues_stack(h, vectors=False):
    """Eigenvalues of every Hermitian block of a stack ``h`` of shape ``(B, n, n)``.

    Returns a ``(B, n)`` array, unordered per block; with ``vectors`` it
    returns ``(w, u)``, ``u`` a ``(B, n, n)`` stack of unitaries with
    ``h[b] = u[b] @ diag(w[b]) @ u[b]*``; ``h`` must be exactly Hermitian.
    Each block (a lane) runs cyclic Jacobi sweeps in a fixed row-major (p, q)
    order: a unimodular phase ``w`` makes the (p, q) plane real symmetric,
    which a classical rotation annihilates, by ``j = [[c, s], [-s conj(w),
    c conj(w)]]``.  A step forms ``j* h j`` with one plane turn (Rutishauser
    1966; Golub & Van Loan §8.5): the columns p and q of ``h`` and ``u`` turn,
    rows p and q become their conjugates, and the (p, q) block is set to
    ``h_pp - t |h_pq|`` and ``h_qq + t |h_pq|`` (``t = s / c``) with zeros
    beside them.  An entry at most NEGLIGIBLE ``||h||_F`` takes the identity
    turn (t = 0): its angle would come from the rounding of ``h_qq - h_pp``,
    which stalled the sweeps on repeated eigenvalues.  The sweeps stop at
    ``off <= JACOBI_OFFDIAG_TOL * ||h||_F`` (the off-diagonal Frobenius norm,
    against that of the input), so the accuracy does not depend on the scale
    of ``h``.  All unconverged lanes rotate together, one numpy operation per
    step, and a lane leaves the stack at the first sweep that finds it
    converged; every operation is elementwise across lanes, so a lane's output
    does not depend on the stack.  A lane still unconverged after
    JACOBI_MAX_SWEEPS sweeps raises ContractViolationError.
    """
    lanes, n = h.shape[0], h.shape[-1]
    diag = np.arange(n)
    # a[0] and a[1] hold the real and imaginary parts, lanes last; with vectors,
    # rows n to 2n hold u, which takes the column turns of h
    a = np.zeros((2, 2 * n if vectors else n, n, lanes))
    a[0, :n], a[1, :n] = h.real.transpose(1, 2, 0), h.imag.transpose(1, 2, 0)
    if vectors:
        a[0, n + diag, diag] = 1.0
        u_out = np.empty((lanes, n, n), dtype=np.complex128)
    norm = np.hypot.reduce(np.hypot(a[0, :n], a[1, :n]).reshape(n * n, lanes))
    tol, floor = JACOBI_OFFDIAG_TOL * norm, NEGLIGIBLE * norm
    rows, cols = np.triu_indices(n, 1)  # the (p, q) pairs in row-major order
    out = np.empty((lanes, n))
    lane = np.arange(lanes)
    # huge entries square to inf: not yet converged; and tau * tau overflows only
    # for a (p, q) entry tiny next to h_qq - h_pp, whose t is then 0
    with np.errstate(over="ignore"):
        for sweeps in range(JACOBI_MAX_SWEEPS + 1):  # the stop test runs after the last sweep too
            offdiag = a[:, rows, cols]
            squares = 2.0 * (offdiag[0] * offdiag[0] + offdiag[1] * offdiag[1])
            off = 0.0
            for sq in squares:
                off = off + sq
            done = np.sqrt(off) <= tol
            if done.any():
                out[lane[done]] = a[0, diag, diag][:, done].T
                if vectors:
                    u_out.real[lane[done]] = a[0, n:][..., done].transpose(2, 0, 1)
                    u_out.imag[lane[done]] = a[1, n:][..., done].transpose(2, 0, 1)
                keep = ~done
                a, tol, floor, lane = a[..., keep], tol[keep], floor[keep], lane[keep]
            if not lane.size:  # every lane is done; an empty stack, at once
                break
            if sweeps == JACOBI_MAX_SWEEPS:
                raise ContractViolationError(
                    f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
                )
            for p, q in zip(rows.tolist(), cols.tolist()):
                re, im = a[0, p, q], a[1, p, q]
                app, aqq = a[0, p, p], a[0, q, q]
                r = np.hypot(re, im)
                skip = r <= floor
                any_skip = np.count_nonzero(skip)
                if any_skip:
                    r[skip] = 1.0
                tau = (aqq - app) / (2.0 * r)
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                wr = re / r
                wi = im / r
                if any_skip:  # a negligible (p, q) entry is zeroed by the identity turn: t = 0, w = 1
                    t[skip], wr[skip], wi[skip] = 0.0, 1.0, 0.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                tr = t * r
                new_pp, new_qq = app - tr, aqq + tr
                w = (s * wr, s * wi, c * wr, c * wi)
                _plane_turn(a[:, :, p].copy(), a[:, :, q].copy(), c, s, w, a[:, :, p], a[:, :, q])
                a[0, p], a[0, q] = a[0, :n, p], a[0, :n, q]
                np.negative(a[1, :n, p], out=a[1, p])
                np.negative(a[1, :n, q], out=a[1, q])
                plane = slice(p, q + 1, q - p)  # p and q
                block = a[:, plane, plane]
                block[...] = 0.0
                block[0, 0, 0], block[0, 1, 1] = new_pp, new_qq
    return (out, u_out) if vectors else out


def _row_sums(t):
    """Sum over axis -2 by adds in row order, which no lane count changes (``np.sum`` may)."""
    acc = t[..., 0, :]
    for k in range(1, t.shape[-2]):
        acc = acc + t[..., k, :]
    return acc


def _pair_sums(y_p, y_q):
    """``(4, lanes)``: ``||y_p||**2``, ``||y_q||**2``, re and im of ``y_p* y_q`` (columns as parts)."""
    pp, qq, pq, pq_swapped = y_p * y_p, y_q * y_q, y_p * y_q, y_p * y_q[::-1]
    return _row_sums(np.array([pp[0] + pp[1], qq[0] + qq[1],
                               pq[0] + pq[1], pq_swapped[0] - pq_swapped[1]]))


def _column_squares(a, n):
    """``(n, lanes)`` squared norms of the ``n`` columns held as in ``gram_eigenvalues_stack``."""
    y = a[:, :, :n]
    sq = y * y
    return _row_sums(sq[:, 0] + sq[:, 1])


def gram_eigenvalues_stack(y: np.ndarray, vectors=False):
    """Eigenvalues of ``y_s* y_s`` (squared singular values) for a stack ``y`` of shape
    ``(S, n, n)``, by one-sided (Hestenes) Jacobi on the blocks themselves.

    Returns an ``(S, n)`` array, unordered per block; with ``vectors``, ``(w, v)`` with ``v``
    the unitaries of right singular vectors.  No Gram matrix is formed, so ``sqrt(w)`` is
    accurate to about ``eps ||y_s||``.  Each block (a lane) is scaled by the power of 2 that
    brings its largest part into [0.5, 1), so no square leaves the float range, and ``w``
    is scaled back (inf where it overflows).  Sweeps turn the column pairs (p, q) in
    row-major order by the transform of ``_jacobi_eigenvalues_stack`` for the (p, q) entry
    of ``y* y``, from ``||y_p||**2``, ``||y_q||**2`` and ``y_p* y_q`` summed afresh from the
    columns (carried norms would cancel on a nearly dependent pair).  A pair is settled, and
    not turned, when ``|y_p* y_q| <= JACOBI_OFFDIAG_TOL ||y_p|| ||y_q||`` or a column is at
    most NEGLIGIBLE ``||y_s||_F``; a lane leaves after a sweep that turns nothing.
    Sums add in a fixed row order and all else is elementwise across lanes, so a lane's bits
    do not depend on the stack.  A lane still turning after JACOBI_MAX_SWEEPS sweeps raises
    ContractViolationError.
    """
    lanes, n = y.shape[0], y.shape[-1]
    # a[j, 0] and a[j, 1] hold the real and imaginary parts of column j, lanes last;
    # with vectors, rows n to 2n hold v, which takes the same column turns
    a = np.zeros((n, 2, 2 * n if vectors else n, lanes))
    a[:, 0, :n], a[:, 1, :n] = y.real.transpose(2, 1, 0), y.imag.transpose(2, 1, 0)
    exponent = np.frexp(np.abs(a[:, :, :n]).max(axis=(0, 1, 2)))[1]  # of the largest part
    a[:, :, :n] = np.ldexp(a[:, :, :n], -exponent)
    if vectors:
        a[np.arange(n), 0, np.arange(n, 2 * n)] = 1.0
        v_out = np.empty((lanes, n, n), dtype=np.complex128)
    floor = NEGLIGIBLE * np.sqrt(_row_sums(_column_squares(a, n)))  # ||y_s||_F
    out = np.empty((lanes, n))
    lane = np.arange(lanes)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(JACOBI_MAX_SWEEPS):
        turned = np.zeros(len(lane), dtype=bool)
        for p, q in pairs:
            sums = _pair_sums(a[p, :, :n], a[q, :, :n])
            r = np.hypot(sums[2], sums[3])
            norms = np.sqrt(sums[:2])
            turn = ((r > JACOBI_OFFDIAG_TOL * (norms[0] * norms[1]))
                    & (np.minimum(norms[0], norms[1]) > floor))
            if not turn.any():
                continue
            turned |= turn
            r[~turn] = 1.0  # a settled lane's turn is computed and discarded
            tau = (sums[1] - sums[0]) / (2.0 * r)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            phase = sums[2:] / r
            w = (s * phase[0], s * phase[1], c * phase[0], c * phase[1])
            new_p, new_q = _plane_turn(a[p], a[q], c, s, w)
            np.copyto(a[p], new_p, where=turn)  # settled lanes keep their columns bit for bit
            np.copyto(a[q], new_q, where=turn)
        done = ~turned
        if done.any():
            with np.errstate(over="ignore"):  # a block whose squares overflow: w = inf
                out[lane[done]] = np.ldexp(_column_squares(a, n)[:, done], 2 * exponent[done]).T
            if vectors:
                v_out.real[lane[done]] = a[:, 0, n:][..., done].transpose(2, 1, 0)
                v_out.imag[lane[done]] = a[:, 1, n:][..., done].transpose(2, 1, 0)
            a, floor, exponent, lane = a[..., turned], floor[turned], exponent[turned], lane[turned]
        if not lane.size:  # every lane is done; an empty stack, at once
            break
    else:
        raise ContractViolationError(f"one-sided Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    return (out, v_out) if vectors else out


class FiberElement:
    """Element of one fiber algebra: an ordered tuple of square complex blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        mats = []
        for k, b in enumerate(blocks):
            m = np.array(b, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
                raise ShapeMismatchError(f"block {k} is not a square matrix: shape {m.shape}")
            if not np.isfinite(m).all():
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

    def adjoint(self) -> "FiberElement":
        return FiberElement._raw([b.conj().T for b in self.blocks])

    def max_abs(self) -> float:
        return max(float(np.abs(b).max()) for b in self.blocks)


def identity_fiber(dims) -> FiberElement:
    return FiberElement._raw([np.eye(n, dtype=np.complex128) for n in dims])


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
        """Functional calculus: assemble ``u @ diag(fn(w)) @ u*`` blockwise.  The result goes
        through the public constructor, so a block with NaN or Inf entries (``fn(w)`` past the
        float range) raises ContractViolationError."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused by the constructor
            return FiberElement([(u * np.asarray(fn(w), dtype=np.float64)) @ u.conj().T
                                 for w, u in zip(self.eigenvalues, self.bases)])

    def projection(self, threshold: float) -> FiberElement:
        """``spectral_projection`` at ``threshold`` of the element with this spectral data."""
        def indicator(w):  # above the cut and not snapped onto it
            near = np.abs(w - threshold) <= EIGENVALUE_CLAMP * np.abs(w).max()
            return ((w > threshold) & ~near).astype(np.float64)

        return self.apply(indicator)


def solve_by_block_size(stacks, solve) -> list:
    """``solve`` ``(S_k, n, n)`` stacks of any lengths with one call per block size ``n``.

    ``solve`` returns one row per lane, or a tuple of such arrays; each stack gets its rows
    (a tuple of them likewise).
    """
    out = [None] * len(stacks)
    for n in sorted({s.shape[1] for s in stacks}):
        members = [k for k, s in enumerate(stacks) if s.shape[1] == n]
        rows = solve(np.concatenate([stacks[k] for k in members]))
        start = 0
        for k in members:  # plain slicing: np.split costs ~40 us per call at these sizes
            end = start + len(stacks[k])
            out[k] = tuple(r[start:end] for r in rows) if isinstance(rows, tuple) else rows[start:end]
            start = end
    return out


def _solve_blocks(x: FiberElement, solve) -> list:
    """``solve`` the blocks of one fiber as B = 1 stacks, one call per block size."""
    return solve_by_block_size([b[None] for b in x.blocks], solve)


def herm_eig(a: FiberElement) -> HermEig:
    """Deterministic Hermitian eigendecomposition of every block of ``a``.

    One stacked solve with eigenvectors per block size, of each block's
    Hermitian part ``(b + b*) / 2``.  Raises ContractViolationError when a
    block ``b`` is not Hermitian to within HERMITIAN_INPUT_TOL times its
    largest entry (max-abs entrywise), so the test does not depend on the
    scale of ``a``.
    """
    hermitian = []
    for k, b in enumerate(a.blocks):
        adjoint = b.conj().T
        drift, size = float(np.abs(b - adjoint).max()), float(np.abs(b).max())
        if drift > HERMITIAN_INPUT_TOL * size:
            raise ContractViolationError(
                f"block {k} is not Hermitian: max |a - a*| = {drift:.3e} against max |a| = {size:.3e}"
            )
        hermitian.append(0.5 * (b + adjoint))
    eigenvalues = []
    bases = []
    for w, u in _solve_blocks(FiberElement._raw(hermitian),
                              lambda h: _jacobi_eigenvalues_stack(h, vectors=True)):
        order = np.argsort(-w[0], kind="stable")
        eigenvalues.append(w[0, order])
        bases.append(np.ascontiguousarray(u[0][:, order]))
    return HermEig(eigenvalues, bases)


def _singular_eig(x: FiberElement) -> HermEig:
    """The spectral data of ``x* x`` from one ``gram_eigenvalues_stack`` solve per block size."""
    solved = _solve_blocks(x, lambda y: gram_eigenvalues_stack(y, vectors=True))
    return HermEig([w[0] for w, _ in solved], [v[0] for _, v in solved])


def abs_power(x: FiberElement, p: float) -> FiberElement:
    """``|x|**p = v diag(w**(p/2)) v*`` from the squared singular values ``w`` of each block.

    Intended for p >= 1 (the Lp norms); any nonnegative power works the same way.
    """
    return _singular_eig(x).apply(lambda w: w ** (p / 2.0))


def polar(x: FiberElement) -> tuple[FiberElement, FiberElement]:
    """Polar decomposition ``x = u h`` with ``h = |x| = v diag(s) v*`` positive.

    ``u = U v*`` with ``U = x v / s`` on ``s > PINV_CUTOFF * max(s)``, a cut relative to each block,
    formed as ``x (v diag(1 / s) v*)``, is a partial isometry that vanishes on the kernel of ``h``.
    """
    eig = _singular_eig(x)
    singulars = HermEig([np.sqrt(w) for w in eig.eigenvalues], eig.bases)
    h = singulars.apply(lambda s: s)
    return x * singulars.apply(lambda s: np.divide(1, s, out=np.zeros_like(s),
                                                   where=s > PINV_CUTOFF * s.max())), h


def spectral_projection(x: FiberElement, threshold: float) -> FiberElement:
    """Projection onto the eigenspaces of Hermitian ``x`` strictly above ``threshold``.

    Eigenvalues within EIGENVALUE_CLAMP times the block's largest |eigenvalue| of the
    threshold snap down onto it and are excluded, which keeps the projection stable for
    spectra numerically at the cut, at every scale of ``x``.
    """
    return herm_eig(x).projection(threshold)


def gram_eigenvalues(x: FiberElement) -> list[np.ndarray]:
    """Eigenvalues of ``x* x`` (squared singular values) per block, nonnegative, unordered.

    Lean path for norm computations that need only the spectrum: one
    ``gram_eigenvalues_stack`` call per block size of ``x``, with no descending
    sort and no singular vectors.
    """
    return [w[0] for w in _solve_blocks(x, gram_eigenvalues_stack)]


def spectral_norm(x: FiberElement) -> float:
    """Largest singular value across the blocks of ``x``."""
    return math.sqrt(max(float(w.max()) for w in gram_eigenvalues(x)))
