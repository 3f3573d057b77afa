"""Independent oracles used by the test suite.

The two list kernels run one block at a time on Python scalars and are the
bit-for-bit references of the stacked kernels.  ``jacobi_hermitian`` is the
cyclic Jacobi eigensolver of one Hermitian block on nested lists of Python
complex scalars, the reference of ``fiber._jacobi_eigenvalues_stack``: it runs
the same sweeps and forms every product of a real and a complex number on the
real and imaginary parts, as the stacked kernel does.  ``jacobi_singular`` is
the one-sided Jacobi solve of one block on lists of Python floats, the
reference of ``fiber.gram_eigenvalues_stack``: the same scaling, pair order,
row-by-row sums, stop rule and untouched settled pairs.  The norm references
take their spectra from them one block at a time
(``herm_eigenvalues_reference`` from the first; ``gram_eigenvalues_reference``,
``spectral_norm_reference`` and ``lp_norm_reference`` from the second), so the
per-trial and per-sample references below stay independent of the kernels
they check.

The exact-rational oracle recomputes the trace-inner-product projection with
``fractions.Fraction`` arithmetic (floats convert to rationals exactly), using
a plain Gram-system solve over a matrix-unit basis.  It shares no code path
with the float implementation: no Gram-Schmidt, no orthonormalization, no
eigensolver.

The witness reference is the Hoelder witness that ``tracelp.dual_extremal``
built before its closed form: ``u*`` at p = 1 and
``norm_p**(-p/q) * |x|**(p - 1) * u*`` above, with ``x = u |x|``, each block's
polar factors and power formed from its ``jacobi_singular`` solve.

The duality reference is the one-sample-at-a-time loop that
``tracelp.duality_check`` ran before its samples were stacked: one section
per sample, rescaled fiber by fiber through ``spectral_norm_reference`` or
``lp_norm_reference``, and paired through ``center_trace``.

The sampled-excess reference is the all-lanes loop that ``tracelp.duality_checks``
ran before it solved only the samples that can set a case's worst violation: group
by group, every sample lane's dual norm from one stacked solve per block size
(``shared_lp_norms``), every lane's excess, and each case's maximum.  It uses the
stacked kernels, so equal reports show, bit for bit, that the lanes left unsolved
never held a maximum.

The axiom reference is the one-trial-at-a-time loop that
``condexp.check_cond_exp_axioms`` ran before its trials were stacked: each
trial draws its sections and subalgebra elements, applies
``ConditionalExpectation.__call__``, and measures through
``herm_eigenvalues_reference``, ``center_trace``, ``lp_norm_reference`` and
``scalarize``.  Its locality check applies ``E`` once per atom, to ``x`` with
every other atom's fiber taken from the trial's ``pos`` draw.

Both draw as the checkers do, from one ``Stream`` per check (duality) or per
tag (axioms), but one lane at a time: a sample or trial section is one
``standard_normal(2 * total)`` call, a subalgebra element one pair of
``standard_normal(rank)`` calls per projector, and the center weights one
``uniform`` call.  Equal reports therefore also show that the checkers' bulk,
chunked draws give every lane the values of this per-lane stream.

The tower references are the per-element loops that ``validate_subalgebra``
and ``build_filtration`` ran before their checks became matrix identities on
the projector bases: one membership residual per basis adjoint and per basis
product (closure), per lower-level basis element (inclusion), and one pair of
projections per matrix unit (composition).  They read a projector's ``ortho``
and ``sqrt_weights`` and project one fiber element at a time with their own
code.

The closure-loop reference is the loop that ``validate_subalgebra`` ran before
the stacked closure residual became its stopping test: product rounds until a
round accepts nothing or the span fills the fiber algebra, then one closure
residual after the loop.

The held-tail references are the per-step loops that ``martingale`` and
``runner`` ran before the held tail became array operations: one running
float total and one ratio ``W_K / W_n`` per held step, one list of per-atom
floats per step for the Cesaro traces (one ``lp_norm_reference`` per step), and
one ``write`` per ``traces.csv`` row.

The martingale-phase reference is the per-seed loop that
``runner.run_martingale_checks`` ran before every seed's checks became one
stacked ``martingale_checks`` pass: the martingale of each seed projected by
``ConditionalExpectation.__call__``, its means by section arithmetic, and its
norms from ``lp_norms`` calls on sections.

The trace-phase reference is the per-trial loop that ``runner.run_trace_checks`` ran
before its trials were stacked, on the phase's lanes: one ``gaussian_section`` per
trial from each of the ``trace-x`` and ``trace-y`` streams, products as ``Section``
arithmetic, traces through ``center_trace``, and each fiber's squared spectral norm from
``gram_eigenvalues_reference``.

The library views that only the tests use live here too: ``zero_fiber`` and ``zero_section``,
``scalarize`` (the numerical trace ``sum_w nu(w) trace(x)(w)``), and a subalgebra's
``membership_residual`` and seed-deterministic ``random_element``.

The closed-form conditional expectations are those of the preset levels, built from
``towers._partition`` alone: ``scalars`` maps a fiber to
``(sum_j c_j tr x_j / sum_j c_j n_j) 1``, and every other preset level is a pinching,
which keeps the entries inside the parts of its partition and zeroes the rest.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from tracebundle import (
    AxiomReport,
    ContractViolationError,
    FiberElement,
    Section,
    ShapeMismatchError,
    UsageError,
    center_trace,
    derive_seed,
    identity_fiber,
    identity_section,
    lp_norms,
    random_section,
    validate_subalgebra,
)
from tracebundle.bundle import (Stream, from_planes, gaussian_stacks, lane_section, seeded_stream,
                               split_blocks)
from tracebundle.condexp import (CONTRACTION_EXPONENTS, ORTHO_PIVOT_TOL, _closure_residual,
                                 _FiberProjector)
from tracebundle.fiber import JACOBI_MAX_SWEEPS, JACOBI_OFFDIAG_TOL, NEGLIGIBLE, PINV_CUTOFF
from tracebundle.towers import _partition, level_generators
from tracebundle.tracelp import (
    _target_stacks,
    packed_chunks,
    section_stacks,
    shared_lp_norms,
)


def zero_fiber(dims) -> FiberElement:
    return FiberElement._raw([np.zeros((n, n), dtype=np.complex128) for n in dims])


def zero_section(bundle) -> Section:
    return Section._raw(bundle, [zero_fiber(s) for s in bundle.fiber_shapes])


def scalarize(nu, x: Section) -> complex:
    """Numerical trace obtained by integrating the center-valued trace.

    ``nu`` is a strictly positive weight per atom (a faithful functional on
    the center); the result is ``sum_w nu(w) * trace(x)(w)``.
    """
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (x.bundle.space.size,):
        raise UsageError("need one scalarization weight per atom")
    if np.any(nu <= 0.0) or not np.all(np.isfinite(nu)):
        raise UsageError("scalarization weights must be finite and strictly positive")
    return complex(np.sum(nu * center_trace(x)))


def membership_residual(basis, x: Section) -> float:
    """The largest distance of a fiber of ``x`` to the span of ``basis`` at its atom."""
    if x.bundle is not basis.bundle and x.bundle != basis.bundle:
        raise ShapeMismatchError("section lives on a different bundle")
    return max(float(p.stack_residuals([b[None] for b in f.blocks])[0])
               for p, f in zip(basis.projectors, x.fibers))


def random_element(basis, seed: int) -> Section:
    """Seed-deterministic element of the subalgebra (Gaussian coefficients)."""
    return lane_section(basis.bundle, basis.random_stacks(seeded_stream([seed], 7), 1), 0)


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z):
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    def __add__(self, o):
        return QC(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return QC(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def conj(self):
        return QC(self.re, -self.im)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        n = self * o.conj()
        return QC(n.re / d, n.im / d)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def to_complex(self):
        return complex(float(self.re), float(self.im))


def qc_matrix(array) -> list:
    a = np.asarray(array, dtype=np.complex128)
    return [[QC.from_complex(a[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])]


def _solve_exact(gram, rhs):
    """Gaussian elimination over exact complex rationals."""
    k = len(gram)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if not aug[r][col].is_zero())
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(k):
            if r != col and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][k] for r in range(k)]


class ExactFiberProjection:
    """Exact trace-inner-product projection onto a rational-basis span.

    ``basis`` is a list of fiber elements given as lists of block matrices
    (anything convertible to complex arrays with exactly representable
    entries); ``weights`` are the per-block trace weights.
    """

    def __init__(self, basis_blocks, weights):
        self.weights = [Fraction(float(c)) for c in weights]
        self.basis = [[qc_matrix(b) for b in elem] for elem in basis_blocks]
        k = len(self.basis)
        self.gram = [
            [self._inner(self.basis[i], self.basis[j]) for j in range(k)]
            for i in range(k)
        ]

    def _inner(self, a_blocks, b_blocks):
        # <a, b> = sum_j c_j tr(b_j* a_j), exactly
        total = QC()
        for c, a, b in zip(self.weights, a_blocks, b_blocks):
            n = len(a)
            cc = QC(c)
            for i in range(n):
                for j in range(n):
                    total = total + cc * (b[i][j].conj() * a[i][j])
        return total

    def project(self, blocks):
        x = [qc_matrix(b) for b in blocks]
        rhs = [self._inner(x, e) for e in self.basis]
        coeffs = _solve_exact(self.gram, rhs)
        out = []
        for bi, xb in enumerate(x):
            n = len(xb)
            acc = [[QC() for _ in range(n)] for _ in range(n)]
            for coeff, elem in zip(coeffs, self.basis):
                eb = elem[bi]
                for i in range(n):
                    for j in range(n):
                        acc[i][j] = acc[i][j] + coeff * eb[i][j]
            out.append(
                np.array([[v.to_complex() for v in row] for row in acc], dtype=np.complex128)
            )
        return out


def matrix_unit_blocks(shape, block_index, i, j):
    """One matrix-unit fiber element as plain numpy blocks."""
    blocks = [np.zeros((n, n), dtype=np.complex128) for n in shape]
    blocks[block_index][i, j] = 1.0
    return blocks


def pinching_basis(shape, partition):
    """Matrix units of a block-diagonal refinement, as plain block lists."""
    out = []
    for bi, ranges in enumerate(partition):
        for start, stop in ranges:
            for i in range(start, stop):
                for j in range(start, stop):
                    out.append(matrix_unit_blocks(shape, bi, i, j))
    return out


def jacobi_hermitian(a, vectors=True):
    """Eigendecomposition of one Hermitian complex block by cyclic Jacobi (the list kernel).

    Returns ``(w, u)`` with ``a = u @ diag(w) @ u*`` and ``w`` unordered; ``u`` is None
    when ``vectors`` is false.  Rotations run in the fixed row-major (p, q) order of the
    stacked kernel, each as its one plane turn: the columns p and q of ``h`` and ``u``,
    rows p and q of ``h`` as the conjugated columns, and the (p, q) block in closed form; a
    plane whose entry is zero, or negligible next to both diagonal entries, turns by the
    identity.  The sweeps stop once the off-diagonal Frobenius norm is at most
    JACOBI_OFFDIAG_TOL times that of ``a``; a block still above it after
    JACOBI_MAX_SWEEPS sweeps raises.  A real factor multiplies the real and imaginary
    parts on their own: Python's ``c * z`` for a float ``c`` would promote ``c`` to
    ``complex(c, 0.0)``, and ``2.0 * complex(-0.0, -1.0)`` would get the real part 0.0
    where the stacked kernel gets -0.0.
    """
    def scaled(c, z):
        return complex(c * z.real, c * z.imag)

    n = a.shape[0]
    h = a.tolist()
    u = np.eye(n, dtype=np.complex128).tolist() if vectors else []
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    # ||a||_F by two-argument hypots in row-major order, as np.hypot.reduce forms it (the
    # libm hypot of abs(complex); math.hypot of many arguments rounds differently)
    norm = functools.reduce(lambda acc, v: abs(complex(acc, v)), [abs(v) for row in h for v in row])
    tol, floor = JACOBI_OFFDIAG_TOL * norm, NEGLIGIBLE * norm
    for sweeps in range(JACOBI_MAX_SWEEPS + 1):  # the stop test runs after the last sweep too
        off = 0.0
        for p, q in pairs:
            hpq = h[p][q]
            off += 2.0 * (hpq.real * hpq.real + hpq.imag * hpq.imag)
        if math.sqrt(off) <= tol:
            break
        if sweeps == JACOBI_MAX_SWEEPS:
            raise ContractViolationError(
                f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
            )
        for p, q in pairs:
            hp = h[p]
            hq = h[q]
            hpq = hp[q]
            r = abs(hpq)
            app, aqq = hp[p].real, hq[q].real
            if r <= floor:
                # a negligible plane is zeroed by the identity turn, as in the stacked kernel,
                # where every lane turns; its values are unchanged, the sign of a zero may not be
                r, t, w = 1.0, 0.0, complex(1.0, 0.0)
            else:
                # the phase w makes the (p, q) plane real symmetric, a rotation
                # annihilates it: the transform is j = [[c, s], [-s*conj(w), c*conj(w)]]
                w = complex(hpq.real / r, hpq.imag / r)
                tau = (aqq - app) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            new_pp, new_qq = app - t * r, aqq + t * r
            wc = w.conjugate()
            swc = scaled(s, wc)
            cwc = scaled(c, wc)
            for row in h + u:  # columns p, q of h and of u: h j, u j
                x = row[p]
                y = row[q]
                row[p] = scaled(c, x) - swc * y
                row[q] = scaled(s, x) + cwc * y
            for i in range(n):  # rows p, q of j* h j, by Hermitian symmetry
                hp[i] = h[i][p].conjugate()
                hq[i] = h[i][q].conjugate()
            # the (p, q) block of j* h j in closed form
            hp[p], hp[q] = complex(new_pp, 0.0), complex(0.0, 0.0)
            hq[p], hq[q] = complex(0.0, 0.0), complex(new_qq, 0.0)
    w = np.array([h[i][i].real for i in range(n)], dtype=np.float64)
    return w, (np.array(u, dtype=np.complex128) if vectors else None)


def jacobi_singular(y, vectors=True):
    """Squared singular values of one complex block by one-sided Jacobi (the list kernel).

    Returns ``(w, v)`` with ``w`` unordered and ``v`` the right singular vectors, so
    ``y* y = v @ diag(w) @ v*``; ``v`` is None when ``vectors`` is false.  The steps are
    those of ``fiber.gram_eigenvalues_stack`` on Python floats, real and imaginary parts
    apart: the block is scaled by the power of 2 that brings its largest real or imaginary
    part into [0.5, 1) and ``w`` scaled back; column pairs turn in row-major order; the
    sums ``||y_p||**2``, ``||y_q||**2`` and ``y_p* y_q`` are added row by row; a pair with
    ``|y_p* y_q| <= JACOBI_OFFDIAG_TOL ||y_p|| ||y_q||``, or with a column at most
    NEGLIGIBLE times ``||y||_F``, is not turned; the block is done after a sweep
    that turns nothing, and one still turning after JACOBI_MAX_SWEEPS sweeps raises.
    """
    n = y.shape[0]
    top = max(max(abs(z.real), abs(z.imag)) for z in y.ravel().tolist())
    e = math.frexp(top)[1]
    # cols[j] = [re, im] of column j: the rows of y, then (with vectors) those of v
    cols = []
    for j in range(n):
        re = [math.ldexp(float(y[i, j].real), -e) for i in range(n)]
        im = [math.ldexp(float(y[i, j].imag), -e) for i in range(n)]
        if vectors:
            re += [1.0 if i == j else 0.0 for i in range(n)]
            im += [0.0] * n
        cols.append([re, im])

    def row_sum(terms):
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return acc

    def squares(col):
        re, im = col
        return row_sum([re[k] * re[k] + im[k] * im[k] for k in range(n)])

    floor = NEGLIGIBLE * math.sqrt(row_sum([squares(col) for col in cols]))
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(JACOBI_MAX_SWEEPS):
        turned = False
        for p, q in pairs:
            (pr, pi), (qr, qi) = cols[p], cols[q]
            alpha, beta = squares(cols[p]), squares(cols[q])
            gr = row_sum([pr[k] * qr[k] + pi[k] * qi[k] for k in range(n)])
            gi = row_sum([pr[k] * qi[k] - pi[k] * qr[k] for k in range(n)])
            r = abs(complex(gr, gi))
            sa, sb = math.sqrt(alpha), math.sqrt(beta)
            if r <= JACOBI_OFFDIAG_TOL * (sa * sb) or min(sa, sb) <= floor:
                continue
            turned = True
            # the transform [[c, s], [-s conj(w), c conj(w)]] of the Hermitian kernel, w the
            # phase of y_p* y_q: column p takes c y_p - s conj(w) y_q, column q s y_p + c conj(w) y_q
            tau = (beta - alpha) / (2.0 * r)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            wr, wi = gr / r, gi / r
            w0, w1, w2, w3 = s * wr, s * wi, c * wr, c * wi
            for k in range(len(pr)):
                xr, xi, yr, yi = pr[k], pi[k], qr[k], qi[k]
                # conj(w) y from the parts of y and of its swap (yi, -yr)
                sr, si = yi * 1.0, yr * -1.0
                pr[k] = c * xr - (w0 * yr + w1 * sr)
                pi[k] = c * xi - (w0 * yi + w1 * si)
                qr[k] = s * xr + (w2 * yr + w3 * sr)
                qi[k] = s * xi + (w2 * yi + w3 * si)
        if not turned:
            break
    else:
        raise ContractViolationError(f"one-sided Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    w = []
    for col in cols:
        try:
            w.append(math.ldexp(squares(col), 2 * e))
        except OverflowError:  # a block whose squares overflow
            w.append(math.inf)
    w = np.array(w)
    if not vectors:
        return w, None
    v = np.array([[complex(cols[j][0][n + i], cols[j][1][n + i]) for j in range(n)]
                  for i in range(n)])
    return w, v


def herm_eigenvalues_reference(f):
    """Per block of a Hermitian fiber, the list kernel's eigenvalues in descending order."""
    return [np.sort(jacobi_hermitian(b, vectors=False)[0])[::-1] for b in f.blocks]


def gram_eigenvalues_reference(f):
    """Per block, the eigenvalues of ``b* b`` (squared singular values) from ``jacobi_singular``."""
    return [jacobi_singular(b, vectors=False)[0] for b in f.blocks]


def spectral_norm_reference(f):
    """Largest singular value of a fiber, from ``jacobi_singular``."""
    return math.sqrt(max(float(w.max()) for w in gram_eigenvalues_reference(f)))


def lp_norm_reference(x, p):
    """Per-atom Lp norms of one section, fiber by fiber, from the list kernel.

    p = 2 sums ``c_j vdot(x_j, x_j)``; other exponents sum ``c_j (w / top)**(p/2)`` over the
    Gram spectra, ``top`` the atom's largest.  The roots are taken on the array of atoms.
    """
    p = float(p)
    totals, tops = [], []
    for f, cs in zip(x.fibers, x.bundle.trace_weights):
        total = 0.0
        if p == 2.0:
            for c, b in zip(cs, f.blocks):
                total += c * float(np.vdot(b, b).real)
        else:
            spectra = gram_eigenvalues_reference(f)
            top = max(float(w.max()) for w in spectra)
            divisor = top if 0.0 < top < math.inf else 1.0
            for c, w in zip(cs, spectra):
                total += c * float(np.sum((w / divisor) ** (p / 2.0)))
            tops.append(top)
        totals.append(total)
    if p == 2.0:
        return np.sqrt(np.array(totals))
    return np.sqrt(np.array(tops)) * np.array(totals) ** (1.0 / p)


def eigh_oracle(block):
    """numpy's LAPACK Hermitian eigensolver, descending eigenvalues."""
    w, u = np.linalg.eigh(block)
    return w[::-1], u[:, ::-1]


def _rescale_to_dual_ball(y, p):
    """Divide each fiber by its uniform norm (p = 1) or Lq norm; zero fibers stay."""
    fibers = []
    if p == 1.0:
        for f in y.fibers:
            scale = spectral_norm_reference(f)
            fibers.append((1.0 / scale) * f if scale > 0.0 else f)
    else:
        q = p / (p - 1.0)
        norms = lp_norm_reference(y, q)
        for f, nq in zip(y.fibers, norms):
            fibers.append((1.0 / float(nq)) * f if nq > 0.0 else f)
    return Section(y.bundle, fibers)


def gaussian_section(bundle, stream):
    """The next standard complex Gaussian section of ``stream``, from one ``2 * total`` draw."""
    dims = [n for shape in bundle.fiber_shapes for n in shape]
    total = sum(n * n for n in dims)
    v = stream.standard_normal(2 * total) * math.sqrt(0.5)
    blocks = iter(split_blocks(from_planes(v[:total], v[total:]), dims))
    return Section(bundle, [FiberElement([next(blocks) for _ in s]) for s in bundle.fiber_shapes])


def subalgebra_element(basis, stream):
    """The next random element of ``basis``: per projector, ``rank`` real then ``rank`` imaginary."""
    fibers = []
    for proj in basis.projectors:
        coeff = from_planes(stream.standard_normal(proj.rank), stream.standard_normal(proj.rank))
        fibers.append(_from_coords(proj, proj.ortho @ coeff))
    return Section(basis.bundle, fibers)


def dual_extremal_reference(x, p):
    """The Hoelder witness ``norm_p**(-p/q) |x|**(p-1) u*`` of ``dual_extremal``, block by block.

    With ``(w, v) = jacobi_singular(b)`` and ``s = sqrt(w)``: ``x = u |x|`` with
    ``u = b v diag(1 / s) v*`` on ``s > PINV_CUTOFF * s_max``, ``s_max`` the largest ``s`` of
    the atom's blocks, and ``|x|**(p-1) = v diag(s**(p-1)) v*``; ``u*`` at p = 1.
    """
    p = float(p)
    norms = lp_norm_reference(x, p)
    fibers = []
    for f, norm_p, shape in zip(x.fibers, norms, x.bundle.fiber_shapes):
        if norm_p == 0.0:
            fibers.append(zero_fiber(shape))
            continue
        singular = [jacobi_singular(b) for b in f.blocks]
        cut = PINV_CUTOFF * np.sqrt(max(w.max() for w, _ in singular))  # relative to the atom
        blocks = []
        for b, (w, v) in zip(f.blocks, singular):
            s = np.sqrt(w)
            inverse = np.where(s > cut, 1.0 / np.maximum(s, cut), 0.0)
            u = b @ (v * inverse) @ v.conj().T
            if p == 1.0:
                blocks.append(u.conj().T)
            else:
                q = p / (p - 1.0)
                power = (v * s ** (p - 1.0)) @ v.conj().T
                blocks.append(float(norm_p) ** (-p / q) * (power @ u.conj().T))
        fibers.append(FiberElement(blocks))
    return Section(x.bundle, fibers)


def duality_worst_reference(x, p, samples, seed):
    """Per-atom worst sampled violation ``|trace(x y)| - norm_p(x)``, one sample at a time."""
    p = float(p)
    norms = lp_norm_reference(x, p)
    worst = np.full(x.bundle.space.size, -np.inf)
    stream = Stream(derive_seed(seed, "duality-samples"))
    for _ in range(samples):
        y = gaussian_section(x.bundle, stream)
        y = _rescale_to_dual_ball(y, p)
        pairing = np.abs(center_trace(x * y))
        worst = np.maximum(worst, pairing - norms)
    return worst


def group_excess_reference(cases, qs, streams, witnessed, group):
    """``(case, row)`` per case of one ``packed_chunks`` group, ``row`` its worst sampled
    ``|trace(x y)| - norm_p(x)`` per atom, from the dual norms of every lane."""
    batches = {}
    for k, size in group:
        batches.setdefault((cases[k][0][0], qs[k]), []).append((k, size))
    stacks = [[np.concatenate(slot) for slot in zip(*[gaussian_stacks(bundle, streams[k], size)
                                                      for k, size in members])]
              for (bundle, _), members in batches.items()]
    duals = shared_lp_norms([(ys, bundle, q) for (bundle, q), ys in zip(batches, stacks)])
    for ((bundle, q), members), ys, dual in zip(batches.items(), stacks, duals):
        scale = np.divide(1.0, dual, out=np.ones_like(dual), where=dual > 0.0)
        sizes = [size for _, size in members]
        xs = _target_stacks([cases[k][0] for k, _ in members])
        pairing = np.zeros(dual.shape, dtype=np.complex128)
        for (i, c), x, y in zip(bundle.block_slots(), xs, ys):
            pairing[:, i] += c * np.einsum("sab,sba->s", np.repeat(x, sizes, axis=0), y)
        norms = np.repeat(np.array([witnessed[k][0] for k, _ in members]), sizes, axis=0)
        excess = np.abs(pairing) * scale - norms
        yield from zip((k for k, _ in members), np.maximum.reduceat(excess, np.cumsum(sizes) - sizes))


def worst_excess_reference(cases, qs, streams, witnessed, samples):
    """``tracelp._worst_excess`` by ``group_excess_reference``, one group after another."""
    worst = [np.full(bundle.space.size, -np.inf) for (bundle, _), _, _ in cases]
    for group in packed_chunks(len(cases), samples):
        for k, row in group_excess_reference(cases, qs, streams, witnessed, group):
            worst[k] = np.maximum(worst[k], row)
    return worst


def _per_atom_max_abs(x):
    return np.array([f.max_abs() for f in x.fibers])


def axiom_report_reference(E, trials, seed):
    """``check_cond_exp_axioms`` computed one trial at a time.

    Locality is measured here in its per-atom form, an independent reference for the
    center-module law that the checker reads: ``E(x)`` at each atom against the image of
    the mixed section that keeps ``x`` at that atom and takes the ``pos`` draw elsewhere.
    """
    bundle = E.bundle
    labels = bundle.space.labels
    one = identity_section(bundle)
    res = {name: 0.0 for name in (
        "idempotence", "unitality", "positivity", "module_property",
        "trace_preservation", "bimodule_pairing", "scalarized_trace",
        "fiberwise_agreement",
    )}
    res.update({f"lp_contraction_p{int(p)}": 0.0 for p in CONTRACTION_EXPONENTS})
    per_fiber = {label: 0.0 for label in labels}

    def bump(name, value, per_atom=None):
        res[name] = max(res[name], float(value))
        if per_atom is not None:
            for label, v in zip(labels, per_atom):
                per_fiber[label] = max(per_fiber[label], float(v))

    bump("unitality", _per_atom_max_abs(E(one) - one).max())

    streams = {tag: Stream(derive_seed(seed, f"axiom-{tag}"))
               for tag in ("x", "pos", "a", "b", "y", "nu")}
    for t in range(trials):
        x = gaussian_section(bundle, streams["x"])
        ex = E(x)

        d = _per_atom_max_abs(E(ex) - ex)
        bump("idempotence", d.max(), d)

        # v* v in block t mod m of each atom with m blocks, v the first row of g there
        g = gaussian_section(bundle, streams["pos"])
        pos = Section._raw(bundle, [FiberElement([
            b[:1].conj().T @ b[:1] if k == t % len(f.blocks) else np.zeros_like(b)
            for k, b in enumerate(f.blocks)]) for f in g.fibers])
        epos = E(pos)
        epos_h = 0.5 * (epos + epos.adjoint())
        dips = []
        for f in epos_h.fibers:
            dips.append(max(0.0, -min(float(w[-1]) for w in herm_eigenvalues_reference(f))))
        bump("positivity", max(dips), dips)

        a = subalgebra_element(E.target, streams["a"])
        b = subalgebra_element(E.target, streams["b"])
        d = _per_atom_max_abs(E(a * x * b) - a * ex * b) / np.prod(
            [[np.sqrt(sum(np.sum(np.abs(z) ** 2) for z in f.blocks)) for f in s.fibers]
             for s in (a, x, b)], axis=0)
        bump("module_property", d.max(), d)

        d = np.abs(center_trace(ex) - center_trace(x))
        bump("trace_preservation", d.max(), d)

        y = subalgebra_element(E.target, streams["y"])
        d = np.abs(center_trace(ex * y) - center_trace(x * y))
        bump("bimodule_pairing", d.max(), d)

        for p in CONTRACTION_EXPONENTS:
            gap = lp_norm_reference(ex, p) - lp_norm_reference(x, p)
            gap = np.maximum(gap, 0.0)
            bump(f"lp_contraction_p{int(p)}", gap.max(), gap)

        nu = streams["nu"].uniform(0.1, 2.0, size=bundle.space.size)
        bump("scalarized_trace", abs(scalarize(nu, ex) - scalarize(nu, x)))

        # locality: x kept at one atom, its other fibers redrawn as the pos draw g
        for i, label in enumerate(labels):
            mixed = Section._raw(bundle, [f if j == i else h
                                          for j, (f, h) in enumerate(zip(x.fibers, g.fibers))])
            got = E(mixed).fiber(label)
            want = ex.fiber(label)
            d = max(
                float(np.abs(u - w).max()) for u, w in zip(got.blocks, want.blocks)
            )
            bump("fiberwise_agreement", d, None)
            per_fiber[label] = max(per_fiber[label], d)

    return AxiomReport(trials=trials, seed=seed, residuals=res, per_fiber_worst=per_fiber)


def restricted_basis(basis, labels):
    """``validate_subalgebra`` rerun on the sub-bundle over ``labels``, from the same generators."""
    sub = basis.bundle.restrict(labels)
    return validate_subalgebra(sub, [basis.generators[basis.bundle.space.index_of(l)]
                                     for l in sub.space.labels])


def _coords(proj, f):
    return np.concatenate([b.ravel() for b in f.blocks]) * proj.sqrt_weights


def _from_coords(proj, v):
    return FiberElement(split_blocks(v / proj.sqrt_weights, proj.shape))


def _project_one(proj, f):
    return _from_coords(proj, proj.ortho @ (proj.ortho.conj().T @ _coords(proj, f)))


def _membership_one(proj, f):
    v = _coords(proj, f)
    r = v - proj.ortho @ (proj.ortho.conj().T @ v)
    r = r - proj.ortho @ (proj.ortho.conj().T @ r)
    return float(np.linalg.norm(r))


def _basis_one(proj):
    return [_from_coords(proj, proj.ortho[:, k]) for k in range(proj.ortho.shape[1])]


def closure_residual_reference(proj):
    """Closure of one fiber's span, one basis adjoint and one basis product at a time, each
    product's distance divided by the largest entry of its left factor."""
    basis = _basis_one(proj)
    closure = max(_membership_one(proj, e.adjoint()) for e in basis)
    for a in basis:
        for b in basis:
            closure = max(closure, _membership_one(proj, a * b) / a.max_abs())
    return closure


def inclusion_residual_reference(tower):
    """Every basis element of a level against the span of the next level."""
    inclusion = 0.0
    for lower, upper in zip(tower, tower[1:]):
        for p_low, p_up in zip(lower.projectors, upper.projectors):
            for e in _basis_one(p_low):
                inclusion = max(inclusion, _membership_one(p_up, e))
    return inclusion


def composition_residual_reference(tower):
    """``E_m E_n u - E_min(m,n) u`` over every level pair and matrix unit u."""
    units = level_generators(tower[0].bundle, "full")
    composition = 0.0
    for m, level_m in enumerate(tower):
        for n, level_n in enumerate(tower):
            low = tower[min(m, n)]
            for pm, pn, plow, atom_units in zip(
                level_m.projectors, level_n.projectors, low.projectors, units
            ):
                for u in atom_units:
                    got = _project_one(pm, _project_one(pn, u))
                    composition = max(composition, (got - _project_one(plow, u)).max_abs())
    return composition


def closure_loop_reference(bundle, generators):
    """Every atom's ``ortho`` and closure residual, by the old closure loop: a product whose
    largest entry is at most ORTHO_PIVOT_TOL times those of its factors has vanished."""
    orthos, closures = [], []
    for shape, weights, gens in zip(bundle.fiber_shapes, bundle.trace_weights, generators):
        proj = _FiberProjector(shape, weights)
        cap = sum(n * n for n in shape)
        accepted = []
        frontier = [identity_fiber(shape), *gens, *(g.adjoint() for g in gens)]
        while frontier:
            fresh = [f for f in frontier if proj.rank < cap and proj.try_extend(f)]
            accepted += fresh
            frontier = [] if proj.rank == cap else [f.adjoint() for f in fresh] + [
                h for f in fresh for g in accepted for h in (f * g, g * f)
                if h.max_abs() > ORTHO_PIVOT_TOL * f.max_abs() * g.max_abs()]
        orthos.append(proj.ortho)
        closures.append(_closure_residual(proj))
    return orthos, closures


def running_means_reference(elements, w, extend_by=0):
    """Running means and the held ratios ``W_K / W_n``, one float total per step."""
    w = [float(v) for v in w]
    needed = len(elements) + max(0, int(extend_by))
    sigmas, running, total = [], None, 0.0
    for x_k, w_k in zip(elements, w):
        running = w_k * x_k if running is None else running + w_k * x_k
        total += w_k
        sigmas.append((1.0 / total) * running)
    terminal_weight = total
    ratios = []
    for w_n in w[len(elements):needed]:
        total += w_n
        ratios.append(terminal_weight / total)
    return sigmas, ratios


def cesaro_traces_reference(seq, w, p, extend_by=0):
    """Per-atom ``||x_n - y||_p`` and ``||sigma_n - y||_p`` rows, one list per step."""
    y = seq.elements[-1]
    sigmas, ratios = running_means_reference(seq.elements, w, extend_by)
    xa = [[float(v) for v in lp_norm_reference(x_n - y, p)] for x_n in seq.elements]
    sa = [[float(v) for v in lp_norm_reference(s_n - y, p)] for s_n in sigmas]
    xa += [[0.0] * len(xa[-1]) for _ in ratios]
    sa += [[r * v for v in sa[-1]] for r in ratios]  # sa[-1] is still sigma_K's row
    return xa, sa


def write_trace_csv_reference(path, rows):
    """``traces.csv`` from ``(tag, n, label, rx, rs)`` rows, one ``write`` per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("experiment_id,n,omega,residual_xp,residual_sigma\n")
        for tag, n, label, rx, rs in rows:
            fh.write(f"{tag},{n},{label},{rx!r},{rs!r}\n")


def martingale_phase_reference(cfg, filtration):
    """``runner.run_martingale_checks`` as the per-seed loop it was before the seeds were
    stacked: each seed's martingale ``E(x)``, defect, limit, running means, traces and sup
    comparison from sections, ``ConditionalExpectation.__call__`` and one ``lp_norms`` call
    per quantity.  Returns the worst residual per check name, the ``(tag, labels, xa, sa)``
    traces and the limit section of seed 0."""
    bundle, levels, tol = filtration.bundle, filtration.cond_exps, cfg.tolerances["cesaro"]
    p = 2.0 if 2.0 in cfg.exponents else cfg.exponents[0]
    worst = dict.fromkeys(["martingale/" + name for name in (
        "defect", "limit_reconstruction", "terminal_residual", "monotone_residuals",
        "pythagoras_p2", "sup_gap")], 0.0)
    all_both = never_one = True
    traces = []
    for s in range(cfg.trials["martingale_seeds"]):
        x = random_section(bundle, derive_seed(cfg.seed, "mart-x", s), "general")
        xs = [E(x) for E in levels]
        k, y = len(xs), xs[-1]
        sigmas, ratios = running_means_reference(xs, cfg.weight_list(k + cfg.extension),
                                                 cfg.extension)
        xa, sa = lp_norms([a - y for a in xs], p), lp_norms([z - y for z in sigmas], p)
        ends = sigmas + [y + r * (sigmas[-1] - y) for r in ratios[-1:]]
        trace = xa.max(axis=1).tolist()
        sq = lp_norms([x, *xs, *(x - a for a in xs)], 2) ** 2
        for name, value in [
            ("defect", float(lp_norms([E(b) - a for E, a, b in zip(levels, xs, xs[1:])], 1).max())
             if k > 1 else 0.0),
            ("limit_reconstruction", float(lp_norms([E(y) - a for E, a in zip(levels, xs)], 1).max())),
            ("terminal_residual", float(lp_norms([y - x], p).max())),
            ("monotone_residuals", max([0.0] + [b - a for a, b in zip(trace, trace[1:])])),
            ("pythagoras_p2", float(np.abs(sq[0] - sq[1:k + 1] - sq[k + 1:]).max())),
            ("sup_gap", max(0.0, float((lp_norms(ends, p).max(axis=0)
                                        - lp_norms(xs, p).max(axis=0)).max()))),
        ]:
            worst["martingale/" + name] = max(worst["martingale/" + name], value)
        xa = np.concatenate((xa, np.zeros((len(ratios), xa.shape[1]))))
        sa = np.concatenate((sa, np.array(ratios)[:, None] * sa[-1]))
        x_conv, s_conv = xa[-1].max() <= tol, sa[-1].max() <= tol
        all_both = all_both and x_conv and s_conv
        never_one = never_one and x_conv == s_conv
        traces.append((f"{cfg.experiment_id}:seed={s}", bundle.space.labels, xa, sa))
        if s == 0:
            limit_section = y
    worst["martingale/cesaro_both"] = 0.0 if all_both else 1.0
    worst["martingale/cesaro_never_one"] = 0.0 if never_one else 1.0
    return worst, traces, limit_section


def trace_phase_reference(cfg, bundle):
    """``runner.run_trace_checks`` as a loop over its trials, one section pair at a time:
    the worst traciality, positivity and faithfulness excess by check name."""
    rx, ry = (Stream(derive_seed(cfg.seed, tag)) for tag in ("trace-x", "trace-y"))
    traciality = positivity = faithfulness = 0.0
    for _ in range(cfg.trials["trace_sections"]):
        x, y = gaussian_section(bundle, rx), gaussian_section(bundle, ry)
        d = np.abs(center_trace(x * y) - center_trace(y * x))
        traciality = max(traciality, float(d.max()))
        gram = center_trace(x.adjoint() * x)
        positivity = max(
            positivity, float(np.abs(gram.imag).max()), max(0.0, float(-gram.real.min()))
        )
        for f, cs, tr in zip(x.fibers, bundle.trace_weights, gram.real.tolist()):
            top = max(float(w.max()) for w in gram_eigenvalues_reference(f))
            faithfulness = max(faithfulness, min(cs) * top / tr - 1.0)
    return {"trace/traciality": traciality, "trace/positivity": positivity,
            "trace/faithfulness": faithfulness}


def closed_form_expectation(bundle, spec, x):
    """The trace-preserving conditional expectation of ``x`` onto a preset level, in closed form."""
    fibers = []
    for shape, cs, f in zip(bundle.fiber_shapes, bundle.trace_weights, x.fibers):
        if spec == "scalars":
            mean = sum(c * np.trace(b) for c, b in zip(cs, f.blocks)) / sum(
                c * n for c, n in zip(cs, shape))
            fibers.append(mean * identity_fiber(shape))
            continue
        if spec == "diagonal":
            parts = [1] * sum(shape)
        elif spec == "full":
            parts = list(shape)
        else:  # "block(k1,...,kr)"
            parts = [int(k) for k in spec[len("block("):-1].split(",")]
        blocks = []
        for b, ranges in zip(f.blocks, _partition(shape, parts)):
            kept = np.zeros_like(b)
            for start, stop in ranges:
                kept[start:stop, start:stop] = b[start:stop, start:stop]
            blocks.append(kept)
        fibers.append(FiberElement(blocks))
    return Section(bundle, fibers)
