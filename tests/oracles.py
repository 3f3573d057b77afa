"""Independent oracles used by the test suite.

The exact-rational oracle recomputes the trace-inner-product projection with
``fractions.Fraction`` arithmetic (floats convert to rationals exactly), using
a plain Gram-system solve over a matrix-unit basis.  It shares no code path
with the float implementation: no Gram-Schmidt, no orthonormalization, no
eigensolver.

The duality reference is the one-sample-at-a-time loop that
``tracelp.duality_check`` ran before its samples were stacked: one
``random_section`` per sample, rescaled fiber by fiber through
``spectral_norm`` or ``lp_norm``, and paired through ``center_trace``.

The axiom reference is the one-trial-at-a-time loop that
``condexp.check_cond_exp_axioms`` ran before its trials were stacked: each
trial draws its sections with ``random_section`` and ``random_element``,
applies ``ConditionalExpectation.__call__``, and measures through
``herm_eig``, ``center_trace``, ``lp_norm`` and ``scalarize``.
"""

from fractions import Fraction

import numpy as np

from tracebundle import (
    AxiomReport,
    ConditionalExpectation,
    Section,
    center_trace,
    derive_seed,
    herm_eig,
    identity_section,
    lp_norm,
    random_section,
    scalarize,
    spectral_norm,
)
from tracebundle.condexp import CONTRACTION_EXPONENTS
from tracebundle.tracelp import ZERO_FIBER_TOL


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


def eigh_oracle(block):
    """numpy's LAPACK Hermitian eigensolver, descending eigenvalues."""
    w, u = np.linalg.eigh(block)
    return w[::-1], u[:, ::-1]


def _rescale_to_dual_ball(y, p):
    """Divide each fiber by its uniform norm (p = 1) or Lq norm; near-zero fibers stay."""
    fibers = []
    if p == 1.0:
        for f in y.fibers:
            scale = spectral_norm(f)
            fibers.append((1.0 / scale) * f if scale > ZERO_FIBER_TOL else f)
    else:
        q = p / (p - 1.0)
        norms = lp_norm(y, q).values
        for f, nq in zip(y.fibers, norms):
            fibers.append((1.0 / float(nq)) * f if nq > ZERO_FIBER_TOL else f)
    return Section(y.bundle, fibers)


def duality_worst_reference(x, p, samples, seed):
    """Per-atom worst sampled violation ``|trace(x y)| - norm_p(x)``, one sample at a time."""
    p = float(p)
    norms = lp_norm(x, p).values
    worst = np.full(x.bundle.space.size, -np.inf)
    for i in range(samples):
        y = random_section(x.bundle, derive_seed(seed, "duality-sample", i), "general")
        y = _rescale_to_dual_ball(y, p)
        pairing = np.abs(center_trace(x * y).values)
        worst = np.maximum(worst, pairing - norms)
    return worst


def _per_atom_max_abs(x):
    return np.array([f.max_abs() for f in x.fibers])


def axiom_report_reference(E, trials, seed):
    """``check_cond_exp_axioms`` computed one trial at a time."""
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

    sub_restrictions = [
        (label, ConditionalExpectation(E.target.restrict([label])))
        for label in labels
    ]

    for t in range(trials):
        x = random_section(bundle, derive_seed(seed, "axiom-x", t), "general")
        ex = E(x)

        d = _per_atom_max_abs(E(ex) - ex)
        bump("idempotence", d.max(), d)

        pos = random_section(bundle, derive_seed(seed, "axiom-pos", t), "positive")
        epos = E(pos)
        epos_h = 0.5 * (epos + epos.adjoint())
        dips = []
        for f in epos_h.fibers:
            eig = herm_eig(f)
            dips.append(max(0.0, -min(float(w[-1]) for w in eig.eigenvalues)))
        bump("positivity", max(dips), dips)

        a = E.target.random_element(derive_seed(seed, "axiom-a", t))
        b = E.target.random_element(derive_seed(seed, "axiom-b", t))
        d = _per_atom_max_abs(E(a * x * b) - a * ex * b)
        bump("module_property", d.max(), d)

        d = np.abs(center_trace(ex).values - center_trace(x).values)
        bump("trace_preservation", d.max(), d)

        y = E.target.random_element(derive_seed(seed, "axiom-y", t))
        d = np.abs(center_trace(ex * y).values - center_trace(x * y).values)
        bump("bimodule_pairing", d.max(), d)

        for p in CONTRACTION_EXPONENTS:
            gap = lp_norm(ex, p).values - lp_norm(x, p).values
            gap = np.maximum(gap, 0.0)
            bump(f"lp_contraction_p{int(p)}", gap.max(), gap)

        nu_rng = np.random.default_rng([11, derive_seed(seed, "axiom-nu", t)])
        nu = nu_rng.uniform(0.1, 2.0, size=bundle.space.size)
        bump("scalarized_trace", abs(scalarize(nu, ex) - scalarize(nu, x)))

        for label, E_atom in sub_restrictions:
            got = E_atom(x.restrict([label])).fibers[0]
            want = ex.fiber(label)
            d = max(
                float(np.abs(g - w).max()) for g, w in zip(got.blocks, want.blocks)
            )
            bump("fiberwise_agreement", d, None)
            per_fiber[label] = max(per_fiber[label], d)

    return AxiomReport(trials=trials, seed=seed, residuals=res, per_fiber_worst=per_fiber)
