"""The element-at-a-time library: sections, single fibers and single martingales, as views
of the stacked calls of the core modules that the CLI runs.

No CLI call reaches this module and no core module imports it at module level, so a CLI
call never compiles it.  Each module that held one of these names still answers it through
its ``__getattr__`` (PEP 562), so ``tracebundle.fiber.herm_eig``, ``tracebundle.herm_eig``
and ``tracebundle.views.herm_eig`` are one function.
"""

from __future__ import annotations

import math

import numpy as np

from .bundle import BundleSpec, block_records, seeded_stacks
from .condexp import AxiomReport, ConditionalExpectation, cond_exp_axiom_checks
from .errors import (ContractViolationError, ShapeMismatchError, UnsupportedConfigurationError,
                     UsageError)
from .fiber import (EIGENVALUE_CLAMP, HERMITIAN_INPUT_TOL, PINV_CUTOFF, FiberElement,
                    _jacobi_eigenvalues_stack, gram_eigenvalues_stack, identity_fiber,
                    solve_by_block_size)
from .martingale import (MARTINGALE_TOL, Filtration, MartingaleChecks, _running_means,
                         martingale_checks, step_residuals)
from .tracelp import (DualityReport, _exponent, _target_stacks, _witnesses, shared_lp_norms,
                      stacked_traces, target_duality_checks)


class HermEig:
    """Spectral data of a Hermitian fiber element: per block, real eigenvalues in descending
    order and the unitary basis with ``block = basis @ diag(eigenvalues) @ basis*``."""

    __slots__ = ("eigenvalues", "bases")

    def __init__(self, eigenvalues, bases):
        self.eigenvalues, self.bases = tuple(eigenvalues), tuple(bases)

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
    eigenvalues, bases = [], []
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
    """``|x|**p = v diag(w**(p/2)) v*`` from the squared singular values ``w`` of each block;
    meant for p >= 1 (the Lp norms), any nonnegative power works the same way."""
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
    Eigenvalues within EIGENVALUE_CLAMP times the block's largest |eigenvalue| of the threshold
    snap down onto it and are excluded, which keeps the projection stable for spectra
    numerically at the cut, at every scale of ``x``."""
    return herm_eig(x).projection(threshold)


def gram_eigenvalues(x: FiberElement) -> list[np.ndarray]:
    """Eigenvalues of ``x* x`` (squared singular values) per block, nonnegative, unordered:
    one ``gram_eigenvalues_stack`` call per block size, with no sort and no singular vectors."""
    return [w[0] for w in _solve_blocks(x, gram_eigenvalues_stack)]


def spectral_norm(x: FiberElement) -> float:
    """Largest singular value across the blocks of ``x``."""
    return math.sqrt(max(float(w.max()) for w in gram_eigenvalues(x)))


class Section:
    """Element of the bundle algebra: one fiber element per atom."""

    __slots__ = ("bundle", "fibers")

    def __init__(self, bundle: BundleSpec, fibers):
        fibers = tuple(fibers)
        if len(fibers) != bundle.space.size:
            raise ShapeMismatchError("need one fiber element per atom")
        for label, shape, f in zip(bundle.space.labels, bundle.fiber_shapes, fibers):
            if f.dims != shape:
                raise ShapeMismatchError(
                    f"fiber at {label!r} has dims {f.dims}, bundle expects {shape}"
                )
        self.bundle, self.fibers = bundle, fibers

    @classmethod
    def _raw(cls, bundle, fibers):
        self = object.__new__(cls)
        self.bundle, self.fibers = bundle, tuple(fibers)
        return self

    def _require_same_bundle(self, other: "Section"):
        if self.bundle is not other.bundle and self.bundle != other.bundle:
            raise ShapeMismatchError("sections live on different bundles")

    def fiber(self, label: str) -> FiberElement:
        """Evaluate the section at an atom (the lifting realized as storage)."""
        return self.fibers[self.bundle.space.index_of(label)]

    def __add__(self, other: "Section") -> "Section":
        self._require_same_bundle(other)
        return Section._raw(self.bundle, [a + b for a, b in zip(self.fibers, other.fibers)])

    def __sub__(self, other: "Section") -> "Section":
        self._require_same_bundle(other)
        return Section._raw(self.bundle, [a - b for a, b in zip(self.fibers, other.fibers)])

    def __mul__(self, other: "Section") -> "Section":
        """Algebra product; a scalar scales from the left (``__rmul__``)."""
        self._require_same_bundle(other)
        return Section._raw(self.bundle, [a * b for a, b in zip(self.fibers, other.fibers)])

    def __rmul__(self, scalar):
        return Section._raw(self.bundle, [scalar * f for f in self.fibers])

    def adjoint(self) -> "Section":
        return Section._raw(self.bundle, [f.adjoint() for f in self.fibers])

    def max_abs(self) -> float:
        return max(f.max_abs() for f in self.fibers)

    def restrict(self, labels) -> "Section":
        sub = self.bundle.restrict(labels)
        return Section._raw(sub, [self.fiber(l) for l in sub.space.labels])


def identity_section(bundle: BundleSpec) -> Section:
    return Section._raw(bundle, [identity_fiber(s) for s in bundle.fiber_shapes])


def center_scale(z, x: Section) -> Section:
    """Module action of the center: atom ``w`` gets ``z(w) * x(w)``, ``z`` real or complex."""
    z = np.asarray(z)
    if z.shape != (x.bundle.space.size,):
        raise ShapeMismatchError(f"expected {x.bundle.space.size} center values, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ContractViolationError("center element has non-finite entries")
    return Section._raw(x.bundle, [complex(v) * f for v, f in zip(z, x.fibers)])


def uniform_norm(x: Section) -> float:
    """The C*-norm: max over atoms of the largest singular value of the fiber."""
    return max(spectral_norm(f) for f in x.fibers)


def lane_section(bundle: BundleSpec, stacks, lane: int) -> Section:
    """Lane ``lane`` of sections held as one ``(S, n, n)`` stack per block, as a section."""
    blocks = iter(s[lane] for s in stacks)
    return Section._raw(bundle, [FiberElement._raw([next(blocks) for _ in shape])
                                 for shape in bundle.fiber_shapes])


def random_section(bundle: BundleSpec, seed: int, kind: str = "general") -> Section:
    """Seed-deterministic random section.

    Entries are standard complex Gaussians (``seeded_stacks``); ``hermitian`` symmetrizes,
    ``positive`` forms ``g* g``, ``unitary`` takes the polar isometry of a
    general draw, and ``projection`` cuts a random Hermitian at its median
    eigenvalue per block.  Identical ``(bundle, seed, kind)`` give bitwise
    identical sections.
    """
    fibers = []
    for g in lane_section(bundle, seeded_stacks(bundle, [seed], kind), 0).fibers:
        if kind == "general":
            fibers.append(g)
        elif kind == "hermitian":
            fibers.append(0.5 * (g + g.adjoint()))
        elif kind == "positive":
            fibers.append(g.adjoint() * g)
        elif kind == "unitary":
            u, _ = polar(g)
            fibers.append(u)
        else:  # projection
            eig = herm_eig(0.5 * (g + g.adjoint()))
            fibers.append(eig.projection(float(np.median(np.concatenate(eig.eigenvalues)))))
    return Section._raw(bundle, fibers)


def section_to_records(x: Section):
    """Flatten a section to ``(atom label, block index, row, col, re, im)`` rows."""
    return block_records(x.bundle, [b for f in x.fibers for b in f.blocks])


def section_from_records(bundle: BundleSpec, rows) -> Section:
    """Rebuild a section from the flat record format of ``section_to_records``.

    Every matrix entry needs exactly one record; a missing or repeated entry
    raises ``UsageError`` naming it, so a truncated file is never read back
    as a different section.
    """
    blocks = {label: [np.zeros((n, n), dtype=np.complex128) for n in shape]
              for label, shape in zip(bundle.space.labels, bundle.fiber_shapes)}
    seen = set()
    for label, k, i, j, re, im in rows:
        label = str(label)
        if label not in blocks:
            raise UsageError(f"record references unknown atom {label!r}")
        shape = bundle.shape_at(label)
        k, i, j = int(k), int(i), int(j)
        if not (0 <= k < len(shape) and 0 <= i < shape[k] and 0 <= j < shape[k]):
            raise ShapeMismatchError(f"record ({label}, {k}, {i}, {j}) is outside the fiber shape "
                                     f"{shape}")
        if (label, k, i, j) in seen:
            raise UsageError(f"duplicate record for entry ({label}, {k}, {i}, {j})")
        seen.add((label, k, i, j))
        blocks[label][k][i, j] = complex(float(re), float(im))
    for label, shape in zip(bundle.space.labels, bundle.fiber_shapes):
        for k, n in enumerate(shape):
            for i in range(n):
                for j in range(n):
                    if (label, k, i, j) not in seen:
                        raise UsageError(f"missing record for entry ({label}, {k}, {i}, {j})")
    return Section(bundle, [FiberElement(blocks[label]) for label in bundle.space.labels])


def center_trace(x: Section) -> np.ndarray:
    """The center-valued trace: weighted block traces per atom, one ``stacked_traces`` row."""
    return stacked_traces(section_stacks([x]), x.bundle)[0]


def _target(x: Section) -> tuple:
    """Section ``x`` as a target ``(bundle, blocks)``, one one-lane stack per block slot."""
    return x.bundle, [b[None] for f in x.fibers for b in f.blocks]


def section_stacks(sections) -> list[np.ndarray]:
    """The blocks of S sections of one bundle, one ``(S, n, n)`` stack per block slot."""
    return _target_stacks([_target(x) for x in sections])


def lp_norms(sections, p: float) -> np.ndarray:
    """``(S, atoms)`` center-valued Lp norms ``(trace(|x|**p))**(1/p)`` of S sections of one bundle.

    The sections' blocks are stacked per block slot (``section_stacks``) and go through
    ``shared_lp_norms``.  p must be finite and at least 1, else UsageError; a norm that is
    not finite raises ContractViolationError.
    """
    p = _exponent(p)
    if not sections:
        raise UsageError("need at least one section")
    for x in sections[1:]:
        x._require_same_bundle(sections[0])
    return shared_lp_norms([(section_stacks(sections), sections[0].bundle, p)])[0]


def lp_norm(x: Section, p: float) -> np.ndarray:
    """Center-valued Lp norm: ``(trace(|x|**p))**(1/p)`` per atom, the one-section ``lp_norms``."""
    return lp_norms([x], p)[0]


def dual_extremal(x: Section, p: float) -> Section:
    """Witness attaining the dual characterization of the Lp norm.

    With ``x* x = V diag(w) V*`` from one eigendecomposition per block, the
    witness is ``norm_p**(1-p) V diag(w**(p/2-1)) V* x*`` on the support
    ``w > PINV_CUTOFF**2 * top``, ``top`` the atom's largest ``w`` (a cut that scales with
    the fiber): ``norm_p**(1-p) |x|**(p-1) u*`` for ``x = u |x|``,
    hence ``u*`` at p = 1 and, for p > 1, a point of the Lq unit sphere
    (``1/p + 1/q = 1``) where the Hoelder inequality is an equality.  It is
    formed as ``(w / top)**(p/2-1) * S**(1/p-1) / sqrt(top)`` from the norm's top-scaled
    sum S (``top_scaled_sums``), so no rounded norm is raised to a power.  Only a zero
    fiber gets the zero witness, so the witness of ``2**k x`` is that of ``x``, bit for bit.
    """
    return lane_section(x.bundle, _witnesses([(_target(x), _exponent(p))])[0][1], 0)


def duality_check(x: Section, p: float, samples: int, seed: int) -> DualityReport:
    """Sample the dual unit ball and verify nothing beats the Lp norm.

    Every sampled ``y`` is rescaled per fiber onto the dual-ball boundary; the
    violation is ``|trace(x y)| - norm_p(x)`` pointwise (positive means the
    duality bound failed).  The extremal witness must attain the norm, which
    the attainment residual measures.  Sample ``i`` is lane ``i`` of
    ``gaussian_stacks`` on one ``Stream`` keyed ``derive_seed(seed,
    "duality-samples")``, and the samples go through as ``target_duality_checks`` says:
    the dual norm at q = p / (p - 1) (q = inf when p = 1) is solved only where a sample
    can set the worst violation, and neither that nor the chunking shows.
    """
    return duality_checks([(x, p, seed)], samples)[0]


def duality_checks(cases, samples: int) -> list[DualityReport]:
    """``duality_check(x, p, samples, seed)`` for every ``(x, p, seed)`` case, in order: the
    ``target_duality_checks`` of the sections' blocks."""
    return target_duality_checks([(_target(x), p, seed) for x, p, seed in cases], samples)


def check_cond_exp_axioms(E: ConditionalExpectation, trials: int, seed: int) -> AxiomReport:
    """Measure every defining property of the conditional expectation.

    Residuals reported: idempotence, unitality, positivity (most negative
    eigenvalue of the image of a rank-one positive element in one block per atom,
    an extreme ray of the positive cone), the bimodule property
    ``E(a x b) = a E(x) b`` for subalgebra a, b, trace preservation, the
    pairing identity ``trace(E(x) y) = trace(x y)`` for subalgebra y, the Lp
    contraction bound for p in {1, 2, 3, 4}, scalarized-trace preservation for
    random positive center weights, and locality (fiberwise_agreement), the center-module
    law read as ``|E(z x) / z - E(x)|`` at each atom for the central z that is a distinct
    power of two at any 1024 consecutive atoms: a map that acts fiber by fiber reads
    exactly 0.0, one that adds ``c x`` from atom v into atom w reads ``(z_v / z_w - 1) c x``.
    Never raises on a residual; the caller compares against tolerances.  Each tag (x, pos,
    a, b, y, nu) draws from the ``Stream`` key ``derive_seed(seed, f"axiom-{tag}")``,
    trial ``t`` its lane ``t``.  The trials are stacked per block in chunks of
    DUALITY_CHUNK; no step mixes trials, so the chunking does not show.
    """
    return cond_exp_axiom_checks([(E, seed)], trials)[0]


def _one_sequence(filtration: Filtration, elements, p: float = 2.0, **parts) -> MartingaleChecks:
    """``martingale_checks`` of one sequence of sections, each a one-lane stack."""
    if any(x.bundle is not filtration.bundle and x.bundle != filtration.bundle for x in elements):
        raise ShapeMismatchError("section lives on a different bundle")
    return martingale_checks(filtration, [section_stacks([x]) for x in elements], p, **parts)


def martingale_defect(elements, filtration: Filtration) -> float:
    """Worst defect of the martingale property over the whole sequence: at step n the max over
    atoms of the L1 norm of ``E(x_{n+1} | M_n) - x_n``, the one-sequence ``martingale_checks``."""
    elements = list(elements)
    return float(_one_sequence(filtration, elements).defect[0]) if elements else 0.0


class MartingaleSeq:
    """An adapted sequence; its martingale defect is measured once, as ``defect``, and with
    ``check`` a defect above ``MARTINGALE_TOL`` is refused.  This is where a sequence enters the
    library: the later calls measure and report, and never check it again."""

    __slots__ = ("filtration", "elements", "p", "defect")

    def __init__(self, filtration: Filtration, elements, p: float = 2.0, check: bool = True):
        self.filtration, self.elements, self.p = filtration, tuple(elements), float(p)
        if not self.elements:
            raise UsageError("a martingale needs at least one element")
        self.defect = martingale_defect(self.elements, filtration)
        if check and self.defect > MARTINGALE_TOL:
            raise UsageError("sequence violates the martingale property beyond tolerance")

    def __len__(self):
        return len(self.elements)


def martingale_from_target(x: Section, filtration: Filtration, p: float = 2.0) -> MartingaleSeq:
    """The canonical martingale: project one target through every tower level.  It is a
    martingale by the tower's nesting, so it is not checked; ``seq.defect`` still reports its
    rounding."""
    elements = [E(x) for E in filtration.cond_exps]
    return MartingaleSeq(filtration, elements, p=p, check=False)


class MartingaleLimit:
    """Terminal element of a full tower together with its consistency data."""

    def __init__(self, limit: Section, reconstruction_residual: float, residual_trace: list):
        self.limit, self.reconstruction_residual = limit, reconstruction_residual
        self.residual_trace = residual_trace  # max over atoms of ||x_n - limit||_p, per level


def martingale_limit(seq: MartingaleSeq) -> MartingaleLimit:
    """Recover the generating element of a martingale on a full finite tower: on a tower whose
    top level is the whole algebra the terminal element is the limit; projecting it down every
    level reproduces the sequence, and the worst residual of that is reported as
    ``reconstruction_residual``: the one-sequence ``martingale_checks`` at ``seq.p``."""
    return _limit(seq, _one_sequence(seq.filtration, seq.elements, seq.p, limit=True))


def _limit(seq: MartingaleSeq, checks: MartingaleChecks) -> MartingaleLimit:
    return MartingaleLimit(limit=seq.elements[-1], reconstruction_residual=float(checks.recon[0]),
                           residual_trace=checks.xa[0].max(axis=1).tolist())


class DoubleSequenceReport:
    """Grid diagnostics for projecting a convergent sequence through a tower."""

    def __init__(self, grid: list, sequence_residuals: list, tower_residuals: list,
                 corner: float, triangle_violation: float):
        self.grid = grid                              # grid[n][m] = max_w ||E(x_n | M_m) - x||_p
        self.sequence_residuals = sequence_residuals  # max_w ||x_n - x||_p
        self.tower_residuals = tower_residuals        # max_w ||E(x | M_m) - x||_p
        self.corner = corner                          # grid[-1][-1]
        self.triangle_violation = triangle_violation  # max of grid - (seq + tower) bound


def double_sequence_check(xs, x: Section, filtration: Filtration, p: float) -> DoubleSequenceReport:
    """Measure how projections of a convergent sequence approach its limit.

    For every sequence index n and tower level m the residual
    ``||E(x_n | M_m) - x||_p`` is bounded by the triangle estimate
    ``||x_n - x||_p + ||E(x | M_m) - x||_p``; the report holds the grid of residuals, both
    sides of the estimate and its worst excess, and leaves the verdict to the caller.
    """
    if not filtration.terminal_is_full:
        raise UnsupportedConfigurationError("the double-sequence diagnostic needs a full "
                                            "terminal level")
    xs = list(xs)
    if not xs:
        raise UsageError("empty sequence")
    levels = filtration.cond_exps
    k, m = len(xs), len(levels)
    residuals = lp_norms([x_n - x for x_n in xs] + [E(x) - x for E in levels]
                         + [E(x_n) - x for x_n in xs for E in levels], p).max(axis=1).tolist()
    seq_res, tower_res = residuals[:k], residuals[k:k + m]
    grid = [residuals[k + m * (n + 1):k + m * (n + 2)] for n in range(k)]
    violation = max(r - (seq_res[n] + tower_res[j])
                    for n, row in enumerate(grid) for j, r in enumerate(row))
    return DoubleSequenceReport(grid=grid, sequence_residuals=seq_res, tower_residuals=tower_res,
                                corner=grid[-1][-1], triangle_violation=float(violation))


def weighted_averages(seq: MartingaleSeq, w) -> list:
    """Normalized weighted running means ``(1/W_n) sum_{k<=n} w_k x_k``."""
    sigmas, _ = _running_means([section_stacks([x]) for x in seq.elements], w)
    return [lane_section(seq.filtration.bundle, s, 0) for s in sigmas]


def sup_norm_comparison(seq: MartingaleSeq, w, p: float, extend_by: int = 0):
    """Pointwise sup of element norms against sup of averaged norms.

    Returns ``(sup_x, sup_sigma, gap)``, one float per atom each, with
    ``gap = sup_x - sup_sigma``.  Convexity forces ``sup_sigma <= sup_x`` up
    to roundoff on any finite range; the two sups meet only asymptotically,
    which the ``extend_by`` holding scheme emulates.  The held means lie on one
    segment, so by convexity only its far end sigma_N joins the sup.  The
    one-sequence ``martingale_checks`` with weights.
    """
    return _sup(_one_sequence(seq.filtration, seq.elements, p, w=w, extend_by=extend_by))


def _sup(checks: MartingaleChecks):
    sup_x, sup_sigma = checks.sup_x[0], checks.sup_sigma[0]
    return sup_x, sup_sigma, sup_x - sup_sigma


class CesaroReport:
    """Joint convergence verdict for a martingale and its weighted averages."""

    def __init__(self, p: float, tol: float, verdict: str, element_trace: list,
                 average_trace: list, element_trace_per_atom: np.ndarray = None,
                 average_trace_per_atom: np.ndarray = None, limit: MartingaleLimit = None,
                 sup_comparison: tuple = None):
        self.p, self.tol = p, tol
        self.verdict = verdict                # "both" | "neither" | "exactly-one"
        self.element_trace = element_trace    # max over atoms of ||x_n - y||_p
        self.average_trace = average_trace    # max over atoms of ||sigma_n - y||_p
        self.element_trace_per_atom = element_trace_per_atom  # (steps, atoms)
        self.average_trace_per_atom = average_trace_per_atom  # (steps, atoms)
        self.limit = limit                    # martingale_limit of the sequence
        self.sup_comparison = sup_comparison  # sup_norm_comparison, same weights and extension


def cesaro_equivalence(seq: MartingaleSeq, w, p: float, tol: float,
                       extend_by: int = 0) -> CesaroReport:
    """Either both the martingale and its averages converge, or neither does.

    The run is extended by holding the terminal element for ``extend_by``
    additional steps, which sends the cumulative weight to infinity (the
    hypothesis behind the averaging equivalence) while keeping the limit
    exact; per atom a held step has ``||sigma_n - y||_p = (W_K/W_n)||sigma_K - y||_p``.
    The report also holds the limit with its reconstruction residual and its residual trace
    at ``p``, and ``sup_norm_comparison(seq, w, p, extend_by)``: all one ``martingale_checks``
    of the one sequence.  The sequence was checked where it entered (``MartingaleSeq``);
    its defect is ``seq.defect``.
    """
    checks = _one_sequence(seq.filtration, seq.elements, p, limit=True, w=w, extend_by=extend_by)
    xa, sa = (a[0] for a in step_residuals(checks.xa, checks.sa, checks.held))
    xt, st = xa.max(axis=1).tolist(), sa.max(axis=1).tolist()
    x_conv, s_conv = xt[-1] <= tol, st[-1] <= tol
    verdict = "both" if x_conv and s_conv else "exactly-one" if x_conv or s_conv else "neither"
    return CesaroReport(p=float(p), tol=float(tol), verdict=verdict, element_trace=xt,
                        average_trace=st, element_trace_per_atom=xa, average_trace_per_atom=sa,
                        limit=_limit(seq, checks), sup_comparison=_sup(checks))


def read_section_csv(path: str, bundle):
    """Rebuild a section from a golden file written by ``write_section_csv``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        if header != "omega,block,row,col,re,im":
            raise UsageError(f"not a section file: unexpected header {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            try:
                label, k, i, j, re, im = line.rstrip("\n").split(",")
                rows.append((label, int(k), int(i), int(j), float(re), float(im)))
            except ValueError:
                raise UsageError(f"{path}, line {lineno}: malformed section record "
                                 f"{line.rstrip()!r}") from None
    return section_from_records(bundle, rows)
