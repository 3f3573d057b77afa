"""Trace-preserving conditional expectation onto a fiberwise subalgebra.

A subalgebra is given by per-atom generator lists; validation closes the span
under adjoints and products, adjoins the identity, and orthonormalizes it in
the trace inner product ``<a, b> = trace_w(b* a)``.  The conditional
expectation is the orthogonal projection onto that span, applied fiber by
fiber; trace preservation, the bimodule property, positivity, and the Lp
contraction bound are all verifiable consequences collected by
``check_cond_exp_axioms``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import BundleSpec, Section, identity_section, random_section
from .errors import ContractViolationError, InconsistencyError, ShapeMismatchError
from .fiber import FiberElement, herm_eig, identity_fiber
from .tracelp import center_trace, derive_seed, lp_norm, scalarize

ORTHO_PIVOT_TOL = 1e-10       # Gram-Schmidt rank decision on unit-norm candidates
CLOSURE_RESIDUAL_TOL = 1e-9   # *-and-product closure of the validated span
SPAN_RESIDUAL_TOL = 1e-10     # identity membership and Gram orthonormality
CONTRACTION_EXPONENTS = (1.0, 2.0, 3.0, 4.0)


class _FiberProjector:
    """Orthogonal projection onto one fiber's subalgebra span.

    Works in weighted coordinates: a fiber element maps to the concatenation
    of ``sqrt(c_j) * vec(block_j)``, where the trace inner product becomes the
    plain Euclidean one.
    """

    __slots__ = ("shape", "sqrt_weights", "ortho")

    def __init__(self, shape, weights):
        self.shape = tuple(shape)
        parts = [np.full(n * n, np.sqrt(c)) for n, c in zip(shape, weights)]
        self.sqrt_weights = np.concatenate(parts)
        self.ortho = np.zeros((self.sqrt_weights.size, 0), dtype=np.complex128)

    def coords(self, f: FiberElement) -> np.ndarray:
        return np.concatenate([b.ravel() for b in f.blocks]) * self.sqrt_weights

    def from_coords(self, v: np.ndarray) -> FiberElement:
        blocks = []
        offset = 0
        for n in self.shape:
            seg = v[offset : offset + n * n] / self.sqrt_weights[offset : offset + n * n]
            blocks.append(np.ascontiguousarray(seg.reshape(n, n)))
            offset += n * n
        return FiberElement._raw(blocks)

    def residual_coords(self, v: np.ndarray) -> np.ndarray:
        # two orthogonalization passes keep the basis orthonormal to 1e-15
        r = v - self.ortho @ (self.ortho.conj().T @ v)
        return r - self.ortho @ (self.ortho.conj().T @ r)

    def try_extend(self, f: FiberElement) -> bool:
        """Add ``f`` to the span if independent; True when the rank grew."""
        v = self.coords(f)
        scale = np.linalg.norm(v)
        if scale <= ORTHO_PIVOT_TOL:
            return False
        r = self.residual_coords(v / scale)
        rnorm = np.linalg.norm(r)
        if rnorm <= ORTHO_PIVOT_TOL:
            return False
        self.ortho = np.hstack([self.ortho, (r / rnorm)[:, None]])
        return True

    def project(self, f: FiberElement) -> FiberElement:
        v = self.coords(f)
        return self.from_coords(self.ortho @ (self.ortho.conj().T @ v))

    def membership_residual(self, f: FiberElement) -> float:
        v = self.coords(f)
        return float(np.linalg.norm(self.residual_coords(v)))

    @property
    def rank(self) -> int:
        return self.ortho.shape[1]

    def basis_elements(self) -> list[FiberElement]:
        return [self.from_coords(self.ortho[:, k]) for k in range(self.rank)]


class SubalgebraBasis:
    """Validated per-fiber spanning data of a unital *-subalgebra."""

    __slots__ = ("bundle", "generators", "projectors", "closure_residual")

    def __init__(self, bundle, generators, projectors, closure_residual):
        self.bundle = bundle
        self.generators = generators
        self.projectors = projectors
        self.closure_residual = closure_residual

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.rank for p in self.projectors)

    def is_full(self) -> bool:
        return self.dims == self.bundle.algebra_dims()

    def fiber_basis(self, label: str) -> list[FiberElement]:
        return self.projectors[self.bundle.space.index_of(label)].basis_elements()

    def membership_residual(self, x: Section) -> float:
        if x.bundle is not self.bundle and x.bundle != self.bundle:
            raise ShapeMismatchError("section lives on a different bundle")
        return max(
            p.membership_residual(f) for p, f in zip(self.projectors, x.fibers)
        )

    def random_element(self, seed: int) -> Section:
        """Seed-deterministic element of the subalgebra (Gaussian coefficients)."""
        rng = np.random.default_rng([7, int(seed) & 0xFFFFFFFFFFFFFFFF])
        fibers = []
        for p in self.projectors:
            k = p.rank
            coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            fibers.append(p.from_coords(p.ortho @ coeff))
        return Section._raw(self.bundle, fibers)

    def restrict(self, labels) -> "SubalgebraBasis":
        """Rebuild the validated basis on a sub-bundle from the same generators."""
        sub = self.bundle.restrict(labels)
        idx = [self.bundle.space.index_of(l) for l in sub.space.labels]
        return validate_subalgebra(sub, [self.generators[i] for i in idx])

    def __repr__(self):
        return f"SubalgebraBasis(dims={self.dims})"


def validate_subalgebra(bundle: BundleSpec, generators) -> SubalgebraBasis:
    """Close per-atom generator lists into a validated unital *-subalgebra.

    The identity is adjoined first; the span then grows by adjoints and
    pairwise products until the dimension stabilizes.  A span that tries to
    exceed the fiber algebra dimension means the numerics broke down and is
    reported as an inconsistency.
    """
    generators = [tuple(gens) for gens in generators]
    if len(generators) != bundle.space.size:
        raise ShapeMismatchError("need one generator list per atom")
    projectors = []
    worst_closure = 0.0
    for label, shape, weights, gens in zip(
        bundle.space.labels, bundle.fiber_shapes, bundle.trace_weights, generators
    ):
        for g in gens:
            if g.dims != shape:
                raise ShapeMismatchError(
                    f"generator at {label!r} has dims {g.dims}, expected {shape}"
                )
        proj = _FiberProjector(shape, weights)
        cap = sum(n * n for n in shape)
        accepted: list[FiberElement] = []
        frontier: list[FiberElement] = []
        seeds = [identity_fiber(shape)] + [g for g in gens] + [g.adjoint() for g in gens]
        for f in seeds:
            if proj.try_extend(f):
                accepted.append(f)
                frontier.append(f)
        while frontier:
            if proj.rank > cap:
                raise InconsistencyError(
                    f"closure at {label!r} exceeded the fiber algebra dimension {cap}"
                )
            fresh: list[FiberElement] = []
            candidates: list[FiberElement] = [f.adjoint() for f in frontier]
            for f in frontier:
                for g in accepted:
                    candidates.append(f * g)
                    candidates.append(g * f)
            for f in candidates:
                if proj.try_extend(f):
                    accepted.append(f)
                    fresh.append(f)
            frontier = fresh
        if proj.rank > cap:
            raise InconsistencyError(
                f"closure at {label!r} exceeded the fiber algebra dimension {cap}"
            )
        gram = proj.ortho.conj().T @ proj.ortho
        gram_drift = float(np.abs(gram - np.eye(proj.rank)).max())
        if gram_drift > SPAN_RESIDUAL_TOL:
            raise ContractViolationError(
                f"orthonormalization at {label!r} degenerated (Gram drift {gram_drift:.2e})"
            )
        one_res = proj.membership_residual(identity_fiber(shape))
        if one_res > SPAN_RESIDUAL_TOL:
            raise InconsistencyError(
                f"identity escaped the span at {label!r} (residual {one_res:.2e})"
            )
        basis = proj.basis_elements()
        closure = 0.0
        for e in basis:
            closure = max(closure, proj.membership_residual(e.adjoint()))
        for a in basis:
            for b in basis:
                closure = max(closure, proj.membership_residual(a * b))
        if closure > CLOSURE_RESIDUAL_TOL:
            raise InconsistencyError(
                f"span at {label!r} is not closed under * and products "
                f"(residual {closure:.2e})"
            )
        worst_closure = max(worst_closure, closure)
        projectors.append(proj)
    return SubalgebraBasis(bundle, generators, projectors, worst_closure)


class ConditionalExpectation:
    """The unique trace-preserving projection of the bundle algebra onto a subalgebra."""

    __slots__ = ("target",)

    def __init__(self, target: SubalgebraBasis):
        self.target = target

    @property
    def bundle(self) -> BundleSpec:
        return self.target.bundle

    def __call__(self, x: Section) -> Section:
        if x.bundle is not self.bundle and x.bundle != self.bundle:
            raise ShapeMismatchError("section lives on a different bundle")
        return Section._raw(
            self.bundle,
            [p.project(f) for p, f in zip(self.target.projectors, x.fibers)],
        )

    def apply_fiber(self, label: str, f: FiberElement) -> FiberElement:
        """Per-fiber factorization: the same projection applied to one fiber."""
        return self.target.projectors[self.bundle.space.index_of(label)].project(f)

    def __repr__(self):
        return f"ConditionalExpectation(dims={self.target.dims})"


def build_cond_exp(target: SubalgebraBasis) -> ConditionalExpectation:
    return ConditionalExpectation(target)


@dataclass
class AxiomReport:
    """Worst residuals of every conditional-expectation axiom over random trials."""

    trials: int
    seed: int
    residuals: dict = field(default_factory=dict)
    per_fiber_worst: dict = field(default_factory=dict)

    def worst(self) -> float:
        return max(self.residuals.values())

    def to_dict(self) -> dict:
        return asdict(self)


def _per_atom_max_abs(x: Section) -> np.ndarray:
    return np.array([f.max_abs() for f in x.fibers])


def check_cond_exp_axioms(E: ConditionalExpectation, trials: int, seed: int) -> AxiomReport:
    """Measure every defining property of the conditional expectation.

    Residuals reported: idempotence, unitality, positivity (most negative
    eigenvalue of the image of a positive element), the bimodule property
    ``E(a x b) = a E(x) b`` for subalgebra a, b, trace preservation, the
    pairing identity ``trace(E(x) y) = trace(x y)`` for subalgebra y, the Lp
    contraction bound for p in {1, 2, 3, 4}, scalarized-trace preservation for
    random positive center weights, and agreement between the global map and
    independently rebuilt single-atom maps.  Never raises on a residual; the
    caller compares against tolerances.
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
