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

from .bundle import BundleSpec, Section, gaussian_stacks, identity_section, split_blocks
from .errors import ContractViolationError, InconsistencyError, ShapeMismatchError, UsageError
from .fiber import FiberElement, _jacobi_eigenvalues_stack, identity_fiber
from .tracelp import chunks, derive_seed, solve_by_block_size, stacked_lp_norms, stacked_traces

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
        return FiberElement._raw(split_blocks(v / self.sqrt_weights, self.shape))

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

    def project_stack(self, blocks) -> list[np.ndarray]:
        """``project`` of S elements, one ``(S, n, n)`` stack per block, each on its own."""
        v = np.concatenate([b.reshape(len(b), 1, -1) for b in blocks], axis=2)
        return self.stack_from_basis((v * self.sqrt_weights) @ self.ortho.conj())

    def stack_from_basis(self, coeff: np.ndarray) -> list[np.ndarray]:
        """Block stacks of the elements with ``(S, 1, rank)`` coefficients in ``ortho``."""
        return split_blocks((coeff @ self.ortho.T)[:, 0] / self.sqrt_weights, self.shape)

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
        blocks = iter(b[0] for b in self.random_stacks([seed]))
        fibers = [FiberElement._raw([next(blocks) for _ in p.shape]) for p in self.projectors]
        return Section._raw(self.bundle, fibers)

    def random_stacks(self, seeds) -> list[np.ndarray]:
        """``random_element`` of every seed as one ``(S, n, n)`` stack per block."""
        rngs = [np.random.default_rng([7, int(s) & 0xFFFFFFFFFFFFFFFF]) for s in seeds]
        return [block for p in self.projectors for block in p.stack_from_basis(np.array(
            [[r.standard_normal(p.rank) + 1j * r.standard_normal(p.rank)] for r in rngs]))]

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


def _project(projectors, blocks) -> list[np.ndarray]:
    """Apply per-fiber projectors to sections held as one ``(S, n, n)`` stack per block."""
    out = []
    for p in projectors:
        out.extend(p.project_stack(blocks[len(out) : len(out) + len(p.shape)]))
    return out


def check_cond_exp_axioms(E: ConditionalExpectation, trials: int, seed: int) -> AxiomReport:
    """Measure every defining property of the conditional expectation.

    Residuals reported: idempotence, unitality, positivity (most negative
    eigenvalue of the image of a positive element), the bimodule property
    ``E(a x b) = a E(x) b`` for subalgebra a, b, trace preservation, the
    pairing identity ``trace(E(x) y) = trace(x y)`` for subalgebra y, the Lp
    contraction bound for p in {1, 2, 3, 4}, scalarized-trace preservation for
    random positive center weights, and agreement between the global map and
    independently rebuilt single-atom maps.  Never raises on a residual; the
    caller compares against tolerances.  Trial ``t`` draws each of its sections
    under ``derive_seed(seed, tag, t)`` (tags "axiom-x", "axiom-pos", "axiom-a",
    "axiom-b", "axiom-y", "axiom-nu").  The trials are stacked per block in
    chunks of DUALITY_CHUNK; no step mixes trials, so the chunking does not
    show in the report.
    """
    if trials < 1:
        raise UsageError("need at least one trial")
    bundle = E.bundle
    labels = bundle.space.labels
    projectors = E.target.projectors
    atom_projectors = [E.target.restrict([label]).projectors[0] for label in labels]
    res = dict.fromkeys((
        "idempotence", "unitality", "positivity", "module_property", "trace_preservation",
        "bimodule_pairing", "scalarized_trace", "fiberwise_agreement",
    ) + tuple(f"lp_contraction_p{int(p)}" for p in CONTRACTION_EXPONENTS), 0.0)
    res["unitality"] = (E(identity_section(bundle)) - identity_section(bundle)).max_abs()
    per_fiber = [0.0] * len(labels)
    atom_ids = range(len(labels))
    block_atoms = [i for i, _ in bundle.block_slots()]

    def bump(name, values, owners=block_atoms):
        """Fold nonnegative ``(S,)`` values, one per block (or per atom), into the report."""
        for i, v in zip(owners, values):
            res[name] = max(res[name], float(v.max()))
            per_fiber[i] = max(per_fiber[i], float(v.max()))

    def gap(us, vs):
        return [np.abs(u - v).max(axis=(1, 2)) for u, v in zip(us, vs)]

    for ids in chunks(trials):
        seeds = {tag: [derive_seed(seed, f"axiom-{tag}", t) for t in ids]
                 for tag in ("x", "pos", "a", "b", "y", "nu")}
        x = gaussian_stacks(bundle, seeds["x"])
        g = gaussian_stacks(bundle, seeds["pos"], "positive")
        a, b, y = (E.target.random_stacks(seeds[tag]) for tag in "aby")
        ex = _project(projectors, x)
        bump("idempotence", gap(_project(projectors, ex), ex))
        epos = _project(projectors, [v.conj().transpose(0, 2, 1) @ v for v in g])
        hs = [0.5 * (e + e.conj().transpose(0, 2, 1)) for e in epos]
        bump("positivity", [np.maximum(0.0, -w.min(axis=1))
                            for w in solve_by_block_size(hs, _jacobi_eigenvalues_stack)])
        axb = _project(projectors, [u @ v @ w for u, v, w in zip(a, x, b)])
        bump("module_property", gap(axb, [u @ v @ w for u, v, w in zip(a, ex, b)]))
        tr_x, tr_ex = stacked_traces(x, bundle), stacked_traces(ex, bundle)
        bump("trace_preservation", np.abs(tr_ex - tr_x).T, atom_ids)
        pair_ex, pair_x = (stacked_traces([u @ v for u, v in zip(s, y)], bundle) for s in (ex, x))
        bump("bimodule_pairing", np.abs(pair_ex - pair_x).T, atom_ids)
        both = [np.concatenate(pair) for pair in zip(ex, x)]  # E(x) in rows < len(ids)
        for p, n in zip(CONTRACTION_EXPONENTS, stacked_lp_norms(both, bundle, CONTRACTION_EXPONENTS)):
            gain = np.maximum(n[: len(ids)] - n[len(ids) :], 0.0)
            bump(f"lp_contraction_p{int(p)}", gain.T, atom_ids)
        nu = np.array([np.random.default_rng([11, s]).uniform(0.1, 2.0, size=len(labels))
                       for s in seeds["nu"]])
        d = np.abs(np.sum(nu * tr_ex, axis=1) - np.sum(nu * tr_x, axis=1))
        res["scalarized_trace"] = max(res["scalarized_trace"], float(d.max()))
        bump("fiberwise_agreement", gap(_project(atom_projectors, x), ex))

    return AxiomReport(trials=trials, seed=seed, residuals=res,
                       per_fiber_worst=dict(zip(labels, per_fiber)))
