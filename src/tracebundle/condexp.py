"""Trace-preserving conditional expectation onto a fiberwise subalgebra.

A subalgebra is given by per-atom generator lists; validation closes the span
under adjoints and products, adjoins the identity, and orthonormalizes it in
the trace inner product ``<a, b> = trace_w(b* a)``.  The conditional
expectation is the orthogonal projection onto that span, applied fiber by
fiber; trace preservation, the bimodule property, positivity, the Lp contraction
bound and locality (``E(z x) = z E(x)`` for central z) are verifiable consequences,
collected by ``cond_exp_axiom_checks`` with one stacked eigensolve per block size.
"""

from __future__ import annotations

import sys

import numpy as np

from . import tracelp
from .bundle import BundleSpec, gaussian_stacks, split_blocks
from .errors import ContractViolationError, InconsistencyError, ShapeMismatchError, UsageError
from .fiber import (FiberElement, _jacobi_eigenvalues_stack, gram_eigenvalues_stack, identity_fiber,
                    solve_by_block_size)
from .tracelp import derive_seed, packed_chunks, stacked_lp_norms, stacked_traces

ORTHO_PIVOT_TOL = 1e-10       # rank decision on unit-norm candidates; a vanished unit product
CLOSURE_RESIDUAL_TOL = 1e-9   # *-and-product closure of the validated span
SPAN_RESIDUAL_TOL = 1e-10     # Gram drift of the orthonormalized basis
CONTRACTION_EXPONENTS = (1.0, 2.0, 3.0, 4.0)


class _FiberProjector:
    """Orthogonal projection onto one fiber's subalgebra span.

    Works in weighted coordinates: a fiber element maps to the concatenation
    of ``sqrt(c_j) * vec(block_j)``, where the trace inner product becomes the
    plain Euclidean one.  Elements go through as stacks of S, one ``(S, n, n)``
    array per block; a single element is a one-lane stack.  It keeps the closure
    state of ``validate_subalgebra``: the accepted elements, the keys of every
    candidate tried, and the closure residual.
    """

    __slots__ = ("shape", "sqrt_weights", "ortho", "accepted", "tried", "closure")

    def __init__(self, shape, weights):
        self.shape = tuple(shape)
        parts = [np.full(n * n, np.sqrt(c)) for n, c in zip(shape, weights)]
        self.sqrt_weights = np.concatenate(parts)
        self.ortho = np.zeros((self.sqrt_weights.size, 0), dtype=np.complex128)
        self.accepted, self.tried, self.closure = [], set(), 0.0

    def copy(self) -> _FiberProjector:
        """A copy with its own ``accepted`` list and ``tried`` set, to extend on its own."""
        new = object.__new__(_FiberProjector)
        new.shape, new.sqrt_weights, new.ortho, new.closure = (self.shape, self.sqrt_weights,
                                                               self.ortho, self.closure)
        new.accepted, new.tried = list(self.accepted), set(self.tried)
        return new

    def stack_coords(self, blocks) -> np.ndarray:
        """Weighted coordinates ``(S, 1, dim)`` of S stacked elements."""
        v = np.concatenate([b.reshape(len(b), 1, -1) for b in blocks], axis=2)
        return v * self.sqrt_weights

    def residual_coords(self, v: np.ndarray) -> np.ndarray:
        # two orthogonalization passes keep the basis orthonormal to 1e-15
        r = v - self.ortho @ (self.ortho.conj().T @ v)
        return r - self.ortho @ (self.ortho.conj().T @ r)

    def try_extend(self, f: FiberElement) -> bool:
        """Add ``f`` to the span when the direction of its weighted coordinates ``v`` has a
        residual above ORTHO_PIVOT_TOL; True when the rank grew.  Only the exact zero is in every
        span.  Where the squares of ``v`` leave the float range (sum below ``min / eps`` or
        past the largest float), ``v`` is taken from ``f`` at unit scale and brought to unit
        scale itself: exact, so the direction ``v / ||v||`` keeps its bits."""
        v = np.concatenate([b.ravel() for b in f.blocks]) * self.sqrt_weights
        scale = np.linalg.norm(v)
        if not sys.float_info.min / sys.float_info.epsilon <= scale * scale < np.inf:
            if not f.max_abs():
                return False
            v = np.concatenate([b.ravel() for b in _unit_scaled(f).blocks]) * self.sqrt_weights
            v = v * 2.0 ** -int(np.frexp(np.abs(v).max())[1])  # sqrt(c): past 2**(+-540) never
            scale = np.linalg.norm(v)
        r = self.residual_coords(v / scale)
        rnorm = np.linalg.norm(r)
        if rnorm <= ORTHO_PIVOT_TOL:
            return False
        self.ortho = np.hstack([self.ortho, (r / rnorm)[:, None]])
        return True

    def project_stack(self, blocks) -> list[np.ndarray]:
        """The orthogonal projections of S stacked elements, each on its own."""
        return self.stack_from_basis(self.stack_coords(blocks) @ self.ortho.conj())

    def stack_from_basis(self, coeff: np.ndarray) -> list[np.ndarray]:
        """Block stacks of the elements with ``(S, 1, rank)`` coefficients in ``ortho``."""
        return split_blocks((coeff @ self.ortho.T)[:, 0] / self.sqrt_weights, self.shape)

    def stack_residuals(self, blocks) -> np.ndarray:
        """Distances ``(S,)`` of S stacked elements to the span."""
        return np.linalg.norm(self.residual_coords(self.stack_coords(blocks)[:, 0].T), axis=0)

    @property
    def rank(self) -> int:
        return self.ortho.shape[1]


class SubalgebraBasis:
    """Validated per-fiber spanning data of a unital *-subalgebra: the generators and
    one projector per atom, whose ``closure`` gives ``closure_residual``."""

    __slots__ = ("bundle", "generators", "projectors")

    def __init__(self, bundle, generators, projectors):
        self.bundle = bundle
        self.generators = generators
        self.projectors = projectors

    @property
    def closure_residual(self) -> float:
        """The worst closure residual over the atoms, folded with NumPy: a NaN propagates."""
        return float(np.max([p.closure for p in self.projectors]))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.rank for p in self.projectors)

    def is_full(self) -> bool:
        return self.dims == self.bundle.algebra_dims()

    def random_stacks(self, rng: np.random.Generator, count: int) -> list[np.ndarray]:
        """``count`` elements as ``(S, n, n)`` stacks; lane s is the next ``2 * sum(dims)`` draws."""
        draws = rng.standard_normal((count, 2 * sum(self.dims)))
        stacks, start = [], 0
        for p in self.projectors:  # plain slicing: np.split costs ~40 us per call at these sizes
            re, im = draws[:, start:start + p.rank], draws[:, start + p.rank:start + 2 * p.rank]
            stacks.extend(p.stack_from_basis((re + 1j * im)[:, None]))
            start += 2 * p.rank
        return stacks


def validate_subalgebra(bundle: BundleSpec | SubalgebraBasis, generators) -> SubalgebraBasis:
    """Close per-atom generator lists into a validated unital *-subalgebra.

    Round 1 tries the identity (always accepted), the generators and their
    adjoints; each later round, the new elements' adjoints and their products
    with all accepted ones, each factor at unit scale (``_unit_scaled``), those
    whose largest entry is at most ORTHO_PIVOT_TOL (vanished) left out.  The rank
    decision and the closure test are relative, so the span is the same, bit for
    bit, at every power-of-two magnitude of the generators and power-of-four unit
    of the trace weights.  A candidate equal to one tried before at the atom is
    skipped, as the span only grew since.  The loop stops once the closure
    residual (0.0 for a span of full rank, the fiber algebra; else
    ``_closure_residual``) is within CLOSURE_RESIDUAL_TOL, and fails closure
    when a round grows nothing.  ``bundle`` may be a validated SubalgebraBasis
    instead: the loop goes on from its span and closure state, trying only the
    candidates it did not, and the generators are its own followed by ``generators``.
    """
    below = bundle if isinstance(bundle, SubalgebraBasis) else None
    bundle = below.bundle if below else bundle
    generators = [tuple(gens) for gens in generators]
    if len(generators) != bundle.space.size:
        raise ShapeMismatchError("need one generator list per atom")
    projectors = []
    for i, (label, shape, weights, gens) in enumerate(zip(
        bundle.space.labels, bundle.fiber_shapes, bundle.trace_weights, generators
    )):
        for g in gens:
            if g.dims != shape:
                raise ShapeMismatchError(
                    f"generator at {label!r} has dims {g.dims}, expected {shape}"
                )
        proj = below.projectors[i].copy() if below else _FiberProjector(shape, weights)
        cap, tried, closure = sum(n * n for n in shape), proj.tried, proj.closure
        frontier = [identity_fiber(shape), *gens, *(g.adjoint() for g in gens)]
        with np.errstate(over="ignore"):  # a candidate's overflowing squares: normed at unit scale
            while fresh := [f for f in frontier if proj.rank < cap and _first_try(f, tried)
                            and proj.try_extend(f)]:
                proj.accepted += fresh
                closure = 0.0 if proj.rank == cap else _closure_residual(proj)
                if closure <= CLOSURE_RESIDUAL_TOL:
                    break
                unit = [_unit_scaled(g) for g in proj.accepted]  # products stay in float range
                frontier = [f.adjoint() for f in fresh] + [
                    h for f in unit[-len(fresh):] for g in unit for h in (f * g, g * f)
                    if h.max_abs() > ORTHO_PIVOT_TOL]
        gram = proj.ortho.conj().T @ proj.ortho
        gram_drift = float(np.abs(gram - np.eye(proj.rank)).max())
        if gram_drift > SPAN_RESIDUAL_TOL:
            raise ContractViolationError(
                f"orthonormalization at {label!r} degenerated (Gram drift {gram_drift:.2e})"
            )
        if closure > CLOSURE_RESIDUAL_TOL:
            raise InconsistencyError(
                f"span at {label!r} is not closed under * and products "
                f"(residual {closure:.2e})"
            )
        proj.closure = closure
        projectors.append(proj)
    if below:
        generators = [old + new for old, new in zip(below.generators, generators)]
    return SubalgebraBasis(bundle, generators, projectors)


def _unit_scaled(f: FiberElement) -> FiberElement:
    """``f`` times the power of two that brings its largest entry into [0.5, 1) (short of it
    when subnormal): exact, so ``v / ||v||`` of its weighted coordinates keeps its bits."""
    return f * 2.0 ** min(-int(np.frexp(f.max_abs())[1]), 1022)


def _first_try(f: FiberElement, tried: set) -> bool:
    """False when a candidate of the same values was tried before (-0.0 and 0.0 are one value:
    ``(e_ij)*`` and ``e_ji`` differ only in the sign of zeros): the span only grew since."""
    key = b"".join((b + 0.0).tobytes() for b in f.blocks)
    return key not in tried and tried.add(key) is None  # set.add returns None


def _closure_residual(proj: _FiberProjector) -> float:
    """Worst distance to the span of the stacked basis adjoints and basis products
    ``a_j a_k``, the products in stacks of at most DUALITY_CHUNK to bound the memory.  The
    basis has unit weighted norm, so a product's distance is divided by the largest entry of
    its left factor, which scales with the weights' unit as the distance does."""
    basis = proj.stack_from_basis(np.eye(proj.rank)[:, None])
    closure = proj.stack_residuals([b.conj().transpose(0, 2, 1) for b in basis]).max()
    largest = np.max([np.abs(b).max(axis=(1, 2)) for b in basis], axis=0)
    pairs = np.divmod(np.arange(proj.rank ** 2), proj.rank)  # (j, k) of every product a_j a_k
    for start in range(0, proj.rank ** 2, tracelp.DUALITY_CHUNK):
        j, k = (ids[start:start + tracelp.DUALITY_CHUNK] for ids in pairs)
        closure = max(closure, (proj.stack_residuals([b[j] @ b[k] for b in basis])
                                / largest[j]).max())
    return float(closure)


class ConditionalExpectation:
    """The unique trace-preserving projection of the bundle algebra onto a subalgebra."""

    __slots__ = ("target",)

    def __init__(self, target: SubalgebraBasis):
        self.target = target

    @property
    def bundle(self) -> BundleSpec:
        return self.target.bundle

    def __call__(self, x):
        from .views import Section  # a view: no CLI call applies E to a section
        if x.bundle is not self.bundle and x.bundle != self.bundle:
            raise ShapeMismatchError("section lives on a different bundle")
        return Section._raw(self.bundle, [self.apply_fiber(label, f) for label, f
                                          in zip(self.bundle.space.labels, x.fibers)])

    def apply_fiber(self, label: str, f: FiberElement) -> FiberElement:
        """Per-fiber factorization: the atom's projector applied to ``f`` as a one-lane stack."""
        proj = self.target.projectors[self.bundle.space.index_of(label)]
        return FiberElement._raw([b[0] for b in proj.project_stack([b[None] for b in f.blocks])])


class AxiomReport:
    """Worst residuals of every conditional-expectation axiom over random trials."""

    def __init__(self, trials: int, seed: int, residuals: dict = None,
                 per_fiber_worst: dict = None):
        self.trials, self.seed = trials, seed
        self.residuals = {} if residuals is None else residuals
        self.per_fiber_worst = {} if per_fiber_worst is None else per_fiber_worst

    def worst(self) -> float:
        return max(self.residuals.values())

    def to_dict(self) -> dict:
        return dict(vars(self), residuals=dict(self.residuals),
                    per_fiber_worst=dict(self.per_fiber_worst))


def _project(projectors, blocks) -> list[np.ndarray]:
    """Apply per-fiber projectors to sections held as one ``(S, n, n)`` stack per block."""
    out = []
    for p in projectors:
        out.extend(p.project_stack(blocks[len(out) : len(out) + len(p.shape)]))
    return out


def cond_exp_axiom_checks(cases, trials: int) -> list[AxiomReport]:
    """``check_cond_exp_axioms(E, trials, seed)`` for every ``(E, seed)`` case, in order.

    The cases' chunks go through in groups (``packed_chunks``), each with one stacked
    solve per block size for its positivity eigenvalues and Gram spectra together.  Each
    case projects a chunk in two stacked calls (``_AxiomTally.draw``).  No step mixes
    trials or cases, so neither the grouping nor the stacking shows in a report.
    """
    if trials < 1:
        raise UsageError("need at least one trial")
    tallies = [_AxiomTally(E, seed) for E, seed in cases]
    for group in packed_chunks(len(cases), trials):
        held = [tallies[k].draw(size) for k, size in group]
        eigs = iter(solve_by_block_size([s for ss, _ in held for s in ss], _jacobi_eigenvalues_stack))
        for (k, size), (stacks, both) in zip(group, held):
            tallies[k].finish(size, [next(eigs) for _ in stacks], both)
    return [AxiomReport(trials=trials, seed=seed, residuals=t.res,
                        per_fiber_worst=dict(zip(E.bundle.space.labels, t.per_fiber.tolist())))
            for (E, seed), t in zip(cases, tallies)]


class _AxiomTally:
    """The worst residuals of one conditional expectation, folded in chunk by chunk."""

    def __init__(self, E: ConditionalExpectation, seed: int):
        bundle, self.E = E.bundle, E
        self.res = dict.fromkeys((
            "idempotence", "unitality", "positivity", "module_property", "trace_preservation",
            "bimodule_pairing", "scalarized_trace", "fiberwise_agreement",
        ) + tuple(f"lp_contraction_p{p:g}" for p in CONTRACTION_EXPONENTS), 0.0)
        ones = [np.eye(n, dtype=np.complex128)[None]
                for shape in bundle.fiber_shapes for n in shape]
        self.res["unitality"] = float(np.max(_gap(_project(E.target.projectors, ones), ones)))
        self.per_fiber = np.zeros(bundle.space.size)
        self.block_atoms = [i for i, _ in bundle.block_slots()]
        self.first_blocks = np.cumsum([0, *map(len, bundle.fiber_shapes[:-1])])
        k = np.arange(bundle.space.size) % 1024  # the z of fiberwise_agreement, per block
        self.z = (2.0 ** (k - min(bundle.space.size, 1024) // 2))[self.block_atoms]
        self.rngs = {tag: np.random.default_rng(derive_seed(seed, f"axiom-{tag}"))
                     for tag in ("x", "pos", "a", "b", "y", "nu")}

    def bump(self, name, values, per_atom=False):
        """Fold ``(S,)`` values, one per block (or per atom), in with NumPy, where a NaN propagates."""
        worst = np.max(values, axis=1)
        worst = worst if per_atom else np.maximum.reduceat(worst, self.first_blocks)
        self.res[name] = float(np.max(worst, initial=self.res[name]))
        self.per_fiber = np.maximum(self.per_fiber, worst)

    def draw(self, size: int):
        """Draw ``size`` trials and fold in every residual that needs no eigenvalues.

        One stacked ``_project`` call takes ``x``, ``g* g``, ``a x b`` and ``z x`` together,
        ``4 * size`` lanes per block; ``E(E(x))`` is the second, as it needs ``E(x)``.
        Returns the stacks whose eigenvalues ``finish`` needs, one per block the Hermitian
        ones it checks for positivity and then the Gram matrices of ``both``; and ``both``,
        ``E(x)`` (rows < size) stacked on ``x``, whose Lp norms ``finish`` compares.
        """
        E, rngs = self.E, self.rngs
        bundle, projectors = E.bundle, E.target.projectors
        x, g = (gaussian_stacks(bundle, rngs[tag], size) for tag in ("x", "pos"))
        a, b, y = (E.target.random_stacks(rngs[tag], size) for tag in "aby")
        images = _project(projectors, [
            np.concatenate([xi, gi.conj().transpose(0, 2, 1) @ gi, ai @ xi @ bi, zi * xi])
            for zi, xi, gi, ai, bi in zip(self.z, x, g, a, b)])
        ex, epos, axb, ezx = ([e[k * size:(k + 1) * size] for e in images] for k in range(4))
        self.bump("idempotence", _gap(_project(projectors, ex), ex))
        hs = [0.5 * (e + e.conj().transpose(0, 2, 1)) for e in epos]
        # relative to |a| |x| |b| per trial and atom, Frobenius norms over the atom's blocks:
        # it bounds every entry of a x b, so the round-off of either side is eps times it.  The
        # squares and moduli are formed from real parts, as numpy's complex abs loops round
        # differently on each SIMD target
        sq = [[np.sum(z.real * z.real + z.imag * z.imag, axis=(1, 2)) for z in f] for f in (a, x, b)]
        scale = np.prod([np.sqrt(np.add.reduceat(s, self.first_blocks)) for s in sq], axis=0)
        self.bump("module_property", [g / scale[i] for g, i in zip(
            _gap(axb, [u @ v @ w for u, v, w in zip(a, ex, b)]), self.block_atoms)])
        tr_x, tr_ex = stacked_traces(x, bundle), stacked_traces(ex, bundle)
        d = tr_ex - tr_x
        self.bump("trace_preservation", np.hypot(d.real, d.imag).T, per_atom=True)
        pair_ex, pair_x = (stacked_traces([u @ v for u, v in zip(s, y)], bundle) for s in (ex, x))
        d = pair_ex - pair_x
        self.bump("bimodule_pairing", np.hypot(d.real, d.imag).T, per_atom=True)
        nu = rngs["nu"].uniform(0.1, 2.0, size=(size, bundle.space.size))
        d = np.abs(np.sum(nu * tr_ex, axis=1) - np.sum(nu * tr_x, axis=1))
        self.res["scalarized_trace"] = float(np.max(d, initial=self.res["scalarized_trace"]))
        self.bump("fiberwise_agreement", _gap([e / zi for zi, e in zip(self.z, ezx)], ex))
        both = [np.concatenate(pair) for pair in zip(ex, x)]
        return hs + [np.einsum("ski,skj->sij", z.conj(), z) for z in both], both

    def finish(self, size: int, eigenvalues, both):
        """Fold in the positivity and Lp contraction residuals of the trials ``draw`` left."""
        self.bump("positivity", [np.maximum(0.0, -w.min(axis=1)) for w in eigenvalues[:len(both)]])
        spectra = [np.maximum(w, 0.0) for w in eigenvalues[len(both):]]
        # the Gram route errs by about n eps max(w) per eigenvalue, so a lane with an
        # eigenvalue near that floor (rank-deficient or graded) is solved one-sided instead
        for w, y in zip(spectra, both):
            bad = w.min(axis=1) <= 2.0**-26 * w.max(axis=1)
            if bad.any():
                w[bad] = gram_eigenvalues_stack(y[bad])
        norms = stacked_lp_norms(both, self.E.bundle, CONTRACTION_EXPONENTS, spectra)
        for p, n in zip(CONTRACTION_EXPONENTS, norms):
            gain = np.maximum(n[:size] - n[size:], 0.0)
            self.bump(f"lp_contraction_p{p:g}", gain.T, per_atom=True)


def _gap(us, vs):
    return [np.abs(u - v).max(axis=(1, 2)) for u, v in zip(us, vs)]


def __getattr__(name):  # the names that moved to ``views``, which loads on first use
    if name in ("check_cond_exp_axioms",):
        from . import views
        return getattr(views, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
