"""The global algebra as a bundle of matrix fibers over a finite atom space.

A bundle spec fixes, per atom, the fiber shape (block dimensions) and strictly
positive per-block trace weights; a section assigns a fiber element to every
atom.  All section arithmetic is fiberwise with no cross-fiber data flow, so
evaluating at an atom commutes with every operation by construction (same
arithmetic path, bit for bit).
"""

from __future__ import annotations

import numpy as np

from .center import CenterElement, MeasureSpace
from .errors import ContractViolationError, ShapeMismatchError, UsageError
from .fiber import (
    FiberElement,
    herm_eig,
    identity_fiber,
    polar,
    spectral_norm,
)

SECTION_KINDS = ("general", "hermitian", "positive", "unitary", "projection")
_KIND_CODE = {kind: i for i, kind in enumerate(SECTION_KINDS)}


class BundleSpec:
    """Measure space plus, per atom, the fiber block dimensions and trace weights."""

    __slots__ = ("space", "fiber_shapes", "trace_weights")

    def __init__(self, space: MeasureSpace, fiber_shapes, trace_weights):
        self.space = space
        shapes = tuple(tuple(int(n) for n in shape) for shape in fiber_shapes)
        weights = tuple(tuple(float(c) for c in cs) for cs in trace_weights)
        if len(shapes) != space.size or len(weights) != space.size:
            raise ShapeMismatchError("need one fiber shape and one weight list per atom")
        for label, shape, cs in zip(space.labels, shapes, weights):
            if len(shape) < 1 or any(n < 1 for n in shape):
                raise UsageError(f"fiber at {label!r} needs block dims >= 1, got {shape}")
            if len(cs) != len(shape):
                raise ShapeMismatchError(f"fiber at {label!r}: one trace weight per block")
            if any(not np.isfinite(c) or c <= 0.0 for c in cs):
                raise ContractViolationError(
                    f"fiber at {label!r}: trace weights must be positive (faithfulness)"
                )
        self.fiber_shapes = shapes
        self.trace_weights = weights

    def shape_at(self, label: str) -> tuple[int, ...]:
        return self.fiber_shapes[self.space.index_of(label)]

    def block_slots(self) -> list[tuple[int, float]]:
        """(atom index, trace weight) of every block, in atom and block order."""
        return [(i, c) for i, cs in enumerate(self.trace_weights) for c in cs]

    def algebra_dims(self) -> tuple[int, ...]:
        """Linear dimension of each fiber algebra (sum of squared block dims)."""
        return tuple(sum(n * n for n in shape) for shape in self.fiber_shapes)

    def restrict(self, labels) -> "BundleSpec":
        """Sub-bundle over a subset of atoms (same weights, shapes, order)."""
        labels = [str(l) for l in labels]
        idx = [self.space.index_of(l) for l in labels]
        sub = MeasureSpace(labels, self.space.weights[idx])
        return BundleSpec(
            sub,
            [self.fiber_shapes[i] for i in idx],
            [self.trace_weights[i] for i in idx],
        )

    def __eq__(self, other):
        return (
            isinstance(other, BundleSpec)
            and self.space == other.space
            and self.fiber_shapes == other.fiber_shapes
            and self.trace_weights == other.trace_weights
        )

    def __hash__(self):
        return hash((self.space, self.fiber_shapes, self.trace_weights))


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
        self.bundle = bundle
        self.fibers = fibers

    @classmethod
    def _raw(cls, bundle, fibers):
        self = object.__new__(cls)
        self.bundle = bundle
        self.fibers = tuple(fibers)
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


def center_scale(z: CenterElement, x: Section) -> Section:
    """Module action of the center: atom ``w`` gets ``z(w) * x(w)``."""
    if z.space is not x.bundle.space and z.space != x.bundle.space:
        raise ShapeMismatchError("center element and section live on different spaces")
    return Section._raw(
        x.bundle, [complex(v) * f for v, f in zip(z.values, x.fibers)]
    )


def uniform_norm(x: Section) -> float:
    """The C*-norm: max over atoms of the largest singular value of the fiber."""
    return max(spectral_norm(f) for f in x.fibers)


def split_blocks(flat: np.ndarray, dims) -> list[np.ndarray]:
    """Cut the last axis of ``flat``, row-major blocks one after another, into ``n x n`` blocks."""
    out, offset = [], 0
    for n in dims:  # plain slicing: np.split costs ~40 us per call at these sizes
        out.append(flat[..., offset : offset + n * n].reshape(flat.shape[:-1] + (n, n)))
        offset += n * n
    return out


def lane_section(bundle: BundleSpec, stacks, lane: int) -> Section:
    """Lane ``lane`` of sections held as one ``(S, n, n)`` stack per block, as a section."""
    blocks = iter(s[lane] for s in stacks)
    return Section._raw(bundle, [FiberElement._raw([next(blocks) for _ in shape])
                                 for shape in bundle.fiber_shapes])


def gaussian_stacks(bundle: BundleSpec, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` standard complex Gaussian sections, one ``(S, n, n)`` stack per block.

    Lane s is the next ``2 * total`` values of ``rng``, real then imaginary parts; chunks concatenate.
    """
    dims = [n for shape in bundle.fiber_shapes for n in shape]
    total = sum(n * n for n in dims)
    draw = rng.standard_normal((count, 2 * total))
    return split_blocks((draw[:, :total] + 1j * draw[:, total:]) / np.sqrt(2.0), dims)


def seeded_stacks(bundle: BundleSpec, seeds, kind: str = "general") -> list[np.ndarray]:
    """The Gaussian draws of ``random_section(bundle, seed, kind)`` for every seed, lane s that
    of ``seeds[s]``, one ``(S, n, n)`` stack per block: one ``gaussian_stacks`` lane each from
    the generator seeded ``[kind code, seed]``.  A ``general`` section is its draw."""
    if kind not in _KIND_CODE:
        raise UsageError(f"unknown section kind {kind!r}; choose from {SECTION_KINDS}")
    draws = [gaussian_stacks(bundle, np.random.default_rng(
        [_KIND_CODE[kind], int(seed) & 0xFFFFFFFFFFFFFFFF]), 1) for seed in seeds]
    return [np.concatenate(slot) for slot in zip(*draws)]


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


def block_records(bundle: BundleSpec, blocks):
    """``(atom label, block index, row, col, re, im)`` rows of the element of ``bundle`` whose
    ``n x n`` blocks are ``blocks``, in atom and block order."""
    rows, blocks = [], iter(blocks)
    for label, shape in zip(bundle.space.labels, bundle.fiber_shapes):
        for k, n in enumerate(shape):
            b = next(blocks)
            for i in range(n):
                for j in range(n):
                    v = b[i, j]
                    rows.append((label, k, i, j, float(v.real), float(v.imag)))
    return rows


def section_to_records(x: Section):
    """Flatten a section to ``(atom label, block index, row, col, re, im)`` rows."""
    return block_records(x.bundle, [b for f in x.fibers for b in f.blocks])


def section_from_records(bundle: BundleSpec, rows) -> Section:
    """Rebuild a section from the flat record format of ``section_to_records``.

    Every matrix entry needs exactly one record; a missing or repeated entry
    raises ``UsageError`` naming it, so a truncated file is never read back
    as a different section.
    """
    blocks = {
        label: [np.zeros((n, n), dtype=np.complex128) for n in shape]
        for label, shape in zip(bundle.space.labels, bundle.fiber_shapes)
    }
    seen = set()
    for label, k, i, j, re, im in rows:
        label = str(label)
        if label not in blocks:
            raise UsageError(f"record references unknown atom {label!r}")
        shape = bundle.shape_at(label)
        k, i, j = int(k), int(i), int(j)
        if not (0 <= k < len(shape) and 0 <= i < shape[k] and 0 <= j < shape[k]):
            raise ShapeMismatchError(
                f"record ({label}, {k}, {i}, {j}) is outside the fiber shape {shape}"
            )
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
    return Section(
        bundle,
        [FiberElement(blocks[label]) for label in bundle.space.labels],
    )
