"""The global algebra as a bundle of matrix fibers over a finite atom space.

A bundle spec fixes, per atom, the fiber shape (block dimensions) and strictly
positive per-block trace weights; the referee holds elements as block stacks
(``gaussian_stacks``, ``seeded_stacks``) and a section (``views.Section``)
assigns a fiber element to every atom.  All arithmetic is fiberwise with no
cross-fiber data flow, so evaluating at an atom commutes with every operation by
construction (same arithmetic path, bit for bit).
"""

from __future__ import annotations

import numpy as np

from .center import MeasureSpace
from .errors import ContractViolationError, ShapeMismatchError, UsageError

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


def split_blocks(flat: np.ndarray, dims) -> list[np.ndarray]:
    """Cut the last axis of ``flat``, row-major blocks one after another, into ``n x n`` blocks."""
    out, offset = [], 0
    for n in dims:  # plain slicing: np.split costs ~40 us per call at these sizes
        out.append(flat[..., offset : offset + n * n].reshape(flat.shape[:-1] + (n, n)))
        offset += n * n
    return out


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


def __getattr__(name):  # the names that moved to ``views``, which loads on first use
    if name in ("center_scale", "identity_section", "lane_section", "random_section", "Section",
                "section_from_records", "section_to_records", "uniform_norm"):
        from . import views
        return getattr(views, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
