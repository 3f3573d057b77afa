"""The global algebra as a bundle of matrix fibers over a finite atom space.

A bundle spec fixes, per atom, the fiber shape (block dimensions) and strictly
positive per-block trace weights; the referee holds elements as block stacks
(``gaussian_stacks``, ``seeded_stacks``, drawn from the counter-based ``Stream``) and
a section (``views.Section``) assigns a fiber element to every atom.  All arithmetic
is fiberwise with no cross-fiber data flow, so evaluating at an atom commutes with
every operation by construction (same arithmetic path, bit for bit).
"""

from __future__ import annotations

import math

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


# the SplitMix64 increment and finalizer multipliers (Steele, Lea and Flood, OOPSLA 2014)
_GAMMA, _M1, _M2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                           0x94D049BB133111EB))
ZIGGURAT_ATTEMPTS = 16  # candidates per value; P(a value needs more) is below 1e-18
# s DELTA mod 2**64 for the sub-streams s of the attempts: sub-stream s of key k is the stream
# of key k + s DELTA, at least 2**57 counters away from every other sub-stream of k
_STEPS = np.array([s * 0xD1B54A32D192ED03 % 2**64 for s in range(3 * ZIGGURAT_ATTEMPTS)],
                  dtype=np.uint64)[:, None]


def _words(keys, counters) -> np.ndarray:
    """Value ``counters`` of ``keys`` (uint64 arrays, broadcast, ``keys`` at least 1-d): the
    SplitMix64 finalizer of ``key + (counter + 1) GAMMA``, wrapping mod 2**64."""
    z = counters * _GAMMA + (keys + _GAMMA)
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _unit(words: np.ndarray) -> np.ndarray:
    """The top 53 bits of each word as a float in [0, 1), converted exactly."""
    return (words >> np.uint64(11)) * 2.0**-53


# The right edges e_0 > ... > e_256 = 0 of the ziggurat of 256 equal areas V under f(x) =
# exp(-x**2 / 2) (Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000), and the heights f(e),
# computed with math at import.  Layer i > 0 is the box of width e_i between heights f(e_i)
# and f(e_{i+1}); layer 0 is the strip below f(R) with the tail beyond e_1 = R folded in, so
# e_0 = V / f(R).  At this R the top box closes at f(0) = 1 to 4e-15.
_TAIL = 3.6541528853610088  # R
_AREA = (_TAIL * math.exp(-0.5 * _TAIL * _TAIL)
         + math.sqrt(0.5 * math.pi) * math.erfc(_TAIL / math.sqrt(2.0)))
_EDGE = [_AREA / math.exp(-0.5 * _TAIL * _TAIL), _TAIL]
while len(_EDGE) < 256:
    _EDGE.append(math.sqrt(-2.0 * math.log(math.exp(-0.5 * _EDGE[-1] * _EDGE[-1])
                                           + _AREA / _EDGE[-1])))
_EDGE = np.array(_EDGE + [0.0])
_HEIGHT = np.array([math.exp(-0.5 * e * e) for e in _EDGE.tolist()])
# by a word's bits 0-8, j: layer j % 256, negative when j >= 256.  Its 53-bit magnitude m
# (bits 11-63) times _SCALE[j] is its point, under the curve at once when m < _INSIDE[j]
_SCALE = np.concatenate([_EDGE[:256], -_EDGE[:256]]) * 2.0**-53
_INSIDE = np.tile(_EDGE[1:] / _EDGE[:256] * 2.0**53, 2)


def _candidates(words: np.ndarray):
    """Each word's ``j`` (bits 0-8), signed point, and whether the point is under the curve."""
    m, j = words >> np.uint64(11), (words & np.uint64(511)).view(np.int64)
    return j, m * _SCALE[j], m < _INSIDE[j]


def _normals(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Standard normals, value ``counters`` (1-d) of each of ``keys`` (0-d or 1-d), key by key.
    About 98.5 % of the points are under the curve at once; ``_retry`` finishes the others."""
    _, x, inside = _candidates(_words(keys.reshape(-1, 1), counters).ravel())
    out = np.flatnonzero(~inside)
    if len(out):
        x[out] = _retry(keys.reshape(-1)[out // len(counters)], counters[out % len(counters)])
    return x


def _retry(keys, counters):
    """The normals of the values at ``counters`` of ``keys`` whose first point is not under the
    curve at once, in at most ZIGGURAT_ATTEMPTS attempts.

    Attempt a reads sub-streams ``3a`` to ``3a + 2`` at each value's own counter; sub-stream
    0 is the key's own stream.  From ``3a`` a value takes its candidate, unless it is in the
    tail.  A point in the wedge of layer i is kept when its height, read from ``3a + 1``
    between ``f(e_i)`` and ``f(e_{i+1})``, is below ``f(x)``; else the next attempt takes a
    new candidate.  A draw in the tail takes Marsaglia's ``t = -log1p(-u) / R`` and keeps
    ``R + t``, signed, when ``-2 log1p(-u') > t**2``, ``u`` and ``u'`` read from ``3a + 1``
    and ``3a + 2``; a rejected tail draw stays in the tail, so the tail keeps its mass.
    """
    x, j = np.zeros(len(keys)), np.zeros(len(keys), dtype=np.int64)
    todo, tail = np.arange(len(keys)), np.zeros(len(keys), dtype=bool)
    for attempt in range(ZIGGURAT_ATTEMPTS):
        words = _words(keys[todo] + _STEPS[3 * attempt:3 * attempt + 3], counters[todo])
        wait, deep = np.ones(len(todo), dtype=bool), tail[todo]
        fresh = np.flatnonzero(~deep)
        lanes = todo[fresh]
        j[lanes], x[lanes], inside = _candidates(words[0, fresh])
        deep[fresh] = tail[lanes] = j[lanes] % 256 == 0
        wait[fresh] = ~inside
        u = _unit(words[1:])
        wedge = np.flatnonzero(wait & ~deep)
        if len(wedge):
            i = j[todo[wedge]] % 256
            y = _HEIGHT[i] + u[0, wedge] * (_HEIGHT[i + 1] - _HEIGHT[i])
            wait[wedge] = y >= [math.exp(-0.5 * v * v) for v in x[todo[wedge]].tolist()]
        deep = np.flatnonzero(wait & deep)
        if len(deep):
            t = np.array([-math.log1p(-v) / _TAIL for v in u[0, deep].tolist()])
            kept = np.array([-2.0 * math.log1p(-v) for v in u[1, deep].tolist()]) > t * t
            lanes = todo[deep[kept]]
            x[lanes] = np.where(j[lanes] < 256, _TAIL + t[kept], -(_TAIL + t[kept]))
            wait[deep] = ~kept
        todo = todo[wait]
        if not len(todo):
            return x
    raise ContractViolationError(f"a normal draw took more than {ZIGGURAT_ATTEMPTS} attempts")


class Stream:
    """Counter-based draws: value i of key k is the SplitMix64 finalizer of ``k + (i + 1)
    GAMMA``, made a standard normal by a 256-layer ziggurat or a uniform by its top 53 bits.

    ``keys`` is one key or a 1-d array of keys.  A draw of ``shape`` reads the next
    ``prod(shape)`` counters of every key in C order and returns ``keys.shape + shape``
    values, so draws in chunks give the values of one draw.  Every operation is on integers,
    exact conversions or IEEE ``*``, ``+``, ``<`` (the 1.5 % of normals that leave their box
    also call ``math.exp`` or ``math.log1p``), so no numpy SIMD loop sets a bit.
    """

    __slots__ = ("keys", "position")

    def __init__(self, keys):
        self.keys, self.position = np.asarray(keys, dtype=np.uint64), 0

    def _next(self, shape):
        """The next ``prod(shape)`` counters, and the shape of the draw."""
        shape = tuple(shape) if np.iterable(shape) else (int(shape),)
        start, self.position = self.position, self.position + math.prod(shape)
        return np.arange(start, self.position, dtype=np.uint64), self.keys.shape + shape

    def standard_normal(self, shape) -> np.ndarray:
        counters, shape = self._next(shape)
        return _normals(self.keys, counters).reshape(shape)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        counters, shape = self._next(size)
        return low + (high - low) * _unit(_words(self.keys.reshape(-1, 1), counters)).reshape(shape)


def seeded_stream(seeds, code: int) -> Stream:
    """The stream with one key per seed: value ``code`` of the key ``seed mod 2**64``."""
    seeds = np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)
    return Stream(_words(seeds, np.array([code], dtype=np.uint64)))


def from_planes(re, im) -> np.ndarray:
    """The complex array ``re + i im``, assembled from its planes with no complex arithmetic."""
    z = np.empty(np.shape(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def gaussian_stacks(bundle: BundleSpec, stream: Stream, count: int) -> list[np.ndarray]:
    """``count`` standard complex Gaussian sections per key of ``stream``, key by key, one
    ``(S, n, n)`` stack per block.

    A lane is its key's next ``2 * total`` normals, real then imaginary parts, each times
    ``sqrt(1/2)``; chunks concatenate.
    """
    dims = [n for shape in bundle.fiber_shapes for n in shape]
    total = sum(n * n for n in dims)
    draw = stream.standard_normal((count, 2, total)).reshape(-1, 2, total) * math.sqrt(0.5)
    return split_blocks(from_planes(draw[:, 0], draw[:, 1]), dims)


def seeded_stacks(bundle: BundleSpec, seeds, kind: str = "general") -> list[np.ndarray]:
    """The Gaussian draws of ``random_section(bundle, seed, kind)`` for every seed, lane s that
    of ``seeds[s]``, one ``(S, n, n)`` stack per block: one ``gaussian_stacks`` lane per key of
    ``seeded_stream(seeds, kind code)``, all drawn at once.  A ``general`` section is its draw."""
    if kind not in _KIND_CODE:
        raise UsageError(f"unknown section kind {kind!r}; choose from {SECTION_KINDS}")
    return gaussian_stacks(bundle, seeded_stream(seeds, _KIND_CODE[kind]), 1)


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
