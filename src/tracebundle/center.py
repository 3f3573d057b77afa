"""The finite atomic measure space and the center as scalar functions on it.

The center of a bundle algebra is identified with functions from the atoms to
scalars; arithmetic and order are pointwise.  Order convergence of a sequence
degenerates, on a finite atomic space, to pointwise convergence, which is what
``o_converges`` measures.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, ShapeMismatchError, UsageError

LEQ_TOL = 1e-12       # absolute slack in pointwise order comparisons
REAL_PART_TOL = 1e-9  # max imaginary part accepted where a real value is required


class MeasureSpace:
    """Finite atomic measure space: ordered atom labels with positive weights."""

    __slots__ = ("labels", "weights", "_index")

    def __init__(self, labels, weights):
        self.labels = tuple(str(l) for l in labels)
        self.weights = np.array(weights, dtype=np.float64)
        if len(self.labels) < 1:
            raise UsageError("a measure space needs at least one atom")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("atom labels must be distinct")
        if self.weights.shape != (len(self.labels),):
            raise ShapeMismatchError("one weight per atom is required")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0.0):
            raise UsageError("atom weights must be finite and strictly positive")
        self._index = {label: i for i, label in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UsageError(f"unknown atom {label!r}; atoms are {self.labels}") from None

    def __eq__(self, other):
        return (
            isinstance(other, MeasureSpace)
            and self.labels == other.labels
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.labels, self.weights.tobytes()))

    def __repr__(self):
        return f"MeasureSpace(labels={self.labels}, weights={self.weights.tolist()})"


class CenterElement:
    """Scalar function on the atoms of a measure space (an element of the center)."""

    __slots__ = ("space", "values")

    def __init__(self, space: MeasureSpace, values):
        self.space = space
        v = np.asarray(values)
        if np.iscomplexobj(v):
            self.values = np.array(v, dtype=np.complex128)
        else:
            self.values = np.array(v, dtype=np.float64)
        if self.values.shape != (space.size,):
            raise ShapeMismatchError(
                f"expected {space.size} values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ContractViolationError("center element has non-finite entries")

    def _require_same_space(self, other: "CenterElement"):
        if self.space is not other.space and self.space != other.space:
            raise ShapeMismatchError("center elements live on different measure spaces")

    def _coerce(self, other):
        if isinstance(other, CenterElement):
            self._require_same_space(other)
            return other.values
        return np.asarray(other)

    def real_values(self) -> np.ndarray:
        """Values as floats; rejects genuinely complex elements."""
        if np.iscomplexobj(self.values):
            drift = float(np.abs(self.values.imag).max())
            if drift > REAL_PART_TOL:
                raise ContractViolationError(f"center element is not real: max imag {drift:.3e}")
            return self.values.real.copy()
        return self.values

    def __add__(self, other):
        return CenterElement(self.space, self.values + self._coerce(other))

    def __sub__(self, other):
        return CenterElement(self.space, self.values - self._coerce(other))

    def __mul__(self, other):
        return CenterElement(self.space, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return CenterElement(self.space, -self.values)

    def __abs__(self):
        return CenterElement(self.space, np.abs(self.values))

    def __pow__(self, exponent):
        return CenterElement(self.space, self.values ** exponent)

    def leq(self, other, tol: float = LEQ_TOL) -> bool:
        """Pointwise order: true iff self <= other + tol on every atom."""
        if isinstance(other, CenterElement):
            self._require_same_space(other)
            rhs = other.real_values()
        else:
            rhs = np.asarray(other, dtype=np.float64)
        return bool(np.all(self.real_values() <= rhs + tol))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def __repr__(self):
        return f"CenterElement({self.values.tolist()})"


def center_ones(space: MeasureSpace) -> CenterElement:
    return CenterElement(space, np.ones(space.size))


def center_zeros(space: MeasureSpace) -> CenterElement:
    return CenterElement(space, np.zeros(space.size))


def center_sup(elements) -> CenterElement:
    """Pointwise maximum of a non-empty finite family of real center elements."""
    elements = list(elements)
    if not elements:
        raise UsageError("center_sup of an empty family")
    space = elements[0].space
    acc = elements[0].real_values()
    for f in elements[1:]:
        f._require_same_space(elements[0])
        acc = np.maximum(acc, f.real_values())
    return CenterElement(space, acc)


def o_converges(sequence, target: CenterElement, tol: float):
    """Order convergence diagnostic on a finite atomic space.

    Returns ``(flag, residuals)`` where ``residuals[n]`` is the max over atoms
    of ``|f_n - target|`` and the flag is true iff the final residual is at
    most ``tol``.  On an atomic space with finitely many atoms this pointwise
    criterion coincides with order convergence of the sequence.
    """
    residuals = []
    for f in sequence:
        f._require_same_space(target)
        residuals.append(float(np.abs(f.values - target.values).max()))
    flag = bool(residuals) and residuals[-1] <= tol
    return flag, residuals
