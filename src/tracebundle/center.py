"""The finite atomic measure space.

The center of a bundle algebra is identified with functions from the atoms to
scalars, held as plain arrays with one value per atom in ``labels`` order;
arithmetic and order are numpy's, pointwise.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError, UsageError


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
