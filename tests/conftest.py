import numpy as np
import pytest

from tracebundle import BundleSpec, MeasureSpace


@pytest.fixture(scope="session")
def mat2_bundle():
    """Single atom, one 2x2 block, normalized fiber trace."""
    return BundleSpec(MeasureSpace(["w"], [1.0]), [[2]], [[0.5]])


@pytest.fixture(scope="session")
def hetero_bundle():
    """Four atoms with fibers Mat(2), Mat(3), Mat(2)+Mat(2), Mat(1)."""
    space = MeasureSpace(["w1", "w2", "w3", "w4"], [0.5, 1.0, 0.25, 2.0])
    return BundleSpec(
        space,
        [[2], [3], [2, 2], [1]],
        [[0.5], [1.0], [1.0, 2.0], [3.0]],
    )


@pytest.fixture(scope="session")
def large_blocks_bundle():
    """Three atoms with fibers Mat(4), Mat(3)+Mat(2), Mat(5), as in bench axioms-large-blocks."""
    space = MeasureSpace(["a4", "a32", "a5"], [1.0, 0.5, 2.0])
    return BundleSpec(space, [[4], [3, 2], [5]], [[1.0], [0.5, 2.0], [0.25]])


def mat2_atoms(count):
    """``count`` atoms with fiber Mat(2), trace weights 1 to ``count``."""
    space = MeasureSpace([f"v{k}" for k in range(count)], [1.0] * count)
    return BundleSpec(space, [[2]] * count, [[1.0 + k] for k in range(count)])


@pytest.fixture(scope="session")
def mat2x8_bundle():
    return mat2_atoms(8)


@pytest.fixture(scope="session")
def mat2x64_bundle():
    return mat2_atoms(64)


@pytest.fixture
def rng_log(monkeypatch):
    """Every generator made through ``np.random.default_rng``, each with the count of values drawn."""
    made, real = [], np.random.default_rng

    class Logged:
        def __init__(self, seed):
            self.rng, self.drawn = real(seed), 0
            made.append(self)

        def standard_normal(self, size):
            out = self.rng.standard_normal(size)
            self.drawn += out.size
            return out

        def uniform(self, low, high, size):
            out = self.rng.uniform(low, high, size)
            self.drawn += out.size
            return out

    monkeypatch.setattr(np.random, "default_rng", Logged)
    return made
