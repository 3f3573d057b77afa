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
