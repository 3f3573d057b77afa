import pytest

from tracebundle import BundleSpec, MeasureSpace
from tracebundle.bundle import Stream


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
def stream_log(monkeypatch):
    """Every ``bundle.Stream`` made; a stream's ``position`` counts the values drawn per key."""
    made, real = [], Stream.__init__

    def logged(self, keys):
        real(self, keys)
        made.append(self)

    monkeypatch.setattr(Stream, "__init__", logged)
    return made


def values_drawn(streams) -> list:
    """The count of values drawn from each key of ``streams``, in order of first use; a key that
    several streams draw from counts its furthest position."""
    drawn = {}
    for stream in streams:
        for key in stream.keys.reshape(-1).tolist():
            drawn[key] = max(drawn.get(key, 0), stream.position)
    return list(drawn.values())
