import pytest

from tracebundle import MeasureSpace, ShapeMismatchError, UsageError


@pytest.fixture
def space():
    return MeasureSpace(["a", "b", "c"], [1.0, 0.5, 2.0])


def test_measure_space_validation():
    with pytest.raises(UsageError):
        MeasureSpace([], [])
    with pytest.raises(UsageError):
        MeasureSpace(["a"], [0.0])
    with pytest.raises(UsageError):
        MeasureSpace(["a", "a"], [1.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        MeasureSpace(["a", "b"], [1.0])


def test_unknown_atom(space):
    with pytest.raises(UsageError):
        space.index_of("zzz")

