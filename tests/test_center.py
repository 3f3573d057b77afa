import numpy as np
import pytest

from tracebundle import (
    CenterElement,
    ContractViolationError,
    MeasureSpace,
    ShapeMismatchError,
    UsageError,
    center_sup,
)


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


def test_abs_of_minus_one(space):
    minus_one = -CenterElement(space, np.ones(3))
    assert np.array_equal(abs(minus_one).values, np.ones(3))


def test_mul_by_zero(space):
    f = CenterElement(space, [1.0, -2.0, 3.0])
    assert np.array_equal((f * CenterElement(space, np.zeros(3))).values, np.zeros(3))


def test_power_roundtrip_is_abs(space):
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = CenterElement(space, rng.standard_normal(3))
        roundtrip = (f**2) ** 0.5
        assert np.abs(roundtrip.values - abs(f).values).max() < 1e-12


def test_mismatched_spaces_rejected(space):
    other = MeasureSpace(["x", "y", "z"], [1.0, 1.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        CenterElement(space, [1, 2, 3]) + CenterElement(other, [1, 2, 3])


def test_center_element_needs_one_finite_value_per_atom(space):
    with pytest.raises(ShapeMismatchError, match=r"expected 3 values, got shape \(2,\)"):
        CenterElement(space, [1.0, 2.0])
    with pytest.raises(ContractViolationError, match="center element has non-finite entries"):
        CenterElement(space, [1.0, np.inf, 2.0])


def test_leq_partial_order(space):
    rng = np.random.default_rng(1)
    fs = [CenterElement(space, rng.standard_normal(3)) for _ in range(8)]
    for f in fs:
        assert f.leq(f)  # reflexive
    for f in fs:
        for g in fs:
            if f.leq(g, tol=0.0) and g.leq(f, tol=0.0):
                assert np.abs(f.values - g.values).max() <= 1e-12  # antisymmetric
            for h in fs:
                if f.leq(g, tol=0.0) and g.leq(h, tol=0.0):
                    assert f.leq(h)  # transitive within tolerance


def test_leq_tolerance(space):
    f = CenterElement(space, [1.0, 1.0, 1.0])
    assert f.leq(CenterElement(space, [1.0 - 1e-13, 1.0, 1.0]))
    assert not f.leq(CenterElement(space, [1.0 - 1e-6, 1.0, 1.0]))


def test_sup_singleton(space):
    f = CenterElement(space, [1.0, 2.0, 3.0])
    assert np.array_equal(center_sup([f]).values, f.values)


def test_sup_with_negation_is_abs(space):
    f = CenterElement(space, [1.5, -2.0, 0.25])
    assert np.array_equal(center_sup([f, -f]).values, abs(f).values)


def test_sup_dominates_inputs(space):
    rng = np.random.default_rng(2)
    fs = [CenterElement(space, rng.standard_normal(3)) for _ in range(10)]
    sup = center_sup(fs)
    for f in fs:
        assert f.leq(sup, tol=0.0)
    # idempotent and order-insensitive
    assert np.array_equal(center_sup([sup, sup]).values, sup.values)
    assert np.array_equal(center_sup(list(reversed(fs))).values, sup.values)


def test_sup_of_empty_family(space):
    with pytest.raises(UsageError):
        center_sup([])


def test_sup_rejects_complex(space):
    f = CenterElement(space, np.array([1 + 1j, 0, 0]))
    with pytest.raises(ContractViolationError):
        center_sup([f])


def test_a_complex_element_with_a_negligible_imaginary_part_reads_as_real(space):
    # a center-valued trace is complex; within REAL_PART_TOL of the reals it orders as its real part
    f = CenterElement(space, np.array([1 + 1e-12j, -2, 0]))
    assert np.array_equal(center_sup([f]).values, [1.0, -2.0, 0.0])
    assert f.leq(CenterElement(space, [1.0, -2.0, 0.0]), tol=0.0)

