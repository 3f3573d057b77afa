import hashlib

import numpy as np
import pytest

from tracebundle import (
    BundleSpec,
    CenterElement,
    ContractViolationError,
    MeasureSpace,
    Section,
    ShapeMismatchError,
    UsageError,
    center_scale,
    herm_eig,
    identity_section,
    lp_norm,
    random_section,
    section_from_records,
    section_to_records,
    uniform_norm,
    validate_subalgebra,
)
from tracebundle import bundle, fiber
from tracebundle.bundle import gaussian_stacks
from tracebundle.towers import level_generators

from oracles import random_element, zero_section


def test_bundle_validation():
    space = MeasureSpace(["a"], [1.0])
    with pytest.raises(ContractViolationError):
        BundleSpec(space, [[2]], [[0.0]])
    with pytest.raises(UsageError):
        BundleSpec(space, [[0]], [[1.0]])
    with pytest.raises(ShapeMismatchError):
        BundleSpec(space, [[2, 2]], [[1.0]])
    with pytest.raises(ShapeMismatchError):
        BundleSpec(space, [[2], [2]], [[1.0], [1.0]])


def test_section_needs_one_fiber_of_the_atom_shape_per_atom(hetero_bundle):
    fibers = identity_section(hetero_bundle).fibers
    with pytest.raises(ShapeMismatchError, match="need one fiber element per atom"):
        Section(hetero_bundle, fibers[:-1])
    with pytest.raises(ShapeMismatchError,
                       match=r"fiber at 'w1' has dims \(3,\), bundle expects \(2,\)"):
        Section(hetero_bundle, fibers[1:2] + fibers[1:])


def test_identity_is_two_sided_unit(hetero_bundle):
    one = identity_section(hetero_bundle)
    x = random_section(hetero_bundle, 1, "general")
    left = one * x
    right = x * one
    for f, g, h in zip(x.fibers, left.fibers, right.fibers):
        for a, b, c in zip(f.blocks, g.blocks, h.blocks):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)


def test_adjoint_reverses_products(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 1000 + seed, "general")
        lhs = (x * y).adjoint()
        rhs = y.adjoint() * x.adjoint()
        assert (lhs - rhs).max_abs() < 1e-10


def test_double_adjoint_exact(hetero_bundle):
    x = random_section(hetero_bundle, 3, "general")
    back = x.adjoint().adjoint()
    for f, g in zip(x.fibers, back.fibers):
        for a, b in zip(f.blocks, g.blocks):
            assert np.array_equal(a, b)


def test_associativity(hetero_bundle):
    x = random_section(hetero_bundle, 5, "general")
    y = random_section(hetero_bundle, 6, "general")
    z = random_section(hetero_bundle, 7, "general")
    assert ((x * y) * z - x * (y * z)).max_abs() < 1e-9


def test_addition_is_fiberwise_exact(hetero_bundle):
    x = random_section(hetero_bundle, 8, "general")
    y = random_section(hetero_bundle, 9, "general")
    s = x + y
    for label in hetero_bundle.space.labels:
        direct = x.fiber(label) + y.fiber(label)
        for a, b in zip(s.fiber(label).blocks, direct.blocks):
            assert np.array_equal(a, b)


def test_fiber_eval_is_homomorphism(hetero_bundle):
    # evaluation commutes with every operation bit for bit
    x = random_section(hetero_bundle, 10, "general")
    y = random_section(hetero_bundle, 11, "general")
    one = identity_section(hetero_bundle)
    prod = x * y
    for label, shape in zip(hetero_bundle.space.labels, hetero_bundle.fiber_shapes):
        direct = x.fiber(label) * y.fiber(label)
        for a, b in zip(prod.fiber(label).blocks, direct.blocks):
            assert np.array_equal(a, b)
        for k, n in enumerate(shape):
            assert np.array_equal(one.fiber(label).blocks[k], np.eye(n))


def test_fiber_eval_unknown_atom(hetero_bundle):
    x = identity_section(hetero_bundle)
    with pytest.raises(UsageError):
        x.fiber("nope")


def test_center_scale_identity_and_zero(hetero_bundle):
    space = hetero_bundle.space
    x = random_section(hetero_bundle, 12, "general")
    same = center_scale(CenterElement(space, np.ones(space.size)), x)
    for f, g in zip(x.fibers, same.fibers):
        for a, b in zip(f.blocks, g.blocks):
            assert np.array_equal(a, b)
    zero = center_scale(CenterElement(space, np.zeros(space.size)), x)
    assert zero.max_abs() == 0.0


def test_center_scale_commutes_with_evaluation(hetero_bundle):
    space = hetero_bundle.space
    rng = np.random.default_rng(0)
    z = CenterElement(space, rng.standard_normal(space.size))
    x = random_section(hetero_bundle, 13, "general")
    zx = center_scale(z, x)
    for i, label in enumerate(space.labels):
        direct = complex(z.values[i]) * x.fiber(label)
        for a, b in zip(zx.fiber(label).blocks, direct.blocks):
            assert np.array_equal(a, b)


def test_center_scale_space_mismatch(hetero_bundle, mat2_bundle):
    z = CenterElement(mat2_bundle.space, [1.0])
    with pytest.raises(ShapeMismatchError):
        center_scale(z, identity_section(hetero_bundle))


def test_uniform_norm_of_identity_and_unitary(hetero_bundle):
    assert abs(uniform_norm(identity_section(hetero_bundle)) - 1.0) < 1e-12
    u = random_section(hetero_bundle, 14, "unitary")
    assert abs(uniform_norm(u) - 1.0) < 1e-10


def test_uniform_norm_zero_iff_zero(hetero_bundle):
    assert uniform_norm(zero_section(hetero_bundle)) == 0.0
    x = random_section(hetero_bundle, 15, "general")
    assert uniform_norm(x) > 1e-12


def test_uniform_norm_matches_lapack_oracle(hetero_bundle):
    for seed in range(10):
        x = random_section(hetero_bundle, seed, "general")
        oracle = max(
            np.linalg.norm(b, 2) for f in x.fibers for b in f.blocks
        )
        assert abs(uniform_norm(x) - oracle) < 1e-10


def test_uniform_norm_submultiplicative(hetero_bundle):
    for seed in range(25):
        x = random_section(hetero_bundle, seed, "general")
        y = random_section(hetero_bundle, 500 + seed, "general")
        assert uniform_norm(x * y) <= uniform_norm(x) * uniform_norm(y) + 1e-9


def test_random_section_determinism(hetero_bundle):
    a = random_section(hetero_bundle, 99, "general")
    b = random_section(hetero_bundle, 99, "general")
    for f, g in zip(a.fibers, b.fibers):
        for p, q in zip(f.blocks, g.blocks):
            assert np.array_equal(p, q)
    c = random_section(hetero_bundle, 100, "general")
    assert (a - c).max_abs() > 1e-3


def section_digest(x):
    h = hashlib.sha256()
    for f in x.fibers:
        for b in f.blocks:
            h.update(np.ascontiguousarray(b, dtype=np.complex128).tobytes())
    return h.hexdigest()


def test_seeded_draws_keep_their_bits(hetero_bundle):
    # digests recorded before the checkers moved to one generator per check:
    # random_section and random_element keep one generator per seed; "unitary" was
    # re-recorded when polar moved to the one-sided kernel (entries moved by <= 5.5e-16);
    # "projection" when a Hermitian Jacobi step took its rows by Hermitian symmetry
    want = {
        "general": "179de952a40b58c7ea66508d5abf17cbd8e6a2b7a1d2bc29c2bc703b4f1d1f57",
        "hermitian": "9e3ae42d8205e07824535131e05c5086324447ea994ab8e0ed199a8ab89288fe",
        "positive": "a6ee524dcc32db42daff05075e9c0914f17d9a57506b85104c078f7cfc8b0e7f",
        "unitary": "81410e5732d837e408b169df3bffa4f2c7eb86c0c806d30204643681e2a54abd",
        "projection": "0ee10233e90297de796d4def3451e190135e2b0d5bea68b96d48e0871289f34e",
    }
    for kind, digest in want.items():
        assert section_digest(random_section(hetero_bundle, 2718, kind)) == digest, kind
    basis = validate_subalgebra(hetero_bundle, level_generators(hetero_bundle, "diagonal"))
    assert section_digest(random_element(basis, 2718)) == (
        "480594918648919068e6faab2ac934947cee744a0bc0c644e3848c5b68141ec2")


def test_gaussian_stacks_are_standard_complex_gaussian(hetero_bundle):
    # per entry over n lanes, real and imaginary parts apart: the mean, E|z|^2 - 1
    # and E z^2 each within 5 standard errors of 0 (sqrt(1/(2n)) for the mean,
    # 1/sqrt(n) for the others: |z|^2 is Exp(1), Re z^2 and Im z^2 have variance 1)
    n = 20000
    stacks = gaussian_stacks(hetero_bundle, np.random.default_rng(8), n)
    z = np.concatenate([s.reshape(n, -1) for s in stacks], axis=1)
    assert z.shape == (n, 4 + 9 + 8 + 1)
    mean, second, square = z.mean(axis=0), (np.abs(z) ** 2).mean(axis=0), (z * z).mean(axis=0)
    assert np.abs([mean.real, mean.imag]).max() <= 5 * np.sqrt(0.5 / n)
    assert np.abs(second - 1.0).max() <= 5 / np.sqrt(n)
    assert np.abs([square.real, square.imag]).max() <= 5 / np.sqrt(n)


def test_random_kinds_differ_per_seed_kind(hetero_bundle):
    a = random_section(hetero_bundle, 99, "general")
    b = random_section(hetero_bundle, 99, "hermitian")
    assert (a - b).max_abs() > 1e-6


def test_random_positive_sections(hetero_bundle):
    for seed in range(10):
        pos = random_section(hetero_bundle, seed, "positive")
        for f in pos.fibers:
            eig = herm_eig(f)
            assert min(w.min() for w in eig.eigenvalues) >= -1e-10


def test_random_hermitian_sections(hetero_bundle):
    h = random_section(hetero_bundle, 21, "hermitian")
    assert (h - h.adjoint()).max_abs() < 1e-14


def test_random_unitary_sections(hetero_bundle):
    u = random_section(hetero_bundle, 22, "unitary")
    one = identity_section(hetero_bundle)
    assert (u.adjoint() * u - one).max_abs() < 1e-10


def test_random_projection_sections(hetero_bundle):
    for seed in range(10):
        proj = random_section(hetero_bundle, seed, "projection")
        assert (proj * proj - proj).max_abs() < 1e-10
        assert (proj - proj.adjoint()).max_abs() < 1e-10


def test_random_projection_solves_once_per_fiber(hetero_bundle, monkeypatch):
    # the median cut and the projection come from the same spectral data
    solved = []
    real = fiber.herm_eig
    counting = lambda a: solved.append(a.dims) or real(a)
    monkeypatch.setattr(fiber, "herm_eig", counting)
    monkeypatch.setattr(bundle, "herm_eig", counting)
    random_section(hetero_bundle, 3, "projection")
    assert solved == list(hetero_bundle.fiber_shapes)


def test_random_unknown_kind(hetero_bundle):
    with pytest.raises(UsageError):
        random_section(hetero_bundle, 1, "bogus")


def test_homogeneity_of_lp_norm_under_center_scale(hetero_bundle):
    rng = np.random.default_rng(4)
    space = hetero_bundle.space
    for p in (1.0, 2.0, 3.0):
        z = CenterElement(space, rng.standard_normal(space.size))
        x = random_section(hetero_bundle, 30, "general")
        lhs = lp_norm(center_scale(z, x), p).values
        rhs = abs(z).values * lp_norm(x, p).values
        assert np.abs(lhs - rhs).max() < 1e-10


def test_record_roundtrip(hetero_bundle):
    x = random_section(hetero_bundle, 44, "general")
    rows = section_to_records(x)
    expected = sum(n * n for shape in hetero_bundle.fiber_shapes for n in shape)
    assert len(rows) == expected
    back = section_from_records(hetero_bundle, rows)
    for f, g in zip(x.fibers, back.fibers):
        for a, b in zip(f.blocks, g.blocks):
            assert np.array_equal(a, b)


def test_record_validation(hetero_bundle):
    with pytest.raises(UsageError):
        section_from_records(hetero_bundle, [("nope", 0, 0, 0, 1.0, 0.0)])
    # a negative index too: Python would wrap it onto a real entry and overwrite it
    for k, i, j in ((0, 5, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ShapeMismatchError, match="outside the fiber shape"):
            section_from_records(hetero_bundle, [("w1", k, i, j, 1.0, 0.0)])


def test_record_truncation_rejected(hetero_bundle):
    rows = section_to_records(random_section(hetero_bundle, 45, "general"))
    assert rows[-2][:4] == ("w3", 1, 1, 1)
    with pytest.raises(UsageError, match=r"missing record for entry \(w3, 1, 1, 1\)"):
        section_from_records(hetero_bundle, rows[:-2])
    with pytest.raises(UsageError, match="missing record"):
        section_from_records(hetero_bundle, [])


def test_record_duplication_rejected(hetero_bundle):
    rows = section_to_records(random_section(hetero_bundle, 46, "general"))
    assert rows[3][:4] == ("w1", 0, 1, 1)
    with pytest.raises(UsageError, match=r"duplicate record for entry \(w1, 0, 1, 1\)"):
        section_from_records(hetero_bundle, rows + [rows[3]])
    # a duplicate that stands in for a missing entry keeps the row count right
    with pytest.raises(UsageError, match="duplicate record"):
        section_from_records(hetero_bundle, rows[:-1] + [rows[3]])


def test_restrict_preserves_fiber_data(hetero_bundle):
    x = random_section(hetero_bundle, 50, "general")
    sub = x.restrict(["w3", "w1"])
    assert sub.bundle.space.labels == ("w3", "w1")
    for label in ("w3", "w1"):
        for a, b in zip(sub.fiber(label).blocks, x.fiber(label).blocks):
            assert np.array_equal(a, b)
