import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tracebundle import (
    BundleSpec,
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
from tracebundle import bundle, views
from tracebundle.bundle import Stream, gaussian_stacks
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
    same = center_scale(np.ones(space.size), x)
    for f, g in zip(x.fibers, same.fibers):
        for a, b in zip(f.blocks, g.blocks):
            assert np.array_equal(a, b)
    zero = center_scale(np.zeros(space.size), x)
    assert zero.max_abs() == 0.0
    turned = center_scale(np.full(space.size, 1j), x)  # a complex center value
    for f, g in zip((1j * x).fibers, turned.fibers):
        for a, b in zip(f.blocks, g.blocks):
            assert np.array_equal(a, b)


def test_center_scale_commutes_with_evaluation(hetero_bundle):
    space = hetero_bundle.space
    rng = np.random.default_rng(0)
    z = rng.standard_normal(space.size)
    x = random_section(hetero_bundle, 13, "general")
    zx = center_scale(z, x)
    for i, label in enumerate(space.labels):
        direct = complex(z[i]) * x.fiber(label)
        for a, b in zip(zx.fiber(label).blocks, direct.blocks):
            assert np.array_equal(a, b)


def test_center_scale_space_mismatch(hetero_bundle, mat2_bundle):
    z = [1.0]
    with pytest.raises(ShapeMismatchError):
        center_scale(z, identity_section(hetero_bundle))
    for bad in (np.inf, np.nan, complex(1.0, np.nan)):
        with pytest.raises(ContractViolationError, match="non-finite"):
            center_scale([1.0, bad, 1.0, 1.0], identity_section(hetero_bundle))


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
    # "projection" when a Hermitian Jacobi step took its rows by Hermitian symmetry; all of
    # them when the draws moved to the counter-based Stream (one key per seed and kind)
    want = {
        "general": "6b2cc00d486a867e81f4321ea34c55e0aab20d290a840a8d83fd09347bd48ae5",
        "hermitian": "cae2533061939528bd88beb690832cb72fcf56f4dfb34bb2b69be1857f593d7d",
        "positive": "6ff693825c9a52b9f96c7ba207236db02e4f753f5723d6a4c8c6e74690f82632",
        "unitary": "6886c599be70c465367b3e54840c9327050dd3d2ea65cd6977774d792cb58cdf",
        "projection": "e41f8e51c056dea3c940df7f1e533111101313c70ce6fd8c2ed1800ca5ca6f1c",
    }
    for kind, digest in want.items():
        assert section_digest(random_section(hetero_bundle, 2718, kind)) == digest, kind
    basis = validate_subalgebra(hetero_bundle, level_generators(hetero_bundle, "diagonal"))
    assert section_digest(random_element(basis, 2718)) == (
        "e50fc69e2055a953557f5dd35c9b6c868145f6ba686f43fbee4bda53e52c7e23")


def test_gaussian_stacks_are_standard_complex_gaussian(hetero_bundle):
    # per entry over n lanes, real and imaginary parts apart: the mean, E|z|^2 - 1
    # and E z^2 each within 5 standard errors of 0 (sqrt(1/(2n)) for the mean,
    # 1/sqrt(n) for the others: |z|^2 is Exp(1), Re z^2 and Im z^2 have variance 1)
    n = 20000
    stacks = gaussian_stacks(hetero_bundle, Stream(8), n)
    z = np.concatenate([s.reshape(n, -1) for s in stacks], axis=1)
    assert z.shape == (n, 4 + 9 + 8 + 1)
    mean, second, square = z.mean(axis=0), (np.abs(z) ** 2).mean(axis=0), (z * z).mean(axis=0)
    assert np.abs([mean.real, mean.imag]).max() <= 5 * np.sqrt(0.5 / n)
    assert np.abs(second - 1.0).max() <= 5 / np.sqrt(n)
    assert np.abs([square.real, square.imag]).max() <= 5 / np.sqrt(n)


def test_normals_follow_the_normal_law():
    # Kolmogorov-Smirnov against Phi on 10**6 values of one key: sqrt(n) D below 1.95, its
    # 0.001 quantile; and the mass beyond the ziggurat's tail edge R, erfc(R / sqrt 2) =
    # 2.58e-4, within 5 standard deviations.  The 10**6 values reach every branch of _retry
    n = 10**6
    x = np.sort(Stream(2024).standard_normal(n))
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    d = max((np.arange(1, n + 1) / n - phi).max(), (phi - np.arange(n) / n).max())
    assert math.sqrt(n) * d < 1.95
    tail = n * math.erfc(bundle._TAIL / math.sqrt(2.0))
    assert abs(np.count_nonzero(np.abs(x) > bundle._TAIL) - tail) <= 5 * math.sqrt(tail)


def test_uniforms_follow_the_uniform_law():
    n = 10**5
    u = np.sort(Stream(2025).uniform(0.1, 2.0, n))
    assert 0.1 <= u[0] and u[-1] < 2.0
    cdf = (u - 0.1) / 1.9
    d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert math.sqrt(n) * d < 1.95


def test_a_stream_is_keyed_by_value_and_its_chunks_concatenate():
    one = Stream(99).standard_normal((6, 50))
    assert np.array_equal(Stream(99).standard_normal((6, 50)), one)
    chunked = Stream(99)
    parts = [chunked.standard_normal(n) for n in (1, 99, 200)]
    assert np.array_equal(np.concatenate(parts), one.reshape(-1)) and chunked.position == 300
    # keys drawn together give each the values of its own stream
    keys = [99, 5, 2**64 - 1]
    together = Stream(keys).standard_normal((6, 50))
    assert together.shape == (3, 6, 50)
    for key, values in zip(keys, together):
        assert np.array_equal(values, Stream(key).standard_normal((6, 50)))
    assert not np.array_equal(together[0], together[1])
    # a uniform reads the next counters as well
    chunked.uniform(0.0, 1.0, 4)
    assert chunked.position == 304


def test_a_value_that_needs_too_many_attempts_is_refused(monkeypatch):
    # one attempt per value: the first wedge point that is rejected has no second
    monkeypatch.setattr(bundle, "ZIGGURAT_ATTEMPTS", 1)
    with pytest.raises(ContractViolationError, match="more than 1 attempts"):
        Stream(7).standard_normal(10**5)


# the draws of every kind of stream call, with the values that leave their box, as sha256
STREAM_DIGEST = """import hashlib
from tracebundle.bundle import Stream
s = Stream([3, 2**63 + 5])
draws = [s.standard_normal((2, 3 * 10**4)), s.uniform(0.1, 2.0, 1000),
         Stream(11).standard_normal(77)]
print(hashlib.sha256(b"".join(d.tobytes() for d in draws)).hexdigest())
"""


def test_draws_do_not_depend_on_the_simd_loops():
    # one subprocess each with numpy's own loops, those without AVX-512 and those without AVX2
    from numpy._core._multiarray_umath import __cpu_features__

    targets = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
    present = [t for t in targets if __cpu_features__.get(t)]
    if not present:
        pytest.skip("numpy takes none of these loops on this CPU")
    src = os.path.dirname(os.path.dirname(os.path.abspath(bundle.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for disabled in ([], [t for t in present if t != "X86_V3"], present):
        env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        done = subprocess.run([sys.executable, "-c", STREAM_DIGEST], capture_output=True,
                              text=True, env=env)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split()[-1])
    assert len(set(digests)) == 1, digests


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
    real = views.herm_eig
    counting = lambda a: solved.append(a.dims) or real(a)
    monkeypatch.setattr(views, "herm_eig", counting)
    random_section(hetero_bundle, 3, "projection")
    assert solved == list(hetero_bundle.fiber_shapes)


def test_random_unknown_kind(hetero_bundle):
    with pytest.raises(UsageError):
        random_section(hetero_bundle, 1, "bogus")


def test_homogeneity_of_lp_norm_under_center_scale(hetero_bundle):
    rng = np.random.default_rng(4)
    space = hetero_bundle.space
    for p in (1.0, 2.0, 3.0):
        z = rng.standard_normal(space.size)
        x = random_section(hetero_bundle, 30, "general")
        lhs = lp_norm(center_scale(z, x), p)
        rhs = abs(z) * lp_norm(x, p)
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
