"""Center-valued trace, its scalarizations, Lp norms, and the norm duality.

The trace of a section is the center element ``w -> sum_j c_j(w) tr(x(w)_j)``
with the bundle's per-block weights ``c_j``.  Lp norms are the p-th roots of
the trace of ``|x|**p``: at p = 2 through the weighted Frobenius identity
``trace(x* x) = sum_j c_j ||x_j||_F**2``, at other exponents from the
per-block Gram spectrum (the squared singular values).  The duality
module constructs an explicit witness attaining ``sup |trace(x y)|`` over the
dual-norm unit ball and samples that ball for violations.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import Section, gaussian_stacks, identity_section
from .center import CenterElement
from .errors import UsageError
from .fiber import (
    abs_power,
    gram_eigenvalues,
    gram_eigenvalues_stack,
    polar,
    zero_fiber,
)

ZERO_FIBER_TOL = 1e-12  # fibers with smaller Lp norm get a zero duality witness
DUALITY_CHUNK = 512     # samples or trials stacked at once; bounds memory for any count


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit seed derived from a master seed and hashable tags.

    Used wherever one configured seed has to fan out into many independent
    streams (samples, trials) reproducibly across runs and platforms.
    """
    blob = repr((int(master),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


def center_trace(x: Section) -> CenterElement:
    """The center-valued trace: weighted block traces per atom."""
    blocks = [b[None] for f in x.fibers for b in f.blocks]
    return CenterElement(x.bundle.space, stacked_traces(blocks, x.bundle)[0])


def normalize_trace(x: Section) -> CenterElement:
    """Trace renormalized so the identity has value strictly below one.

    Pointwise ``trace(x) / (1 + trace(1))``; handy when a subunital trace is
    required.
    """
    phi_x = center_trace(x).values
    phi_one = center_trace(identity_section(x.bundle)).values.real
    return CenterElement(x.bundle.space, phi_x / (1.0 + phi_one))


def scalarize(nu, x: Section) -> complex:
    """Numerical trace obtained by integrating the center-valued trace.

    ``nu`` is a strictly positive weight per atom (a faithful functional on
    the center); the result is ``sum_w nu(w) * trace(x)(w)``.
    """
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (x.bundle.space.size,):
        raise UsageError("need one scalarization weight per atom")
    if np.any(nu <= 0.0) or not np.all(np.isfinite(nu)):
        raise UsageError("scalarization weights must be finite and strictly positive")
    return complex(np.sum(nu * center_trace(x).values))


def _exponent(p) -> float:
    if not 1.0 <= float(p) < math.inf:  # also refuses NaN
        raise UsageError(f"p must be a finite number >= 1, got {p}")
    return float(p)


def chunks(count: int) -> list[range]:
    """Consecutive index ranges of at most DUALITY_CHUNK covering ``range(count)``."""
    return [range(s, min(s + DUALITY_CHUNK, count)) for s in range(0, count, DUALITY_CHUNK)]


def solve_by_block_size(stacks, solve) -> list:
    """``solve`` equal-length ``(S, n, n)`` stacks with one call per block size ``n``."""
    out = [None] * len(stacks)
    for n in sorted({s.shape[1] for s in stacks}):
        members = [k for k, s in enumerate(stacks) if s.shape[1] == n]
        rows = solve(np.concatenate([stacks[k] for k in members]))
        for k, part in zip(members, np.split(rows, len(members))):
            out[k] = part
    return out


def stacked_traces(ys, bundle) -> np.ndarray:
    """``(S, atoms)`` center-valued traces of S sections, one ``(S, n, n)`` stack per block."""
    out = np.zeros((len(ys[0]), bundle.space.size), dtype=np.complex128)
    for (i, c), y in zip(bundle.block_slots(), ys):
        out[:, i] += c * np.trace(y, axis1=1, axis2=2)
    return out


def stacked_lp_norms(ys, bundle, exponents) -> list[np.ndarray]:
    """Per exponent, the ``(S, atoms)`` Lp norms of S sections held as in ``stacked_traces``.

    p = 2 is the weighted Frobenius identity, p = inf the uniform norm, and other
    exponents sum ``w**(p/2)`` over Gram spectra ``w`` solved once, one stacked solve per block size.
    """
    spectra, out = [], []
    for p in exponents:
        norm = np.zeros((len(ys[0]), bundle.space.size))
        if p != 2.0:
            spectra = spectra or solve_by_block_size(ys, gram_eigenvalues_stack)
        for k, (i, c) in enumerate(bundle.block_slots()):
            if p == 2.0:
                norm[:, i] += c * np.sum(ys[k].real**2 + ys[k].imag**2, axis=(1, 2))
            elif p == math.inf:
                norm[:, i] = np.maximum(norm[:, i], spectra[k].max(axis=1))
            else:
                norm[:, i] += c * np.sum(spectra[k] ** (p / 2.0), axis=1)
        out.append(np.sqrt(norm) if p in (2.0, math.inf) else norm ** (1.0 / p))
    return out


def lp_norm(x: Section, p: float) -> CenterElement:
    """Center-valued Lp norm: ``(trace(|x|**p))**(1/p)`` per atom.

    For p = 2 the trace of ``x* x`` is the sum of its eigenvalues, i.e. the
    weighted Frobenius sum ``sum_j c_j ||x_j||_F**2``, so no eigensolve is
    needed.  Other exponents sum ``w**(p/2)`` over the Gram spectrum ``w``.
    p must be finite and at least 1, else UsageError.
    """
    p = _exponent(p)
    half_p = p / 2.0
    values = np.empty(x.bundle.space.size, dtype=np.float64)
    for i, (f, cs) in enumerate(zip(x.fibers, x.bundle.trace_weights)):
        total = 0.0
        if p == 2.0:
            for c, b in zip(cs, f.blocks):
                total += c * float(np.vdot(b, b).real)
        else:
            for c, w in zip(cs, gram_eigenvalues(f)):
                total += c * float(np.sum(w**half_p))
        values[i] = total ** (1.0 / p)
    return CenterElement(x.bundle.space, values)


def dual_extremal(x: Section, p: float) -> Section:
    """Witness attaining the dual characterization of the Lp norm.

    With the fiberwise polar decomposition ``x = u h``: for p = 1 the witness
    is ``u*`` (uniform-norm ball); for p > 1 it is
    ``norm_p**(-p/q) * h**(p-1) * u*`` with ``1/p + 1/q = 1``, which sits on
    the boundary of the Lq unit ball and turns the Hoelder inequality into an
    equality.  Fibers whose Lp norm is below ZERO_FIBER_TOL get a zero
    witness, keeping the feasibility contract without dividing by zero.
    """
    p = _exponent(p)
    norms = lp_norm(x, p).values
    fibers = []
    for f, norm_p, shape in zip(x.fibers, norms, x.bundle.fiber_shapes):
        if norm_p < ZERO_FIBER_TOL:
            fibers.append(zero_fiber(shape))
            continue
        u, h = polar(f)
        if p == 1.0:
            fibers.append(u.adjoint())
        else:
            q = p / (p - 1.0)
            scale = float(norm_p) ** (-p / q)
            fibers.append(scale * (abs_power(h, p - 1.0) * u.adjoint()))
    return Section._raw(x.bundle, fibers)


@dataclass
class DualityReport:
    """Outcome of a sampled duality check for one section and one exponent."""

    p: float
    samples: int
    seed: int
    max_violation: float
    attainment_residual: float
    per_fiber: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def duality_check(x: Section, p: float, samples: int, seed: int) -> DualityReport:
    """Sample the dual unit ball and verify nothing beats the Lp norm.

    Every sampled ``y`` is rescaled per fiber onto the dual-ball boundary; the
    violation is ``|trace(x y)| - norm_p(x)`` pointwise (positive means the
    duality bound failed).  The extremal witness must attain the norm, which
    the attainment residual measures.  Sample ``i`` is the Gaussian draw of
    ``random_section`` under ``derive_seed(seed, "duality-sample", i)``.  The
    samples go through in chunks of DUALITY_CHUNK, stacked per block: the dual
    norm is ``stacked_lp_norms`` at q = p / (p - 1) (q = inf when p = 1) and
    ``trace(x y)`` one contraction per block.  Every step treats each sample
    on its own, so the chunking does not show in the report.
    """
    if samples < 1:
        raise UsageError("need at least one sample")
    p = _exponent(p)
    q = math.inf if p == 1.0 else p / (p - 1.0)
    bundle = x.bundle
    atoms = bundle.space.size
    norms = lp_norm(x, p).values
    x_blocks = [b for f in x.fibers for b in f.blocks]
    worst = np.full(atoms, -np.inf)
    for ids in chunks(samples):
        ys = gaussian_stacks(bundle, [derive_seed(seed, "duality-sample", i) for i in ids])
        (dual,) = stacked_lp_norms(ys, bundle, [q])
        scale = np.divide(1.0, dual, out=np.ones_like(dual), where=dual > ZERO_FIBER_TOL)
        pairing = np.zeros((len(ids), atoms), dtype=np.complex128)
        for (i, c), b, y in zip(bundle.block_slots(), x_blocks, ys):
            pairing[:, i] += c * np.einsum("ab,sba->s", b, y)
        worst = np.maximum(worst, (np.abs(pairing) * scale - norms).max(axis=0))
    witness = dual_extremal(x, p)
    attained = center_trace(x * witness).values
    attain_res = np.abs(attained - norms)
    per_fiber = [
        {
            "atom": label,
            "norm_p": float(norms[i]),
            "attained": float(attained[i].real),
            "attainment_residual": float(attain_res[i]),
            "worst_sample_violation": float(worst[i]),
        }
        for i, label in enumerate(x.bundle.space.labels)
    ]
    return DualityReport(
        p=p,
        samples=samples,
        seed=seed,
        max_violation=float(worst.max()),
        attainment_residual=float(attain_res.max()),
        per_fiber=per_fiber,
    )
