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
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import Section, identity_section, random_section
from .center import CenterElement
from .errors import UsageError
from .fiber import (
    FiberElement,
    abs_power,
    gram_eigenvalues,
    polar,
    spectral_norm,
    zero_fiber,
)

ZERO_FIBER_TOL = 1e-12  # fibers with smaller Lp norm get a zero duality witness


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit seed derived from a master seed and hashable tags.

    Used wherever one configured seed has to fan out into many independent
    streams (samples, trials) reproducibly across runs and platforms.
    """
    blob = repr((int(master),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


def _fiber_trace(f: FiberElement, weights) -> complex:
    return sum(c * complex(np.trace(b)) for c, b in zip(weights, f.blocks))


def center_trace(x: Section) -> CenterElement:
    """The center-valued trace: weighted block traces per atom."""
    values = np.array(
        [_fiber_trace(f, cs) for f, cs in zip(x.fibers, x.bundle.trace_weights)],
        dtype=np.complex128,
    )
    return CenterElement(x.bundle.space, values)


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


def lp_norm(x: Section, p: float) -> CenterElement:
    """Center-valued Lp norm: ``(trace(|x|**p))**(1/p)`` per atom.

    For p = 2 the trace of ``x* x`` is the sum of its eigenvalues, i.e. the
    weighted Frobenius sum ``sum_j c_j ||x_j||_F**2``, so no eigensolve is
    needed.  Other exponents sum ``w**(p/2)`` over the Gram spectrum ``w``.
    """
    p = float(p)
    if p < 1.0:
        raise UsageError(f"p must be >= 1, got {p}")
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
    p = float(p)
    if p < 1.0:
        raise UsageError(f"p must be >= 1, got {p}")
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


def _rescale_to_dual_ball(y: Section, p: float) -> Section:
    """Project a section onto the boundary of the dual-norm unit ball.

    Per fiber: divide by the uniform norm when p = 1, by the Lq norm
    otherwise.  Near-zero fibers are left at zero (interior, still feasible).
    """
    fibers = []
    if p == 1.0:
        for f in y.fibers:
            scale = spectral_norm(f)
            fibers.append((1.0 / scale) * f if scale > ZERO_FIBER_TOL else f)
    else:
        q = p / (p - 1.0)
        norms = lp_norm(y, q).values
        for f, nq in zip(y.fibers, norms):
            fibers.append((1.0 / float(nq)) * f if nq > ZERO_FIBER_TOL else f)
    return Section._raw(y.bundle, fibers)


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
    the attainment residual measures.  Sample seeds are derived one by one
    from the master seed, so serial and parallel runs draw identical samples.
    """
    if samples < 1:
        raise UsageError("need at least one sample")
    p = float(p)
    norms = lp_norm(x, p).values
    worst = np.full(x.bundle.space.size, -np.inf)
    for i in range(samples):
        y = random_section(x.bundle, derive_seed(seed, "duality-sample", i), "general")
        y = _rescale_to_dual_ball(y, p)
        pairing = np.abs(center_trace(x * y).values)
        worst = np.maximum(worst, pairing - norms)
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
