"""Center-valued trace, its scalarizations, Lp norms, and the norm duality.

The trace of a section is the center element ``w -> sum_j c_j(w) tr(x(w)_j)``
with the bundle's per-block weights ``c_j``.  Lp norms are the p-th roots of
the trace of ``|x|**p``: at p = 2 through the weighted Frobenius identity
``trace(x* x) = sum_j c_j ||x_j||_F**2``, at other exponents from the
per-block squared singular values ``w`` (one-sided Jacobi) as ``sqrt(top) * S**(1/p)``, with
``top`` the atom's largest ``w`` and the top-scaled sum ``S = sum_j c_j sum (w / top)**(p/2)``
(``top_scaled_sums``), so that no power leaves the float range; the norms of a family
of sections share one stacked solve per block size.  The duality checks
build a witness attaining ``sup |trace(x y)|`` over the dual-norm unit ball from
the right singular vectors of every block of every case, one stacked solve per block
size, its norm and its spectral weights ``(w / top)**(p/2-1) * S**(1/p-1) / sqrt(top)``
from one top-scaled sum, and sample that ball for violations.  Only a case's worst
sample reaches its report, so a sample's dual norm is solved only where it can be that
worst: the ratio ``|trace(x y)| / ||y||_q`` is bracketed from the blocks' Frobenius
norms (majorization, one column per block through the same scaling), and a lane whose
upper bound is below the best lower bound of its case is never solved.  The bracket is
widened past the rounding of either side, so every report is the one that solving
every sample gives, bit for bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .bundle import BundleSpec, Stream, gaussian_stacks
from .errors import ContractViolationError, UsageError
from .fiber import PINV_CUTOFF, gram_eigenvalues_stack, solve_by_block_size

DUALITY_CHUNK = 512     # samples or trials stacked at once; bounds memory for any count
BRACKET_MARGIN = 1e-9   # relative widening of the no-solve bounds on a sample's dual norm


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit seed derived from a master seed and hashable tags.

    Used wherever one configured seed has to fan out into many independent
    streams (samples, trials) reproducibly across runs and platforms.
    """
    blob = repr((int(master),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


def _exponent(p) -> float:
    if not 1.0 <= float(p) < math.inf:  # also refuses NaN
        raise UsageError(f"p must be a finite number >= 1, got {p}")
    return float(p)


def packed_chunks(cases: int, count: int) -> list[list[tuple[int, int]]]:
    """Each case's ``count`` lanes as ``(case, size)`` chunks of at most DUALITY_CHUNK, in
    order, packed into groups of at most DUALITY_CHUNK lanes; a group may span cases."""
    groups, room = [], 0
    for k in range(cases):
        for start in range(0, count, DUALITY_CHUNK):
            size = min(DUALITY_CHUNK, count - start)
            if size > room:
                groups.append([])
                room = DUALITY_CHUNK
            groups[-1].append((k, size))
            room -= size
    return groups


def _target_stacks(targets) -> list[np.ndarray]:
    """The blocks of S targets of one bundle, one ``(S, n, n)`` stack per block slot."""
    return [np.concatenate(slot) for slot in zip(*[blocks for _, blocks in targets])]


def stacked_traces(ys, bundle) -> np.ndarray:
    """``(S, atoms)`` center-valued traces of S sections, one ``(S, n, n)`` stack per block."""
    out = np.zeros((len(ys[0]), bundle.space.size), dtype=np.complex128)
    for (i, c), y in zip(bundle.block_slots(), ys):
        out[:, i] += c * np.trace(y, axis1=1, axis2=2)
    return out


def _require_finite(norms, p):
    if not np.isfinite(norms).all():
        raise ContractViolationError(f"L{p:g} norm is not finite (floating-point overflow)")


def top_scaled_sums(spectra, bundle, exponents, counts=None) -> tuple[np.ndarray, list, list]:
    """``(top, scaled, sums)`` of S sections' squared singular values ``spectra``, one ``(S, n)``
    array per block slot: ``top`` the ``(S, atoms)`` largest ``w`` of each atom, ``scaled``
    each slot's ``w / top`` (``w`` itself where ``top`` is 0 or inf, so no 0 / 0 or inf / inf)
    and, per exponent, the top-scaled sum ``S = sum_j c_j sum (w / top)**(p/2)``.  Every scaled
    ``w`` is at most 1, so no power overflows, and at p = inf the sum counts the ``w`` at ``top``.
    ``counts``, one per slot, has each column of a slot's ``w`` stand for that many equal values.
    """
    slots = bundle.block_slots()
    top = np.zeros((len(spectra[0]), bundle.space.size))
    for w, (i, _) in zip(spectra, slots):
        top[:, i] = np.maximum(top[:, i], w.max(axis=1))
    divisor = np.where((top > 0.0) & (top < math.inf), top, 1.0)
    scaled = [w / divisor[:, i, None] for w, (i, _) in zip(spectra, slots)]
    sums = []
    for p in exponents:
        total = np.zeros_like(top)
        with np.errstate(over="ignore"):  # beside an infinite top, w is not scaled down
            for w, (i, c), m in zip(scaled, slots, counts or [1] * len(slots)):
                total[:, i] += c * (m * np.sum(w ** (p / 2.0), axis=1))
        sums.append(total)
    return top, scaled, sums


def _top_scaled_norms(top, sums, p) -> np.ndarray:
    """The Lp norms ``sqrt(top) * S**(1/p)`` of ``top_scaled_sums``, checked finite."""
    norm = np.sqrt(top) * sums ** (1.0 / p)
    _require_finite(norm, p)
    return norm


def stacked_lp_norms(ys, bundle, exponents, spectra) -> list[np.ndarray]:
    """Per exponent, the ``(S, atoms)`` Lp norms of S sections held as in ``stacked_traces``.

    p = 2 is the weighted Frobenius identity, each block's ``||y_s||_F**2`` one ``vecdot`` of
    its flattened entries.  Every other exponent, p = inf included, is ``sqrt(top) * S**(1/p)``
    from the ``top_scaled_sums`` of the squared singular values of ``ys``, one ``(S, n)`` array
    per block as ``solve_by_block_size(ys, gram_eigenvalues_stack)`` gives them (unused, so it
    may be empty, when every exponent is 2).  ``ys`` is read only at p = 2.
    A norm that is not finite (squares past the float range) raises ContractViolationError.
    """
    others = [p for p in exponents if p != 2.0]
    top, _, sums = top_scaled_sums(spectra, bundle, others) if others else (None, (), [])
    out = []
    for p in exponents:
        if p == 2.0:
            norm = np.zeros((len(ys[0]), bundle.space.size))
            # an overflow, or inf - inf in an imaginary part, is reported below, naming p
            with np.errstate(over="ignore", invalid="ignore"):
                for y, (i, c) in zip(ys, bundle.block_slots()):
                    flat = y.reshape(len(y), y.shape[1] * y.shape[2])  # also with no lanes
                    norm[:, i] += c * np.vecdot(flat, flat).real
            norm = np.sqrt(norm)
            _require_finite(norm, p)
        else:
            norm = _top_scaled_norms(top, sums.pop(0), p)
        out.append(norm)
    return out


def shared_lp_norms(cases) -> list[np.ndarray]:
    """``stacked_lp_norms`` of every ``(ys, bundle, p)`` case at its one exponent; the spectra
    of all cases away from p = 2 come from one stacked solve per block size."""
    solved = iter(solve_by_block_size([y for ys, _, p in cases if p != 2.0 for y in ys],
                                      gram_eigenvalues_stack))
    return [stacked_lp_norms(ys, bundle, [p], [next(solved) for _ in ys] if p != 2.0 else ())[0]
            for ys, bundle, p in cases]


def _witnesses(cases) -> list:
    """``(norm_p, v, trace(x v))`` for ``(x, p)`` cases, ``x`` a target (``views._target``), v the
    witness ``dual_extremal(x, p)`` as one-lane block stacks.

    The cases of equal bundles and exponent form a batch, held as in ``stacked_traces``.  Every
    block of every batch goes through one stacked solve with singular vectors per block
    size; a batch's norms ``sqrt(top) * S**(1/p)`` (at p = 2 the Frobenius identity) and its
    witnesses come from one ``top_scaled_sums``.  No step mixes cases, so batching does not show.
    """
    batches = {}
    for k, ((bundle, _), p) in enumerate(cases):
        batches.setdefault((bundle, p), []).append(k)
    batches = list(batches.values())
    stacks = [_target_stacks([cases[k][0] for k in ks]) for ks in batches]
    solved = iter(solve_by_block_size([y for ys in stacks for y in ys],
                                      lambda y: gram_eigenvalues_stack(y, vectors=True)))
    out = [None] * len(cases)
    for ks, ys in zip(batches, stacks):
        (bundle, _), p = cases[ks[0]]
        eigs = [next(solved) for _ in ys]
        top, scaled, (sums,) = top_scaled_sums([w for w, _ in eigs], bundle, [p])
        norms = (stacked_lp_norms(ys, bundle, [p], ())[0] if p == 2.0
                 else _top_scaled_norms(top, sums, p))
        live = top > 0.0  # elsewhere the fiber, and its witness, is zero
        gain = np.zeros_like(top)  # norm_p**(1-p) top**(p/2-1), with no rounded norm raised
        gain[live] = sums[live] ** (1.0 / p - 1.0) / np.sqrt(top[live])
        witness = []
        for y, (_, u), s, (i, _) in zip(ys, eigs, scaled, bundle.block_slots()):
            # a power only on the support w / top > PINV_CUTOFF**2, none in a discarded branch
            fw = np.power(s, p / 2 - 1, out=np.zeros_like(s), where=s > PINV_CUTOFF**2)
            inner = (u * (fw * gain[:, i, None])[:, None, :]) @ u.conj().transpose(0, 2, 1)
            witness.append(inner @ y.conj().transpose(0, 2, 1))
        attained = stacked_traces([y @ v for y, v in zip(ys, witness)], bundle)
        for j, k in enumerate(ks):
            out[k] = (norms[j], [v[j:j + 1] for v in witness], attained[j])
    return out


class DualityReport:
    """Outcome of a sampled duality check for one section and one exponent."""

    def __init__(self, p: float, samples: int, seed: int, max_violation: float,
                 attainment_residual: float, per_fiber: list = None):
        self.p, self.samples, self.seed = p, samples, seed
        self.max_violation, self.attainment_residual = max_violation, attainment_residual
        self.per_fiber = [] if per_fiber is None else per_fiber

    def to_dict(self) -> dict:
        return dict(vars(self), per_fiber=[dict(row) for row in self.per_fiber])


def dual_norm_bracket(ys, bundle, q) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: ``(S, atoms)`` bounds on the Lq norms of S sections held as in
    ``stacked_traces``, from each block's ``||y_s||_F**2 = F`` alone, with no solve.

    The squared singular values of an n x n block majorize the flat spectrum
    ``(F/n, ..., F/n)`` and are majorized by the spike ``(F, 0, ..., 0)`` (Bhatia, Matrix
    Analysis, II and IV), so every Lq norm, q = inf included, lies between those of the
    two.  Each end is one column per block slot through ``top_scaled_sums``, whose scaling
    keeps large q in range: ``F/n`` counted n times, and ``F`` (the spike's zeros add
    nothing).  At q = 2 both ends are the Frobenius norm up to rounding, well inside
    BRACKET_MARGIN; ``_contenders`` never asks for q = 2, where the norm needs no solve.
    Widened by BRACKET_MARGIN, the bounds hold for the rounded norms of solved spectra too.
    """
    f = [np.vecdot(e, e).real[:, None]  # one column per slot
         for e in (y.reshape(len(y), y.shape[1] * y.shape[2]) for y in ys)]
    n = [y.shape[1] for y in ys]
    flat, spike = (_top_scaled_norms(top, sums, q) for top, _, (sums,) in (
        top_scaled_sums([fj / nj for fj, nj in zip(f, n)], bundle, [q], n),
        top_scaled_sums(f, bundle, [q])))
    return (np.minimum(flat, spike) * (1.0 - BRACKET_MARGIN),
            np.maximum(flat, spike) * (1.0 + BRACKET_MARGIN))


def _contenders(ys, bundle, q, pairing, starts) -> np.ndarray:
    """``(S, atoms)`` mask of the sample lanes whose ratio ``pairing / ||y||_q`` at an atom can
    reach the largest of their case (the lanes from each of ``starts`` to the next).

    A lane is dropped where its ratio's upper bound, from ``dual_norm_bracket``, is below
    its case's best lower bound, so every lane attaining a maximum stays.  A lane whose
    lower bracket is 0 stays too (its dual norm may be taken as 1), so no 0 / 0 is formed.
    """
    lo, hi = dual_norm_bracket(ys, bundle, q)
    small = lo == 0.0
    least = np.divide(pairing, hi, out=np.zeros_like(hi), where=~small)
    most = np.divide(pairing, lo, out=np.full_like(lo, np.inf), where=~small)
    best = np.maximum.reduceat(least, starts)
    return most >= np.repeat(best, np.diff(starts, append=len(pairing)), axis=0)


class _Drawn:
    """The sample lanes of one bundle and q in one group: the chunks ``members``, each
    ``(case, size)``, in order; ``pairing`` the ``(S, atoms)`` ``|trace(x y)|``; ``keep`` the
    entries whose dual norm is taken.  At q = 2 every entry is kept and ``frobenius`` holds
    the dual norms; elsewhere ``blocks`` holds each block slot's kept lanes, those kept at
    its atom."""

    def __init__(self, members: list, bundle: BundleSpec, q: float, pairing: np.ndarray,
                 keep: np.ndarray, blocks: list, frobenius: np.ndarray | None):
        self.members, self.bundle, self.q, self.pairing = members, bundle, q, pairing
        self.keep, self.blocks, self.frobenius = keep, blocks, frobenius


def _draw(cases, qs, streams, group) -> list[_Drawn]:
    """The lanes of one ``packed_chunks`` group, drawn and paired with their cases' sections;
    the chunks of cases that share a bundle and q form one ``_Drawn``."""
    batches = {}
    for k, size in group:
        batches.setdefault((cases[k][0][0], qs[k]), []).append((k, size))
    out = []
    for (bundle, q), members in batches.items():
        ys = [np.concatenate(slot) for slot in zip(*[gaussian_stacks(bundle, streams[k], size)
                                                     for k, size in members])]
        sizes = [size for _, size in members]
        # each lane pairs with the blocks of its own case
        xs = _target_stacks([cases[k][0] for k, _ in members])
        traces = np.zeros((len(ys[0]), bundle.space.size), dtype=np.complex128)
        for (i, c), x, y in zip(bundle.block_slots(), xs, ys):
            traces[:, i] += c * np.einsum("sab,sba->s", np.repeat(x, sizes, axis=0), y)
        pairing = np.abs(traces)
        if q == 2.0:
            out.append(_Drawn(members, bundle, q, pairing, np.ones(pairing.shape, dtype=bool), [],
                              stacked_lp_norms(ys, bundle, [q], ())[0]))
        else:
            keep = _contenders(ys, bundle, q, pairing, np.cumsum(sizes) - sizes)
            blocks = [y[keep[:, i]] for (i, _), y in zip(bundle.block_slots(), ys)]
            out.append(_Drawn(members, bundle, q, pairing, keep, blocks, None))
    return out


def _sampled_dual_norms(drawn) -> list[np.ndarray]:
    """The ``(S, atoms)`` Lq norms of every ``_Drawn`` batch's lanes at its kept entries (any
    value elsewhere).

    The kept blocks of all batches go through one stacked solve per block size; a dropped
    lane's spectrum is never computed.  A lane's solved bits do not depend on its stack, and
    its norm at an atom reads only that atom's blocks, so every kept norm is the one a
    solve of every lane gives.
    """
    solved = iter(solve_by_block_size([b for d in drawn for b in d.blocks], gram_eigenvalues_stack))
    out = []
    for d in drawn:
        if d.q == 2.0:
            out.append(d.frobenius)
            continue
        spectra = []
        for (i, _), b in zip(d.bundle.block_slots(), d.blocks):
            w = np.zeros((len(d.keep), b.shape[1]))
            w[d.keep[:, i]] = next(solved)
            spectra.append(w)
        out.append(stacked_lp_norms(spectra, d.bundle, [d.q], spectra)[0])
    return out


def _worst_excess(cases, qs, streams, witnessed, samples) -> list[np.ndarray]:
    """Per case, its worst sampled ``|trace(x y)| - norm_p(x)`` per atom.

    The lanes are drawn group by group (``packed_chunks``); ``|trace(x y)|`` comes first, for
    every lane, and ``_draw`` keeps only the ``_contenders``.  The drawn batches are held over
    groups and their dual norms taken together (``_sampled_dual_norms``) once they hold as
    many lanes or kept blocks as one group of the largest bundle draws, or at the end, so
    memory stays bounded for any count.  A dropped lane has the excess -inf at its atom.
    """
    worst = [np.full(bundle.space.size, -np.inf) for (bundle, _), _, _ in cases]
    room = DUALITY_CHUNK * max((len(blocks) for (_, blocks), _, _ in cases), default=0)
    groups, held = packed_chunks(len(cases), samples), []
    for g, group in enumerate(groups, 1):
        held += _draw(cases, qs, streams, group)
        size = max(sum(len(d.keep) for d in held), sum(len(b) for d in held for b in d.blocks))
        if g < len(groups) and size < room:
            continue
        for d, dual in zip(held, _sampled_dual_norms(held)):
            scale = np.divide(1.0, dual, out=np.ones_like(dual), where=dual > 0.0)
            sizes = [size for _, size in d.members]
            # each lane's excess is over its own case's norm
            norms = np.repeat(np.array([witnessed[k][0] for k, _ in d.members]), sizes, axis=0)
            excess = np.where(d.keep, d.pairing * scale - norms, -np.inf)
            rows = np.maximum.reduceat(excess, np.cumsum(sizes) - sizes)
            for (k, _), row in zip(d.members, rows):
                worst[k] = np.maximum(worst[k], row)
        held = []
    return worst


def target_duality_checks(cases, samples: int) -> list[DualityReport]:
    """The duality reports of ``(x, p, seed)`` cases whose ``x`` is a target ``(bundle,
    blocks)``, one one-lane stack per block slot (``views._target``), in order.

    The cases' chunks are drawn in groups (``packed_chunks``); the chunks of a group whose
    cases share a bundle and q are a batch, with one pairing contraction per block.  At
    q = 2 the dual norms are the Frobenius identity and need no solve.  Elsewhere a lane is
    solved at an atom only if it can set its case's worst violation there: its ratio
    ``|trace(x y)| / ||y||_q``, bracketed by majorization (``dual_norm_bracket``), reaches the
    best lower bound of its case, or its lower bound is 0.  The kept lanes of the held
    groups share one stacked solve per block size (``_worst_excess``).
    The bracket is widened by BRACKET_MARGIN past the rounding of both sides, so a case's
    worst lane is always kept, and a kept lane goes through the operations that solving
    every lane gives it: every report is that of the all-lanes loop, bit for bit.  A dropped
    lane's spectrum is never computed; the test suite's LAPACK and list-kernel oracles
    still cover the kernel's accuracy.  No step mixes samples or cases, so neither shows
    in a report.
    """
    if samples < 1:
        raise UsageError("need at least one sample")
    ps = [_exponent(p) for _, p, _ in cases]
    qs = [math.inf if p == 1.0 else p / (p - 1.0) for p in ps]
    witnessed = _witnesses([(x, p) for (x, _, _), p in zip(cases, ps)])
    streams = [Stream(derive_seed(seed, "duality-samples")) for _, _, seed in cases]
    worst = _worst_excess(cases, qs, streams, witnessed, samples)
    reports = []
    for ((bundle, _), _, seed), p, (norm_p, _, attained), worst_k in zip(
            cases, ps, witnessed, worst):
        attain_res = np.abs(attained - norm_p)
        per_fiber = [
            {
                "atom": label,
                "norm_p": float(norm_p[i]),
                "attained": float(attained[i].real),
                "attainment_residual": float(attain_res[i]),
                "worst_sample_violation": float(worst_k[i]),
            }
            for i, label in enumerate(bundle.space.labels)
        ]
        reports.append(DualityReport(
            p=p,
            samples=samples,
            seed=seed,
            max_violation=float(worst_k.max()),
            attainment_residual=float(attain_res.max()),
            per_fiber=per_fiber,
        ))
    return reports


def __getattr__(name):  # the names that moved to ``views``, which loads on first use
    if name in ("center_trace", "dual_extremal", "duality_check", "duality_checks", "lp_norm",
                "lp_norms", "section_stacks", "_target"):
        from . import views
        return getattr(views, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
