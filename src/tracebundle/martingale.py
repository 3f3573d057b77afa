"""Filtrations, martingales, and their convergence diagnostics.

A filtration is a nested tower of validated subalgebras whose inclusions and
projection-composition law are verified numerically at construction.  Towers
are finite; the infinite-index regime of the averaging statements is emulated
by holding the terminal element fixed for extra steps, which drives the
cumulative weight to infinity while every limit stays exact.  Held steps are
evaluated in closed form as array operations: the whole tail costs O(1) norm
evaluations, and no Python runs once per held step.  Many sequences are checked
at once, held as block stacks (``martingale_checks``).
"""

from __future__ import annotations

import numpy as np

from .bundle import BundleSpec, Section, lane_section
from .center import CenterElement
from .condexp import ConditionalExpectation, SubalgebraBasis, _project, validate_subalgebra
from .errors import (
    InconsistencyError,
    ShapeMismatchError,
    UnsupportedConfigurationError,
    UsageError,
)
from .tracelp import _exponent, lp_norms, section_stacks, shared_lp_norms

INCLUSION_BUILD_TOL = 1e-8      # hard failure bound on tower inclusions
COMPOSITION_TOL = 1e-9          # E_m . E_n = E_min(m,n) on every matrix unit
MARTINGALE_TOL = 1e-9           # defining property of a martingale sequence
LIMIT_RECONSTRUCTION_TOL = 1e-9


class Filtration:
    """Verified tower of subalgebras with their conditional expectations, all derived from the
    levels: the constructor measures the tower residuals and refuses a tower past a build bound."""

    __slots__ = ("tower", "cond_exps", "inclusion_residual", "composition_residual")

    def __init__(self, tower):
        self.tower = list(tower)
        inclusion, composition = _tower_residuals(self.tower)
        if inclusion > INCLUSION_BUILD_TOL:
            raise InconsistencyError(
                f"tower inclusion residual {inclusion:.2e} exceeds {INCLUSION_BUILD_TOL:.0e}"
            )
        if composition > COMPOSITION_TOL:
            raise InconsistencyError(
                f"tower composition residual {composition:.2e} exceeds {COMPOSITION_TOL:.0e}"
            )
        self.inclusion_residual, self.composition_residual = inclusion, composition
        self.cond_exps = [ConditionalExpectation(t) for t in self.tower]

    @property
    def bundle(self) -> BundleSpec:
        return self.tower[0].bundle

    @property
    def terminal_is_full(self) -> bool:
        return self.tower[-1].is_full()

    @property
    def depth(self) -> int:
        return len(self.tower)

    def restrict(self, labels) -> "Filtration":
        """The same tower on a sub-bundle, from the chosen atoms' validated per-atom data.

        Validation works atom by atom, so each level keeps its generators and projectors (its
        closure residual follows) at those atoms; only the tower residuals are measured again.
        """
        sub = self.bundle.restrict(labels)
        idx = [self.bundle.space.index_of(l) for l in sub.space.labels]
        return Filtration([SubalgebraBasis(sub, [level.generators[i] for i in idx],
                                           [level.projectors[i] for i in idx])
                           for level in self.tower])


def build_filtration(bundle: BundleSpec, level_generator_lists) -> Filtration:
    """Validate a tower from per-level, per-atom generator lists.

    Each level is validated on top of the one below (``validate_subalgebra`` from
    the lower basis), so it contains the lower generators and tries only its own;
    the inclusions, and the composition law of the projections, are then verified
    numerically as matrix identities on the projector bases (``_tower_residuals``).
    """
    levels = [list(map(tuple, gens)) for gens in level_generator_lists]
    if not levels:
        raise UsageError("a filtration needs at least one level")
    tower, below = [], bundle
    for gens in levels:
        below = validate_subalgebra(below, gens)
        tower.append(below)
    return Filtration(tower)


def _tower_residuals(tower) -> tuple[float, float]:
    """Worst inclusion and composition residuals of a tower, from its projector bases.

    Inclusion is the distance of each lower ``ortho`` column to the upper span.
    With ``P = ortho ortho*``, entry (row, col) of ``P_m P_n - P_min(m,n)`` times
    ``sqrt_weights[col] / sqrt_weights[row]`` is entry row of ``E_m E_n u - E_min(m,n) u``
    for the matrix unit u of column col.
    """
    inclusion = composition = 0.0
    for atom in zip(*(level.projectors for level in tower)):
        for low, up in zip(atom, atom[1:]):
            inclusion = max(inclusion, np.linalg.norm(up.residual_coords(low.ortho), axis=0).max())
        scale = atom[0].sqrt_weights[None, :] / atom[0].sqrt_weights[:, None]
        ps = [p.ortho @ p.ortho.conj().T for p in atom]
        for m, pm in enumerate(ps):
            for n, pn in enumerate(ps):
                composition = max(composition, (np.abs(pm @ pn - ps[min(m, n)]) * scale).max())
    return float(inclusion), float(composition)


class MartingaleChecks:
    """Per-lane results of ``martingale_checks``; a part it was not asked for is None."""

    def __init__(self, defect, recon=None, xa=None, sa=None, sup_x=None, sup_sigma=None,
                 terminal=None, pythagoras=None):
        self.defect = defect          # (S,) worst L1 norm of E_n(x_{n+1}) - x_n
        self.recon = recon            # (S,) worst L1 norm of E_n(y) - x_n, y the last step
        self.xa = xa                  # (S, steps, atoms) ||x_n - y||_p, 0 on held steps
        self.sa = sa                  # (S, steps, atoms) ||sigma_n - y||_p
        self.sup_x = sup_x            # (S, atoms) max over n of ||x_n||_p
        self.sup_sigma = sup_sigma    # (S, atoms) the same over the means and the held end
        self.terminal = terminal      # (S,) max over atoms of ||y - x||_p, x the target
        self.pythagoras = pythagoras  # (S,) worst |(||x||^2 - ||x_n||^2 - ||x - x_n||^2)|, p = 2


def martingale_checks(filtration: Filtration, xs, p: float = 2.0, limit: bool = False,
                      w=None, extend_by: int = 0, target=None) -> MartingaleChecks:
    """Martingale diagnostics of S sequences at once, step n held as ``xs[n]``, one
    ``(S, n, n)`` stack per block (``section_stacks``).

    Always the defect.  With ``limit`` (a full tower, one step per level) the reconstruction
    residual and the traces toward the last step y; with weights ``w`` the running means
    held for ``extend_by`` steps, their traces and the sup comparison; with the ``target`` x
    of the steps, ``||y - x||_p`` and Pythagoras.  None is refused here.  Each level's E
    applies once per fiber, to the next step and y together; the L1 norms and those at p
    take their spectra from one stacked solve per block size, and each exponent's norms come
    from one ``stacked_lp_norms`` call.
    """
    p, k, y = _exponent(p), len(xs), xs[-1]
    if k > filtration.depth:
        raise UsageError("more elements than tower levels")
    if limit and not filtration.terminal_is_full:
        raise UnsupportedConfigurationError(
            "martingale limits need a tower whose terminal level is the full algebra")
    if limit and k != filtration.depth:
        raise UsageError("sequence does not reach the terminal level")
    sigmas, ratios = _running_means(xs, w, extend_by) if w is not None else ([], np.zeros(0))
    lanes, defects, recons = len(y[0]), [], []
    for n, E in enumerate(filtration.cond_exps[:k - 1 + limit]):
        ys = _project(E.target.projectors, _cat(xs[n + 1:n + 2] + [y] * limit, y))
        if n + 1 < k:
            defects.append(_minus([z[:lanes] for z in ys], xs[n]))
        if limit:
            recons.append(_minus([z[-lanes:] for z in ys], xs[n]))
    held = [[b + complex(ratios[-1]) * (s - b) for s, b in zip(sigmas[-1], y)]] if ratios.size else []
    at_p = [_minus(x_n, y) for x_n in xs] if limit or w is not None else []
    at_p += [_minus(s, y) for s in sigmas] + (xs + sigmas + held if w is not None else [])
    at_p += [_minus(y, target)] if target is not None else []
    at_2 = [target, *xs, *(_minus(target, x_n) for x_n in xs)] if target is not None else []
    sets, bundle = (defects + recons, at_p, at_2), filtration.bundle
    norms = shared_lp_norms([(_cat(e, y), bundle, q) for e, q in zip(sets, (1.0, p, 2.0))])
    l1, lp, l2 = (n.reshape(len(e), lanes, bundle.space.size) for n, e in zip(norms, sets))
    out = MartingaleChecks(defect=l1[:len(defects)].max(axis=(0, 2), initial=0.0))
    if limit:
        out.recon = l1[len(defects):].max(axis=(0, 2))
    if limit or w is not None:
        out.xa = np.concatenate((lp[:k], np.zeros((ratios.size,) + lp.shape[1:]))).transpose(1, 0, 2)
    if w is not None:
        sa = lp[k:2 * k].transpose(1, 0, 2)
        out.sa = np.concatenate((sa, ratios[None, :, None] * sa[:, -1:]), axis=1)
        out.sup_x, out.sup_sigma = lp[2 * k:3 * k].max(axis=0), lp[3 * k:4 * k + len(held)].max(axis=0)
    if target is not None:
        sq = l2 ** 2
        out.terminal = lp[-1].max(axis=1)
        out.pythagoras = np.abs(sq[0] - sq[1:k + 1] - sq[k + 1:]).max(axis=(0, 2))
    return out


def _cat(entries, like):
    """Per block, the lanes of the block-stack lists ``entries`` one after another (``like``
    gives the blocks, so no entries give no lanes)."""
    return [np.concatenate([b[:0], *(e[j] for e in entries)]) for j, b in enumerate(like)]


def _minus(us, vs):
    return [u - v for u, v in zip(us, vs)]


def _running_means(xs, w, extend_by: int = 0):
    """Running means sigma_1..sigma_K of the steps ``xs`` (held as in ``martingale_checks``)
    and, for the held steps n > K, W_K/W_n.

    Holding ``y = x_K`` gives ``sigma_n - y = (W_K/W_n)(sigma_K - y)`` exactly.
    The cumsum of the held ``W_n`` starts from ``W_K``, so it adds in step order.
    """
    w = np.asarray(w, dtype=np.float64)
    needed = len(xs) + max(0, int(extend_by))
    if len(w) < needed:
        raise UsageError(f"need at least {needed} weights, got {len(w)}")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise UsageError("averaging weights must be finite and strictly positive")
    sigmas, running, total = [], None, 0.0
    for x_k, w_k in zip(xs, w[:len(xs)].tolist()):
        term = [complex(w_k) * b for b in x_k]
        running = term if running is None else [r + t for r, t in zip(running, term)]
        total += w_k
        sigmas.append([complex(1.0 / total) * r for r in running])
    ratios = total / np.cumsum(np.concatenate(([total], w[len(xs):needed])))[1:]
    return sigmas, ratios


def _one_sequence(filtration: Filtration, elements, p: float = 2.0, **parts) -> MartingaleChecks:
    """``martingale_checks`` of one sequence of sections, each a one-lane stack."""
    if any(x.bundle is not filtration.bundle and x.bundle != filtration.bundle for x in elements):
        raise ShapeMismatchError("section lives on a different bundle")
    return martingale_checks(filtration, [section_stacks([x]) for x in elements], p, **parts)


def martingale_defect(elements, filtration: Filtration) -> float:
    """Worst defect of the martingale property over the whole sequence.

    The defect at step n is the pointwise max over atoms of the L1 center
    norm of ``E(x_{n+1} | M_n) - x_n``: the one-sequence ``martingale_checks``.
    """
    elements = list(elements)
    return float(_one_sequence(filtration, elements).defect[0]) if elements else 0.0


class MartingaleSeq:
    """An adapted sequence; its martingale defect is measured once, as ``defect``."""

    __slots__ = ("filtration", "elements", "p", "defect")

    def __init__(self, filtration: Filtration, elements, p: float = 2.0, check: bool = True):
        self.filtration = filtration
        self.elements = tuple(elements)
        self.p = float(p)
        if not self.elements:
            raise UsageError("a martingale needs at least one element")
        self.defect = martingale_defect(self.elements, filtration)
        if check and self.defect > MARTINGALE_TOL:
            raise UsageError(
                "sequence violates the martingale property beyond tolerance"
            )

    def __len__(self):
        return len(self.elements)


def martingale_from_target(x: Section, filtration: Filtration, p: float = 2.0) -> MartingaleSeq:
    """The canonical martingale: project one target through every tower level."""
    elements = [E(x) for E in filtration.cond_exps]
    return MartingaleSeq(filtration, elements, p=p)


class MartingaleLimit:
    """Terminal element of a full tower together with its consistency data."""

    def __init__(self, limit: Section, reconstruction_residual: float, residual_trace: list):
        self.limit, self.reconstruction_residual = limit, reconstruction_residual
        self.residual_trace = residual_trace  # max over atoms of ||x_n - limit||_p, per level

    def to_dict(self) -> dict:
        return {
            "reconstruction_residual": self.reconstruction_residual,
            "residual_trace": list(self.residual_trace),
        }


def martingale_limit(seq: MartingaleSeq) -> MartingaleLimit:
    """Recover the generating element of a martingale on a full finite tower.

    On a tower whose top level is the whole algebra the terminal element is the limit;
    projecting it down every level must reproduce the sequence within LIMIT_RECONSTRUCTION_TOL,
    else InconsistencyError: the one-sequence ``martingale_checks`` at ``seq.p``.
    """
    return _limit(seq, _one_sequence(seq.filtration, seq.elements, seq.p, limit=True))


def _limit(seq: MartingaleSeq, checks: MartingaleChecks) -> MartingaleLimit:
    recon = float(checks.recon[0])
    if recon > LIMIT_RECONSTRUCTION_TOL:
        raise InconsistencyError(f"limit reconstruction residual {recon:.2e} "
                                 f"exceeds {LIMIT_RECONSTRUCTION_TOL:.0e}")
    return MartingaleLimit(limit=seq.elements[-1], reconstruction_residual=recon,
                           residual_trace=checks.xa[0, :len(seq)].max(axis=1).tolist())


class DoubleSequenceReport:
    """Grid diagnostics for projecting a convergent sequence through a tower."""

    def __init__(self, p: float, grid: list, sequence_residuals: list, tower_residuals: list,
                 corner: float, corner_bound: float, corner_ok: bool, triangle_violation: float,
                 bound_monotone_ok: bool):
        self.p = p
        self.grid = grid                              # grid[n][m] = max_w ||E(x_n | M_m) - x||_p
        self.sequence_residuals = sequence_residuals  # max_w ||x_n - x||_p
        self.tower_residuals = tower_residuals        # max_w ||E(x | M_m) - x||_p
        self.corner, self.corner_bound, self.corner_ok = corner, corner_bound, corner_ok
        self.triangle_violation = triangle_violation  # max of grid - (seq + tower) bound
        self.bound_monotone_ok = bound_monotone_ok

    def to_dict(self) -> dict:
        return dict(vars(self), grid=[list(row) for row in self.grid],
                    sequence_residuals=list(self.sequence_residuals),
                    tower_residuals=list(self.tower_residuals))


def double_sequence_check(xs, x: Section, filtration: Filtration, p: float,
                          slack: float = 1e-9) -> DoubleSequenceReport:
    """Check that projections of a convergent sequence converge to its limit.

    For every sequence index n and tower level m the residual
    ``||E(x_n | M_m) - x||_p`` is bounded by the triangle estimate
    ``||x_n - x||_p + ||E(x | M_m) - x||_p``; with a full terminal level the
    corner entry must fall below that combined bound.
    """
    if not filtration.terminal_is_full:
        raise UnsupportedConfigurationError(
            "the double-sequence diagnostic needs a full terminal level"
        )
    xs = list(xs)
    if not xs:
        raise UsageError("empty sequence")
    levels = filtration.cond_exps
    k, m = len(xs), len(levels)
    residuals = lp_norms([x_n - x for x_n in xs] + [E(x) - x for E in levels]
                         + [E(x_n) - x for x_n in xs for E in levels], p).max(axis=1).tolist()
    seq_res, tower_res = residuals[:k], residuals[k:k + m]
    grid = [residuals[k + m * (n + 1):k + m * (n + 2)] for n in range(k)]
    violation = max(r - (seq_res[n] + tower_res[j])
                    for n, row in enumerate(grid) for j, r in enumerate(row))
    bound_ok = all(
        seq_res[n + 1] <= seq_res[n] + slack for n in range(len(seq_res) - 1)
    ) and all(
        tower_res[m + 1] <= tower_res[m] + slack for m in range(len(tower_res) - 1)
    )
    corner = grid[-1][-1]
    corner_bound = seq_res[-1] + tower_res[-1] + slack
    return DoubleSequenceReport(
        p=float(p),
        grid=grid,
        sequence_residuals=seq_res,
        tower_residuals=tower_res,
        corner=corner,
        corner_bound=corner_bound,
        corner_ok=corner <= corner_bound,
        triangle_violation=float(violation),
        bound_monotone_ok=bound_ok,
    )


def weighted_averages(seq: MartingaleSeq, w) -> list:
    """Normalized weighted running means ``(1/W_n) sum_{k<=n} w_k x_k``."""
    sigmas, _ = _running_means([section_stacks([x]) for x in seq.elements], w)
    return [lane_section(seq.filtration.bundle, s, 0) for s in sigmas]


def sup_norm_comparison(seq: MartingaleSeq, w, p: float, extend_by: int = 0):
    """Pointwise sup of element norms against sup of averaged norms.

    Returns ``(sup_x, sup_sigma, gap)`` as center elements with
    ``gap = sup_x - sup_sigma``.  Convexity forces ``sup_sigma <= sup_x`` up
    to roundoff on any finite range; the two sups meet only asymptotically,
    which the ``extend_by`` holding scheme emulates.  The held means lie on one
    segment, so by convexity only its far end sigma_N joins the sup.  The
    one-sequence ``martingale_checks`` with weights.
    """
    return _sup(seq, _one_sequence(seq.filtration, seq.elements, p, w=w, extend_by=extend_by))


def _sup(seq: MartingaleSeq, checks: MartingaleChecks):
    space = seq.filtration.bundle.space
    sup_x, sup_sigma = CenterElement(space, checks.sup_x[0]), CenterElement(space, checks.sup_sigma[0])
    return sup_x, sup_sigma, sup_x - sup_sigma


class CesaroReport:
    """Joint convergence verdict for a martingale and its weighted averages."""

    def __init__(self, p: float, tol: float, verdict: str, element_trace: list,
                 average_trace: list, element_trace_per_atom: np.ndarray = None,
                 average_trace_per_atom: np.ndarray = None, limit: MartingaleLimit = None,
                 sup_comparison: tuple = None):
        self.p, self.tol = p, tol
        self.verdict = verdict                # "both" | "neither" | "exactly-one"
        self.element_trace = element_trace    # max over atoms of ||x_n - y||_p
        self.average_trace = average_trace    # max over atoms of ||sigma_n - y||_p
        self.element_trace_per_atom = element_trace_per_atom  # (steps, atoms)
        self.average_trace_per_atom = average_trace_per_atom  # (steps, atoms)
        self.limit = limit                    # the verified limit y
        self.sup_comparison = sup_comparison  # sup_norm_comparison, same weights and extension

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "tol": self.tol,
            "verdict": self.verdict,
            "element_trace": list(self.element_trace),
            "average_trace": list(self.average_trace),
        }


def cesaro_equivalence(seq: MartingaleSeq, w, p: float, tol: float,
                       extend_by: int = 0) -> CesaroReport:
    """Either both the martingale and its averages converge, or neither does.

    The run is extended by holding the terminal element for ``extend_by``
    additional steps, which sends the cumulative weight to infinity (the
    hypothesis behind the averaging equivalence) while keeping the limit
    exact; per atom a held step has ``||sigma_n - y||_p = (W_K/W_n)||sigma_K - y||_p``.
    The report also holds the verified limit, its residual trace at ``p``, and
    ``sup_norm_comparison(seq, w, p, extend_by)``: all one ``martingale_checks`` of
    the one sequence.  Refuses sequences that are not martingales to tolerance.
    """
    if seq.defect > MARTINGALE_TOL:
        raise UsageError("input sequence is not a martingale to tolerance")
    checks = _one_sequence(seq.filtration, seq.elements, p, limit=True, w=w, extend_by=extend_by)
    xa, sa = checks.xa[0], checks.sa[0]
    xt = xa.max(axis=1).tolist()
    st = sa.max(axis=1).tolist()

    x_conv = xt[-1] <= tol
    s_conv = st[-1] <= tol
    verdict = "both" if (x_conv and s_conv) else ("neither" if not (x_conv or s_conv) else "exactly-one")
    return CesaroReport(
        p=float(p),
        tol=float(tol),
        verdict=verdict,
        element_trace=xt,
        average_trace=st,
        element_trace_per_atom=xa,
        average_trace_per_atom=sa,
        limit=_limit(seq, checks),
        sup_comparison=_sup(seq, checks),
    )
