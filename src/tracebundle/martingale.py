"""Filtrations, martingales, and their convergence diagnostics.

A filtration is a nested tower of validated subalgebras on one bundle: each
level's orthonormal basis extends the one below, bit for bit, so the inclusions
and the composition law ``E_m E_n = E_min(m,n)`` hold by construction.  Towers
are finite; the infinite-index regime of the averaging statements is emulated
by holding the terminal element fixed for extra steps, which drives the
cumulative weight to infinity while every limit stays exact.  Held steps are
kept in closed form, as their ratios ``W_K/W_n``: the tail costs O(1) norm
evaluations, no Python runs once per held step, and peak memory does not depend
on its length; its per-step traces are formed a slice at a time, on demand
(``step_residuals``), so ``traces.csv`` is the only output that grows with it.
Many sequences are checked at once, held as block stacks (``martingale_checks``).
"""

from __future__ import annotations

import numpy as np

from .bundle import BundleSpec
from .condexp import ConditionalExpectation, SubalgebraBasis, _project, validate_subalgebra
from .errors import (
    InconsistencyError,
    ShapeMismatchError,
    UnsupportedConfigurationError,
    UsageError,
)
from .tracelp import _exponent, shared_lp_norms

MARTINGALE_TOL = 1e-9           # defining property of a martingale sequence


class Filtration:
    """Nested tower of subalgebras with their conditional expectations, all derived from the
    levels.  The constructor checks the nesting exactly: all levels share one bundle, and at every
    atom a level's ``ortho`` columns begin with those of the level below.  With orthonormal
    columns (``validate_subalgebra`` bounds their Gram drift) the inclusions and the composition
    law ``E_m E_n = E_min(m,n)`` follow, with no tolerance."""

    __slots__ = ("tower", "cond_exps")

    def __init__(self, tower):
        self.tower = list(tower)
        if not self.tower:
            raise UsageError("a filtration needs at least one level")
        for k, (low, up) in enumerate(zip(self.tower, self.tower[1:]), start=1):
            if up.bundle is not low.bundle and up.bundle != low.bundle:
                raise ShapeMismatchError(
                    f"tower level {k} lives on a different bundle than level {k - 1}"
                )
            for label, low_proj, up_proj in zip(low.bundle.space.labels, low.projectors,
                                                up.projectors):
                if not np.array_equal(up_proj.ortho[:, :low_proj.rank], low_proj.ortho):
                    raise InconsistencyError(
                        f"tower level {k} does not extend level {k - 1} at {label!r}"
                    )
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
        closure residual follows) at those atoms, and the sub-tower is nested as this one is.
        """
        sub = self.bundle.restrict(labels)
        idx = [self.bundle.space.index_of(l) for l in sub.space.labels]
        return Filtration([SubalgebraBasis(sub, [level.generators[i] for i in idx],
                                           [level.projectors[i] for i in idx])
                           for level in self.tower])


def build_filtration(bundle: BundleSpec, level_generator_lists) -> Filtration:
    """Validate a tower from per-level, per-atom generator lists.

    Each level is validated on top of the one below (``validate_subalgebra`` from
    the lower basis), so it contains the lower generators, tries only its own, and
    extends the lower basis: the tower is nested by construction.
    """
    tower, below = [], bundle
    for gens in level_generator_lists:
        below = validate_subalgebra(below, gens)
        tower.append(below)
    return Filtration(tower)


class MartingaleChecks:
    """Per-lane results of ``martingale_checks``; a part it was not asked for is None."""

    def __init__(self, defect, recon=None, xa=None, sa=None, sup_x=None, sup_sigma=None,
                 terminal=None, pythagoras=None, held=None):
        self.defect = defect          # (S,) worst L1 norm of E_n(x_{n+1}) - x_n
        self.recon = recon            # (S,) worst L1 norm of E_n(y) - x_n, y the last step
        self.xa = xa                  # (S, K, atoms) ||x_n - y||_p over the K tower steps
        self.sa = sa                  # (S, K, atoms) ||sigma_n - y||_p over the K tower steps
        self.held = held              # (extension,) W_K/W_n of the held steps n > K
        self.sup_x = sup_x            # (S, atoms) max over n of ||x_n||_p
        self.sup_sigma = sup_sigma    # (S, atoms) the same over the means and the held end
        self.terminal = terminal      # (S,) max over atoms of ||y - x||_p, x the target
        self.pythagoras = pythagoras  # (S,) worst |(||x||^2 - ||x_n||^2 - ||x - x_n||^2)|, p = 2


def martingale_checks(filtration: Filtration, xs, p: float = 2.0, limit: bool = False,
                      w=None, extend_by: int = 0, target=None) -> MartingaleChecks:
    """Martingale diagnostics of S sequences at once, step n held as ``xs[n]``, one
    ``(S, n, n)`` stack per block (``section_stacks``).

    Always the defect.  With ``limit`` (a full tower, one step per level) the reconstruction
    residual and the traces toward the last step y; with weights ``w`` the running means,
    their traces, the ratios of the ``extend_by`` held steps and the sup comparison (the
    held steps' traces follow from these, ``step_residuals``); with the ``target`` x
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
        out.xa = lp[:k].transpose(1, 0, 2)
    if w is not None:
        out.sa, out.held = lp[k:2 * k].transpose(1, 0, 2), ratios
        out.sup_x, out.sup_sigma = lp[2 * k:3 * k].max(axis=0), lp[3 * k:4 * k + len(held)].max(axis=0)
    if target is not None:
        sq = l2 ** 2
        out.terminal = lp[-1].max(axis=1)
        out.pythagoras = np.abs(sq[0] - sq[1:k + 1] - sq[k + 1:]).max(axis=(0, 2))
    return out


def step_residuals(xa, sa, held, start: int = 0, stop: int = None):
    """Steps ``start`` to ``stop - 1`` (all by default) of the traces ``||x_n - y||_p`` and
    ``||sigma_n - y||_p``, from those of the K tower steps (``xa``, ``sa``, steps on axis -2)
    and the held ratios ``W_K/W_n``: a held step's element residual is 0.0 and its mean
    residual ``(W_K/W_n) ||sigma_K - y||_p``, one multiply per entry."""
    k = xa.shape[-2]
    tail = held[max(start - k, 0):None if stop is None else max(stop - k, 0), None] * sa[..., -1:, :]
    return (np.concatenate((xa[..., start:stop, :], np.zeros_like(tail)), axis=-2),
            np.concatenate((sa[..., start:stop, :], tail), axis=-2))


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


def __getattr__(name):  # the names that moved to ``views``, which loads on first use
    if name in ("cesaro_equivalence", "CesaroReport", "double_sequence_check",
                "DoubleSequenceReport", "_limit", "martingale_defect", "martingale_from_target",
                "martingale_limit", "MartingaleLimit", "MartingaleSeq", "_one_sequence", "_sup",
                "sup_norm_comparison", "weighted_averages"):
        from . import views
        return getattr(views, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
