"""Brent's method, scalar and batched (lock-step multi-partition).

"Classic" ML programs optimize the Q-matrix rates and the Gamma shape
parameter with Brent's derivative-free 1-D minimizer (paper Section III).
The paper's newPAR redesign requires running *one Brent state machine per
partition in lock step*: every iteration proposes one trial point per
still-active partition and evaluates all of them in a single batched
objective call (which, in the parallel PLK, is one full-tree traversal over
the union of active partitions — the big, well-balanced parallel region).
Partitions converge after different iteration counts; a boolean mask
retires them from the batch exactly as the paper's "appropriate boolean
vector" does.

The algorithm is the classical bounded Brent minimizer (golden-section
fallback + parabolic interpolation, Brent 1973 / FMIN), vectorized over
lanes with numpy.  ``BatchedBrent`` exposes the state machine; the
:func:`brent_minimize` convenience wrapper handles the scalar case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["BatchedBrent", "BrentResult", "brent_minimize"]

_GOLD = 0.5 * (3.0 - np.sqrt(5.0))  # golden-section fraction
_SQRT_EPS = np.sqrt(np.finfo(np.float64).eps)


@dataclass
class BrentResult:
    """Outcome of a (batched) Brent minimization.

    Attributes
    ----------
    x:
        ``(k,)`` argmin estimates.
    fx:
        ``(k,)`` objective values at ``x``.
    iterations:
        ``(k,)`` number of objective evaluations each lane consumed before
        converging — the quantity whose per-partition variance causes the
        paper's load imbalance.
    rounds:
        Number of lock-step batch rounds executed (== max(iterations) for a
        fresh batch); each round is one parallel region in the PLK.
    converged:
        ``(k,)`` bool; False only if ``max_iter`` was exhausted.
    """

    x: np.ndarray
    fx: np.ndarray
    iterations: np.ndarray
    rounds: int
    converged: np.ndarray


class BatchedBrent:
    """Lock-step Brent minimization of ``k`` independent 1-D functions.

    Parameters
    ----------
    lower, upper:
        ``(k,)`` (or scalar) bounds per lane.
    xtol:
        Absolute convergence tolerance on x.
    max_iter:
        Per-lane iteration cap.

    The objective is supplied to :meth:`run` as
    ``fn(x: (k,) float array, active: (k,) bool array) -> (k,) float``;
    entries where ``active`` is False are never read.  Lanes may also be
    excluded from the whole run via the ``mask`` argument: oldPAR runs one
    partition at a time as a solve masked to that one lane.  Every step is
    elementwise per lane (the only cross-lane step is the ``active.any()``
    stopping test), so a lane's iterates do not depend on the others.

    An ``observer`` with an ``iteration(x, active)`` method (e.g. a
    :class:`repro.obs.ConvergenceLog`) receives every lock-step round's
    trial points and active mask — the paper's per-partition convergence
    boolean vector, recorded as it evolves.
    """

    def __init__(
        self,
        lower: np.ndarray | float,
        upper: np.ndarray | float,
        xtol: float = 1e-4,
        max_iter: int = 100,
    ):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bounds shape mismatch")
        if np.any(self.lower >= self.upper):
            raise ValueError("need lower < upper in every lane")
        self.xtol = float(xtol)
        self.max_iter = int(max_iter)

    def initial_point(self, guess: np.ndarray | None = None) -> np.ndarray:
        """The first probe point :meth:`run` evaluates for this guess —
        callers that fuse the opening objective evaluation into a
        preceding exchange (command fusion) must evaluate exactly this
        point and hand the values back via ``first_fx``."""
        a, b = self.lower, self.upper
        if guess is None:
            return a + _GOLD * (b - a)
        g = np.atleast_1d(np.asarray(guess, dtype=np.float64))
        pad = self.xtol + _SQRT_EPS * np.abs(g)
        # A bracket narrower than 2*pad would make the clip bounds
        # cross (np.clip with min > max returns max, i.e. x > b);
        # cap the pad at half the bracket width so a+pad <= b-pad.
        pad = np.minimum(pad, 0.5 * (b - a))
        return np.clip(g, a + pad, b - pad)

    def run(
        self,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        guess: np.ndarray | None = None,
        mask: np.ndarray | None = None,
        observer=None,
        first_fx: np.ndarray | None = None,
    ) -> BrentResult:
        """Run the lock-step solve.

        ``first_fx``, if given, is the precomputed objective at
        :meth:`initial_point` ``(guess)`` under the full initial mask,
        consumed in place of the first ``fn`` call (command fusion).
        Observer callbacks and iteration counts are unchanged.
        """
        k = self.lower.shape[0]
        a = self.lower.copy()
        b = self.upper.copy()
        lanes = np.ones(k, dtype=bool) if mask is None else np.asarray(mask, bool).copy()

        # Initial point: caller's guess clipped inside, else golden split.
        x = self.initial_point(guess)
        fx = np.full(k, np.inf)
        if first_fx is not None:
            fx[lanes] = np.asarray(first_fx, dtype=np.float64)[lanes]
        else:
            fx[lanes] = np.asarray(fn(x, lanes), dtype=np.float64)[lanes]
        if observer is not None:
            observer.iteration(x, lanes)

        w = x.copy()
        v = x.copy()
        fw = fx.copy()
        fv = fx.copy()
        d = np.zeros(k)
        e = np.zeros(k)
        iterations = np.zeros(k, dtype=np.int64)
        iterations[lanes] = 1
        active = lanes.copy()
        rounds = 1

        for _ in range(self.max_iter):
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(x) + self.xtol / 3.0
            tol2 = 2.0 * tol1
            done = np.abs(x - xm) <= tol2 - 0.5 * (b - a)
            active &= ~done
            if not active.any():
                break

            # --- propose one trial point per active lane -----------------
            # Parabolic interpolation through (v, w, x); golden fallback.
            # (Lanes excluded by the mask carry inf objective values; their
            # proposals are computed but never used, so NaNs are harmless.)
            # ``e`` and ``d`` are rebound below, never written in place.
            with np.errstate(divide="ignore", invalid="ignore"):
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                p = np.where(q > 0.0, -p, p)
                q = np.abs(q)
                use_para = (
                    (np.abs(e) > tol1)
                    & (np.abs(p) < np.abs(0.5 * q * e))
                    & (p > q * (a - x))
                    & (p < q * (b - x))
                    & (q != 0.0)
                )
                d_para = np.where(q != 0.0, p / q, 0.0)
            u_para = x + d_para
            # Parabolic step must not land within tol2 of a bound.
            d_para = np.where(
                (u_para - a < tol2) | (b - u_para < tol2),
                np.where(xm - x >= 0.0, tol1, -tol1),
                d_para,
            )
            # Golden-section step.
            e_gold = np.where(x >= xm, a - x, b - x)
            d_gold = _GOLD * e_gold
            e = np.where(use_para, d, e_gold)
            d = np.where(use_para, d_para, d_gold)
            # Never step less than tol1.
            step = np.where(np.abs(d) >= tol1, d, np.where(d >= 0.0, tol1, -tol1))
            u = x + step

            fu = np.where(active, np.asarray(fn(u, active), dtype=np.float64), np.inf)
            if observer is not None:
                observer.iteration(u, active)
            iterations += active
            rounds += 1

            # --- bookkeeping (vectorized NR updates, active lanes only) --
            better = fu <= fx
            upd = active & better
            # shrink the bracket around the new best point
            a = np.where(upd & (u >= x), x, a)
            b = np.where(upd & (u < x), x, b)
            v = np.where(upd, w, v)
            fv = np.where(upd, fw, fv)
            w = np.where(upd, x, w)
            fw = np.where(upd, fx, fw)
            x = np.where(upd, u, x)
            fx = np.where(upd, fu, fx)

            worse = active & ~better
            a = np.where(worse & (u < x), u, a)
            b = np.where(worse & (u >= x), u, b)
            repl_w = worse & ((fu <= fw) | (w == x))
            v = np.where(repl_w, w, v)
            fv = np.where(repl_w, fw, fv)
            w = np.where(repl_w, u, w)
            fw = np.where(repl_w, fu, fw)
            repl_v = worse & ~repl_w & ((fu <= fv) | (v == x) | (v == w))
            v = np.where(repl_v, u, v)
            fv = np.where(repl_v, fu, fv)

        converged = lanes & ~active
        return BrentResult(
            x=x, fx=fx, iterations=iterations, rounds=rounds, converged=converged
        )


def brent_minimize(
    fn: Callable[[float], float],
    lower: float,
    upper: float,
    guess: float | None = None,
    xtol: float = 1e-4,
    max_iter: int = 100,
) -> tuple[float, float, int]:
    """Scalar bounded Brent minimization.

    Returns ``(x, f(x), n_evaluations)``: a convenience wrapper running
    :class:`BatchedBrent` on one lane.  oldPAR does not come through here;
    it runs each partition as a P-lane :class:`BatchedBrent` solve masked
    to that partition (:func:`repro.core.strategies._brent`), which takes
    bitwise the same iterates.
    """
    solver = BatchedBrent(np.array([lower]), np.array([upper]), xtol, max_iter)

    def vec_fn(x: np.ndarray, active: np.ndarray) -> np.ndarray:
        return np.array([fn(float(x[0]))])

    res = solver.run(vec_fn, None if guess is None else np.array([guess]))
    return float(res.x[0]), float(res.fx[0]), int(res.iterations[0])
