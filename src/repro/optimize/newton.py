"""Newton-Raphson branch-length optimization, scalar and batched.

Branch lengths are optimized with Newton's method on the log-likelihood
(paper Section III): given the sumtable for a branch, each iteration costs
one pass over the branch's alignment patterns to form ``dlnL/dz`` and
``d2lnL/dz2`` and — in the parallel PLK — one reduction barrier.

The batched variant is newPAR's core: one Newton state machine per
partition advances in lock step, so each iteration's derivative pass covers
*all unconverged partitions at once* and the per-barrier work stays near
the full alignment width.  oldPAR runs the same solver masked to one
partition at a time (every step is elementwise per lane, so a masked lane
takes the iterates of a one-lane solve).  Partitions that converge are retired via the
convergence mask; iteration counts per partition are returned because they
drive the load-balance analysis.

Safeguards (mirroring RAxML's ``makenewz``): steps are clamped into
``[lower, upper]``; where the curvature is non-negative (not locally
concave) the update falls back to a damped gradient step; the step size is
capped per iteration to avoid overshooting.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["NewtonResult", "BatchedNewton", "newton_optimize", "TREE_SWEEPS", "tree_sweeps"]

_MAX_STEP = 2.0  # cap on |dz| per iteration, in branch-length units

#: Jacobi sweeps per tree-wide smoothing pass (``strategy="tree"``).  Two
#: sweeps end above one per-branch ``"new"`` pass on every seed measured
#: (EXPERIMENTS.md TREE).
TREE_SWEEPS = 2
#: Step halvings the full-lnL guard tries before it puts a partition's
#: pre-sweep lengths back.
GUARD_HALVINGS = 3
#: A drop the guard ignores, relative to the partition's lnL: two full
#: traversals at lengths a converged lane barely moved differ by
#: rounding alone.
GUARD_RTOL = 1e-12


@dataclass
class NewtonResult:
    """Outcome of a (batched) Newton-Raphson run.

    ``iterations[i]`` is the number of derivative evaluations lane ``i``
    consumed — the per-partition convergence count the paper's Figure 3-6
    imbalance stems from.  ``rounds`` is the number of lock-step batch
    rounds (each one parallel region + barrier).
    """

    z: np.ndarray
    iterations: np.ndarray
    rounds: int
    converged: np.ndarray


class BatchedNewton:
    """Lock-step Newton-Raphson maximization of ``k`` independent
    log-likelihood curves ``lnL_i(z_i)``.

    The derivative oracle is
    ``fn(z: (k,) array, active: (k,) bool) -> (d1: (k,), d2: (k,))``;
    inactive entries are never read.

    An ``observer`` with an ``iteration(z, active)`` method (e.g. a
    :class:`repro.obs.ConvergenceLog`) receives every lock-step round's
    points and active mask — the per-partition convergence boolean vector
    whose decay drives the paper's load-balance analysis.
    """

    def __init__(
        self,
        lower: float = 1e-8,
        upper: float = 50.0,
        ztol: float = 1e-6,
        max_iter: int = 64,
    ):
        if lower >= upper:
            raise ValueError("need lower < upper")
        self.lower = float(lower)
        self.upper = float(upper)
        self.ztol = float(ztol)
        self.max_iter = int(max_iter)

    def initial_point(self, z0: np.ndarray) -> np.ndarray:
        """The first point :meth:`run` evaluates derivatives at for this
        start — callers that fuse the opening derivative pass into a
        preceding exchange (the ``prepare_edges`` + ``deriv_edges``
        region of :func:`~repro.core.strategies.optimize_branch`) must
        evaluate exactly this point and hand the values back via
        ``first_eval``."""
        return np.clip(np.asarray(z0, dtype=np.float64), self.lower, self.upper)

    def run(
        self,
        fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
        z0: np.ndarray,
        mask: np.ndarray | None = None,
        observer=None,
        first_eval: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> NewtonResult:
        """Run the lock-step solve.

        ``first_eval``, if given, is a precomputed ``(d1, d2)`` pair for
        the first round — the oracle's value at :meth:`initial_point`
        ``(z0)`` under the full initial mask — consumed in place of the
        first ``fn`` call (command fusion: the caller already paid for it
        in an earlier exchange).  Observer callbacks and iteration counts
        are unchanged.
        """
        z = np.clip(np.asarray(z0, dtype=np.float64).copy(), self.lower, self.upper)
        k = z.shape[0]
        lanes = np.ones(k, dtype=bool) if mask is None else np.asarray(mask, bool).copy()
        active = lanes.copy()
        iterations = np.zeros(k, dtype=np.int64)
        rounds = 0
        lower, upper, ztol = self.lower, self.upper, self.ztol

        for _ in range(self.max_iter):
            if not active.any():
                break
            if first_eval is not None:
                r1, r2 = first_eval
                first_eval = None
            else:
                r1, r2 = fn(z, active)
            # Inactive entries of the oracle's answer are never read.
            d1 = np.where(active, r1, 0.0)
            d2 = np.where(active, r2, 0.0)
            if observer is not None:
                observer.iteration(z, active)
            iterations += active
            rounds += 1

            # Newton where locally concave; elsewhere damped gradient
            # ascent, sign(d1) * min(|d1|, 1) * max(|z|/4, 1e-3).
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(
                    d2 < 0.0,
                    -d1 / d2,
                    np.minimum(np.maximum(d1, -1.0), 1.0)
                    * np.maximum(0.25 * np.abs(z), 1e-3),
                )
            step = np.minimum(np.maximum(step, -_MAX_STEP), _MAX_STEP)
            z_new = np.minimum(np.maximum(z + step, lower), upper)
            moved = np.abs(z_new - z)
            z = np.where(active, z_new, z)

            # A lane converges when its actual movement drops below ztol
            # (including being pinned at a bound with the gradient pointing
            # outward) or its gradient vanishes.
            active &= ~((moved < ztol) | (np.abs(d1) < 1e-10))

        converged = lanes & ~active
        return NewtonResult(z=z, iterations=iterations, rounds=rounds, converged=converged)


def newton_optimize(
    fn: Callable[[float], tuple[float, float]],
    z0: float,
    lower: float = 1e-8,
    upper: float = 50.0,
    ztol: float = 1e-6,
    max_iter: int = 64,
) -> tuple[float, int, bool]:
    """Scalar Newton-Raphson maximization: :class:`BatchedNewton` on one
    lane.  It drives the shared-length walk of
    :func:`~repro.core.strategies.optimize_branch` (joint and proportional
    modes: one lane of summed derivatives); the per-partition walks of
    oldPAR and newPAR run :class:`BatchedNewton` over a ``(P,)`` mask.

    Returns ``(z, n_iterations, converged)``.
    """
    solver = BatchedNewton(lower, upper, ztol, max_iter)

    def vec_fn(z: np.ndarray, active: np.ndarray):
        d1, d2 = fn(float(z[0]))
        return np.array([d1]), np.array([d2])

    res = solver.run(vec_fn, np.array([z0]))
    return float(res.z[0]), int(res.iterations[0]), bool(res.converged[0])


def tree_sweeps(
    z: np.ndarray,
    opening: Callable,
    deriv: Callable,
    solver: BatchedNewton,
    telemetry,
) -> tuple[np.ndarray, np.ndarray]:
    """One tree-wide smoothing pass: :data:`TREE_SWEEPS` Jacobi sweeps
    over the ``(E, P)`` lengths ``z`` of E edges in P partitions, every
    length fixed during a sweep.  Returns the final lengths and the
    per-partition Newton iteration counts.

    The engine side comes as two callbacks, each one parallel region:

    * ``opening(z, write, live, z_first) -> (lnl, first)`` writes the
      ``z`` columns of the ``(P,)`` mask ``write`` (None: nothing),
      returns the full lnL of the ``live`` partitions and — unless
      ``z_first`` is None (the closing guard) — prepares every edge for
      them and returns the first derivative round at ``z_first``;
    * ``deriv(z, active) -> (d1, d2)`` is one further round over the
      lanes of the ``(E, P)`` mask ``active``.

    A sweep's lnL guard is the opening of the next one (or the closing
    region), so its prepare is speculative.  Where a live partition's
    lnL fell below its pre-sweep value its step is halved — up to
    :data:`GUARD_HALVINGS` times, then its pre-sweep lengths come back
    and it sits out the rest of the pass (a repeated sweep from the same
    lengths would take the same step) — and the opening is repeated.
    Each repeat is one round of a ``tree_guard`` telemetry log, so a pass
    costs (Newton rounds) + 1 + (guard rounds) regions."""
    n_edges, n_parts = z.shape
    live = np.ones(n_parts, dtype=bool)
    write = None
    counts = np.zeros(n_parts, dtype=np.int64)
    baseline = start = None
    for sweep in range(TREE_SWEEPS + 1):
        closing = sweep == TREE_SWEEPS
        lnl, first = opening(z, write, live, None if closing else solver.initial_point(z))
        if baseline is not None:
            tries = np.zeros(n_parts, dtype=np.int64)
            log = None
            floor = baseline - GUARD_RTOL * np.abs(baseline)
            while (dropped := live & (lnl < floor)).any():
                if log is None and telemetry.enabled:
                    log = telemetry.start("tree_guard", n_parts)
                if log is not None:
                    log.iteration(lnl, dropped)
                halve = dropped & (tries < GUARD_HALVINGS)
                z = np.where(halve, 0.5 * (start + z), np.where(dropped, start, z))
                tries += halve
                live = live & ~(dropped & ~halve)
                lnl, first = opening(
                    z, dropped, live, None if closing else solver.initial_point(z)
                )
        if closing:
            break
        baseline, start = lnl, z
        res = solver.run(
            lambda zz, active: tuple(d.ravel() for d in deriv(
                zz.reshape(n_edges, n_parts), active.reshape(n_edges, n_parts))),
            z.ravel(), mask=np.broadcast_to(live, z.shape).ravel(),
            observer=telemetry.start("nr_tree", n_edges * n_parts),
            first_eval=(first[0].ravel(), first[1].ravel()),
        )
        z = res.z.reshape(n_edges, n_parts)
        counts += res.iterations.reshape(n_edges, n_parts).sum(axis=0)
        write = live.copy()
    return z, counts
