"""oldPAR vs newPAR: the paper's contribution (Section IV).

Both strategies perform the *same* numerical work — Brent on the Q-matrix
rates and the Gamma shape per partition, Newton-Raphson on every branch —
and converge to the same optima (a property our tests assert).  They
differ only in how the iterative work is grouped into parallel regions:

* **oldPAR** (the "original, relatively straight-forward approach")
  optimizes *one partition at a time*.  Every optimizer iteration issues a
  command that touches only the active partition's ``m'_p`` patterns, so
  with T threads each worker gets ``~m'_p / T`` patterns of work per
  barrier — possibly zero when ``m'_p < T`` (the SGI Altix worst case the
  paper describes).

* **newPAR** (the paper's redesign) runs one optimizer state machine per
  partition *in lock step*: each iteration issues a single command over
  the union of all still-unconverged partitions, tracking convergence in
  a boolean vector.  Per-barrier work stays near the full alignment width
  ``m'`` for as long as any partition is active.

Joint-branch-length mode: every Newton iteration naturally spans all
partitions (the derivative is a sum over partitions), so the strategies
only differ in the model-parameter (Brent) phase — which is why the paper
measures only ~5% improvement there.

Branch-length smoothing has a third schedule, ``"tree"``, which carries
newPAR's idea from the partition axis to the *branch* axis: a Jacobi
sweep prepares every listed edge at once and runs one Newton solve over
all ``(edge, partition)`` lanes, so a round is one region whatever the
number of edges (see :func:`optimize_branch_lengths`).
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..obs.metrics import ITERATION_BUCKETS
from ..optimize.brent import BatchedBrent
from ..optimize.newton import TREE_SWEEPS, BatchedNewton, newton_optimize, tree_sweeps
from .engine import PartitionedEngine

__all__ = [
    "STRATEGIES",
    "BRANCH_STRATEGIES",
    "TREE_SWEEPS",
    "optimize_branch",
    "optimize_branch_lengths",
    "optimize_alpha",
    "optimize_rates",
    "optimize_frequencies",
    "optimize_model",
    "optimize_pinv",
    "optimize_scalers",
    "smoothing_edge_order",
]

STRATEGIES = ("old", "new")
#: The branch-length smoothing schedules: the two per-branch walks and
#: the tree-wide Jacobi sweep.
BRANCH_STRATEGIES = STRATEGIES + ("tree",)

#: Optimizer bounds, mirroring RAxML's compile-time limits.
ALPHA_MIN, ALPHA_MAX = 0.02, 100.0
RATE_MIN, RATE_MAX = 1e-3, 100.0
BRANCH_MIN, BRANCH_MAX = 1e-8, 50.0


def _check_strategy(strategy: str, allowed: tuple = STRATEGIES) -> None:
    if strategy not in allowed:
        raise ValueError(f"strategy must be one of {allowed}, got {strategy!r}")


@contextmanager
def _region(engine: PartitionedEngine, label: str):
    """Bracket one parallel region: recorded for the simulator and — when
    a tracer is attached — timestamped as one span (each batched optimizer
    iteration evaluates through exactly one region, so these spans ARE the
    per-iteration timeline)."""
    engine.recorder.begin_region(label)
    try:
        if engine.tracer.enabled:
            with engine.tracer.span(label, cat="region"):
                yield
        else:
            yield
    finally:
        engine.recorder.end_region()


def _observe_iterations(engine: PartitionedEngine, name: str, iterations) -> None:
    """Publish a batched optimizer's per-partition iteration counts."""
    if engine.metrics.enabled:
        hist = engine.metrics.histogram(f"iterations.{name}", bounds=ITERATION_BUCKETS)
        for count in np.asarray(iterations, dtype=np.int64).ravel():
            hist.observe(float(count))
        engine.metrics.counter(f"optimizer_calls.{name}").inc()


def smoothing_edge_order(tree) -> list[int]:
    """Edges in depth-first visit order, so consecutive branch
    optimizations re-root the likelihood arrays at *adjacent* branches and
    each move costs O(1) newviews (RAxML's smoothTree walk)."""
    order: list[int] = []
    seen: set[int] = set()
    start = tree.n_taxa  # an inner node
    stack = [(start, -1)]
    while stack:
        node, parent = stack.pop()
        for nb in tree.neighbors(node):
            if nb == parent:
                continue
            eid = tree.edge_between(node, nb)
            if eid not in seen:
                seen.add(eid)
                order.append(eid)
            if not tree.is_leaf(nb):
                stack.append((nb, node))
    return order


# ----------------------------------------------------------------------
# Branch lengths (Newton-Raphson)
# ----------------------------------------------------------------------

def _only(n_parts: int, p: int) -> np.ndarray:
    """The one-partition active set of oldPAR."""
    mask = np.zeros(n_parts, dtype=bool)
    mask[p] = True
    return mask


def optimize_branch(
    engine: PartitionedEngine,
    edge: int,
    strategy: str = "new",
    ztol: float = 1e-6,
    max_iter: int = 64,
) -> np.ndarray:
    """Optimize one branch; returns the per-partition iteration counts
    (useful for load-balance diagnostics)."""
    _check_strategy(strategy)
    n_parts = engine.n_partitions
    z0 = engine.branch_lengths()[edge]  # (P,)

    if engine.branch_mode == "proportional":
        # Newton-Raphson on the SHARED length b; partition p evaluates at
        # s_p * b, contributing a chain-rule factor s_p (s_p^2 for the
        # curvature).  Like joint mode, every iteration spans all
        # partitions, so the strategies produce the same schedule.
        workspaces = engine.prepare_branch_all(edge)
        scalers = engine.scalers

        def prop_fn(b: float) -> tuple[float, float]:
            with _region(engine, "nr_proportional"):
                g1, g2 = _branch_derivatives(engine, workspaces, scalers * b)
            return sum((scalers * g1).tolist()), sum((scalers * scalers * g2).tolist())

        b0 = float(engine.global_lengths[edge])
        b, iters, _ = newton_optimize(
            prop_fn, b0, BRANCH_MIN, BRANCH_MAX, ztol, max_iter
        )
        with _region(engine, "nr_proportional"):
            old_lnl = sum(_branch_loglikelihoods(engine, workspaces, scalers * b0).tolist())
            new_lnl = sum(_branch_loglikelihoods(engine, workspaces, scalers * b).tolist())
        if new_lnl >= old_lnl:
            engine.set_branch_length(edge, b)
        return np.full(n_parts, iters, dtype=np.int64)

    if engine.branch_mode == "joint":
        workspaces = engine.prepare_branch_all(edge)

        def joint_fn(z: float) -> tuple[float, float]:
            with _region(engine, "nr_joint"):
                d1, d2 = _branch_derivatives(engine, workspaces, np.full(n_parts, z))
            return float(sum(d1.tolist())), float(sum(d2.tolist()))

        z, iters, _ = newton_optimize(
            joint_fn, float(z0[0]), BRANCH_MIN, BRANCH_MAX, ztol, max_iter
        )
        # Monotonicity guard: Newton-Raphson can overshoot; keep the new
        # length only if it does not lower the likelihood (one extra
        # evaluation pass, as RAxML's makenewz performs).
        with _region(engine, "nr_joint"):
            old_lnl = sum(
                _branch_loglikelihoods(engine, workspaces, np.full(n_parts, z0[0])).tolist()
            )
            new_lnl = sum(
                _branch_loglikelihoods(engine, workspaces, np.full(n_parts, z)).tolist()
            )
        if new_lnl >= old_lnl:
            engine.set_branch_length(edge, z)
        return np.full(n_parts, iters, dtype=np.int64)

    if strategy == "new":
        solver = BatchedNewton(BRANCH_MIN, BRANCH_MAX, ztol, max_iter)
        # Fused opening region (the worker team's prepare+deriv
        # Program): sumtable setup and the first derivative pass share
        # ONE region — one broadcast/barrier instead of two.  The
        # simulator charges dispatch + barrier once per region, so the
        # fusion shows up directly in predicted sync seconds.
        z_first = solver.initial_point(z0)
        with _region(engine, "nr_new"):
            workspaces = engine.prepare_edges([edge])
            first = _branch_derivatives(engine, workspaces, z_first)

        def batched_fn(z: np.ndarray, active: np.ndarray):
            with _region(engine, "nr_new"):
                return _branch_derivatives(engine, workspaces, z, active)

        res = solver.run(
            batched_fn, z0, observer=engine.telemetry.start("nr_branch", n_parts),
            first_eval=first,
        )
        # Monotonicity guard (one batched evaluation region): keep each
        # partition's new length only where the likelihood improved.
        with _region(engine, "nr_new"):
            improved = _branch_loglikelihoods(engine, workspaces, res.z) >= (
                _branch_loglikelihoods(engine, workspaces, z0)
            )
            engine.set_edge_lengths(edge, res.z, improved)
        _observe_iterations(engine, "nr_branch", res.iterations)
        return res.iterations

    # oldPAR: one partition at a time — the same calls with a
    # one-partition active set, so every NR iteration is a command whose
    # only work is this partition's m'_p patterns.
    counts = np.zeros(n_parts, dtype=np.int64)
    for p in range(n_parts):
        only = _only(n_parts, p)
        workspaces = engine.prepare_branch_one(edge, p)

        def scalar_fn(z: float, _p: int = p, _only=only, _ws=workspaces) -> tuple[float, float]:
            with _region(engine, "nr_old"):
                d1, d2 = _branch_derivatives(engine, _ws, np.full(n_parts, z), _only)
            return float(d1[_p]), float(d2[_p])

        z, iters, _ = newton_optimize(
            scalar_fn, float(z0[p]), BRANCH_MIN, BRANCH_MAX, ztol, max_iter
        )
        trial = np.full(n_parts, z)
        with _region(engine, "nr_old"):
            accept = _branch_loglikelihoods(engine, workspaces, trial, only)[p] >= (
                _branch_loglikelihoods(engine, workspaces, z0, only)[p]
            )
        if accept:
            engine.set_edge_lengths(edge, trial, only)
        counts[p] = iters
    return counts


def _branch_derivatives(engine: PartitionedEngine, workspaces, z: np.ndarray, active=None):
    """``(d1, d2)``, each ``(P,)``, at the ``(P,)`` lengths ``z`` of the
    edge of the one-edge ``workspaces``, for the partitions of the
    ``(P,)`` mask ``active`` (default: every prepared one)."""
    lanes = None if active is None else active[np.newaxis]
    d1, d2 = engine.edge_derivatives(workspaces, z[np.newaxis], lanes)
    return d1[0], d2[0]


def _branch_loglikelihoods(
    engine: PartitionedEngine, workspaces, z: np.ndarray, active=None
) -> np.ndarray:
    """``(P,)`` log-likelihoods at the lengths ``z`` of the edge of the
    one-edge ``workspaces`` (the Newton monotonicity guard)."""
    lanes = None if active is None else active[np.newaxis]
    return engine.edge_loglikelihoods(workspaces, z[np.newaxis], lanes)[0]


def optimize_branch_lengths(
    engine: PartitionedEngine,
    strategy: str = "tree",
    passes: int = 2,
    ztol: float = 1e-6,
    edges: list[int] | None = None,
) -> np.ndarray:
    """Branch-length smoothing: ``passes`` passes over every branch (or
    the given subset).  Returns the summed per-partition Newton iteration
    counts.

    ``"old"`` and ``"new"`` walk the edges one at a time
    (:func:`optimize_branch`).  ``"tree"`` runs each pass as
    :data:`TREE_SWEEPS` Jacobi sweeps over all listed edges at once
    (:func:`_tree_pass`); with lengths shared across partitions (joint
    and proportional modes) a Newton round already spans every partition
    and ``"tree"`` walks the edges as ``"new"`` does."""
    _check_strategy(strategy, BRANCH_STRATEGIES)
    order = smoothing_edge_order(engine.tree) if edges is None else list(edges)
    totals = np.zeros(engine.n_partitions, dtype=np.int64)
    tree_wide = strategy == "tree" and engine.branch_mode == "per_partition"
    per_branch = "new" if strategy == "tree" else strategy
    for _ in range(max(passes, 1)):
        if tree_wide:
            totals += _tree_pass(engine, order, ztol)
            continue
        for edge in order:
            totals += optimize_branch(engine, edge, per_branch, ztol)
    return totals


def _tree_pass(engine: PartitionedEngine, order: list[int], ztol: float) -> np.ndarray:
    """One ``"tree"`` pass (:func:`~repro.optimize.newton.tree_sweeps`)
    over the edges of ``order``, every region labelled ``nr_tree``.

    The regions are the worker team's programs: a sweep's opening region
    writes the previous sweep's lengths, computes every live partition's
    full lnL (that sweep's guard, on the walk's first edge as root, so
    the prepare walk starts from the oriented CLVs), prepares all edges
    and runs the first derivative round.  Returns the per-partition
    Newton iteration counts."""
    root = order[0]
    workspaces: list = []

    def opening(z, write, live, z_first):
        with _region(engine, "nr_tree"):
            if write is not None:
                engine.set_edges_lengths(order, z, write)
            lnl = engine.loglikelihoods(root, live)
            if z_first is None:
                return lnl, None
            workspaces.clear()  # the last sweep's tables go before the new ones
            workspaces.extend(engine.prepare_edges(order, live))
            return lnl, engine.edge_derivatives(
                workspaces, z_first, np.broadcast_to(live, z.shape)
            )

    def deriv(z, active):
        with _region(engine, "nr_tree"):
            return engine.edge_derivatives(workspaces, z, active)

    _, counts = tree_sweeps(
        engine.branch_lengths()[order], opening, deriv,
        BatchedNewton(BRANCH_MIN, BRANCH_MAX, ztol), engine.telemetry,
    )
    _observe_iterations(engine, "nr_tree", counts)
    return counts


# ----------------------------------------------------------------------
# Model parameters (Brent)
# ----------------------------------------------------------------------

def optimize_alpha(
    engine: PartitionedEngine,
    strategy: str = "new",
    xtol: float = 1e-3,
    max_iter: int = 32,
    root_edge: int = 0,
) -> np.ndarray:
    """Optimize each partition's Gamma shape parameter with Brent.

    Each objective evaluation requires a *full tree traversal* of the
    partition (changing alpha invalidates every likelihood array), which
    is why the paper finds the imbalance less severe here (5-10%): there
    is much more work per column between barriers.
    """
    _check_strategy(strategy)
    current = engine.alphas()

    if strategy == "new":
        return _new_brent(
            engine, "brent_alpha_new", "brent_alpha", engine.set_alphas, current,
            ALPHA_MIN, ALPHA_MAX, xtol, max_iter, root_edge,
        )
    return _old_brent(
        engine, "brent_alpha_old", engine.set_alphas, current,
        ALPHA_MIN, ALPHA_MAX, xtol, max_iter, root_edge,
    )


def _new_brent(
    engine: PartitionedEngine,
    label: str,
    name: str,
    setter,
    current: np.ndarray,
    lo: float,
    hi: float,
    xtol: float,
    max_iter: int,
    root_edge: int,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """newPAR Brent: one lock-step solve over every (eligible) partition,
    each objective evaluation one region ``label`` over the still-active
    partitions; the telemetry and metrics see it as ``name``.
    ``setter(values, active)`` applies a ``(P,)`` parameter vector.
    Returns the per-partition iteration counts (0 where not eligible)."""
    n_parts = engine.n_partitions
    solver = BatchedBrent(np.full(n_parts, lo), np.full(n_parts, hi), xtol, max_iter)

    def batched_fn(x: np.ndarray, active: np.ndarray) -> np.ndarray:
        with _region(engine, label):
            setter(x, active)
            return -engine.loglikelihoods(root_edge, active)

    res = solver.run(
        batched_fn, guess=current, mask=eligible,
        observer=engine.telemetry.start(name, n_parts),
    )
    setter(res.x, eligible)
    if eligible is None:
        _observe_iterations(engine, name, res.iterations)
        return res.iterations
    _observe_iterations(engine, name, res.iterations[eligible])
    return np.where(eligible, res.iterations, 0)


def _old_brent(
    engine: PartitionedEngine,
    label: str,
    setter,
    current: np.ndarray,
    lo: float,
    hi: float,
    xtol: float,
    max_iter: int,
    root_edge: int,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """oldPAR Brent: one scalar optimization per (eligible) partition,
    each objective evaluation one region over a one-partition active set.
    ``setter(values, active)`` applies a ``(P,)`` parameter vector."""
    n_parts = engine.n_partitions
    counts = np.zeros(n_parts, dtype=np.int64)
    todo = range(n_parts) if eligible is None else np.flatnonzero(eligible).tolist()
    for p in todo:
        only = _only(n_parts, p)

        def scalar_fn(x: np.ndarray, active: np.ndarray, _p: int = p, _only=only) -> np.ndarray:
            with _region(engine, label):
                setter(np.full(n_parts, x[0]), _only)
                return -engine.loglikelihoods(root_edge, _only)[_p : _p + 1]

        solver = BatchedBrent(np.array([lo]), np.array([hi]), xtol, max_iter)
        res = solver.run(scalar_fn, guess=np.array([current[p]]))
        setter(np.full(n_parts, res.x[0]), only)
        counts[p] = res.iterations[0]
    return counts


def optimize_rates(
    engine: PartitionedEngine,
    strategy: str = "new",
    xtol: float = 1e-3,
    max_iter: int = 32,
    root_edge: int = 0,
) -> np.ndarray:
    """Optimize the free Q-matrix exchangeabilities, one rate index at a
    time across partitions (RAxML's scheme: the last rate is the fixed
    reference).

    Only DNA partitions are optimized — empirical protein exchangeabilities
    are fixed, exactly as in RAxML.  Returns total Brent iteration counts
    per partition.
    """
    _check_strategy(strategy)
    n_parts = engine.n_partitions
    dna = engine.states() == 4
    counts = np.zeros(n_parts, dtype=np.int64)
    if not dna.any():
        return counts
    n_free = 5  # 6 GTR exchangeabilities, last fixed to 1

    for rate_idx in range(n_free):
        current = np.clip(
            engine.exchangeabilities(rate_idx, dna), RATE_MIN * 1.01, RATE_MAX * 0.99
        )

        def setter(values: np.ndarray, active: np.ndarray, _i: int = rate_idx) -> None:
            engine.set_exchangeabilities(_i, values, active)

        if strategy == "new":
            counts += _new_brent(
                engine, "brent_rate_new", "brent_rate", setter, current,
                RATE_MIN, RATE_MAX, xtol, max_iter, root_edge, eligible=dna,
            )
        else:
            counts += _old_brent(
                engine, "brent_rate_old", setter, current,
                RATE_MIN, RATE_MAX, xtol, max_iter, root_edge, eligible=dna,
            )
    return counts


def optimize_scalers(
    engine: PartitionedEngine,
    strategy: str = "new",
    xtol: float = 1e-3,
    max_iter: int = 32,
    root_edge: int = 0,
) -> np.ndarray:
    """Optimize the per-partition branch-length multipliers (proportional
    mode) with Brent.

    Changing a scaler rescales every branch of its partition — a full
    traversal per objective evaluation, the same cost profile as alpha —
    so this is a genuinely per-partition iterative optimization and the
    oldPAR/newPAR distinction applies in full.  Returns per-partition
    iteration counts.
    """
    _check_strategy(strategy)
    if engine.branch_mode != "proportional":
        raise ValueError("scalers only exist in proportional mode")
    lo, hi = 0.02, 50.0
    current = np.clip(engine.scalers, lo * 1.01, hi * 0.99)

    if strategy == "new":
        return _new_brent(
            engine, "brent_scaler_new", "brent_scaler", engine.set_scalers, current,
            lo, hi, xtol, max_iter, root_edge,
        )
    return _old_brent(
        engine, "brent_scaler_old", engine.set_scalers, current,
        lo, hi, xtol, max_iter, root_edge,
    )


def optimize_pinv(
    engine: PartitionedEngine,
    strategy: str = "new",
    xtol: float = 1e-4,
    max_iter: int = 32,
    root_edge: int = 0,
) -> np.ndarray:
    """Optimize the proportion of invariable sites (the +I mixture) per
    partition with Brent.

    pinv only affects root-level mixing — no likelihood arrays are
    invalidated — so each objective evaluation is a single evaluate region
    (the cheapest of all model parameters, and hence the one where oldPAR's
    per-partition barriers hurt relatively most).
    """
    _check_strategy(strategy)
    lo, hi = 1e-6, 0.9
    current = np.clip(engine.pinvs(), lo * 1.01, hi * 0.99)

    if strategy == "new":
        return _new_brent(
            engine, "brent_pinv_new", "brent_pinv", engine.set_pinvs, current,
            lo, hi, xtol, max_iter, root_edge,
        )
    return _old_brent(
        engine, "brent_pinv_old", engine.set_pinvs, current,
        lo, hi, xtol, max_iter, root_edge,
    )


def optimize_frequencies(
    engine: PartitionedEngine,
    strategy: str = "new",
    xtol: float = 1e-3,
    max_iter: int = 24,
    root_edge: int = 0,
    dna_only: bool = True,
) -> np.ndarray:
    """ML-optimize the stationary base frequencies per partition.

    Frequencies are parameterized as ratios against the last state (the
    same pinning RAxML uses for rates); each free ratio is optimized with
    Brent, batched across partitions under newPAR.  By default only DNA
    partitions are optimized (20-state ML frequencies are slow and rarely
    preferred over empirical ones); pass ``dna_only=False`` to include
    protein partitions.
    """
    _check_strategy(strategy)
    n_parts = engine.n_partitions
    counts = np.zeros(n_parts, dtype=np.int64)
    states = engine.states()
    eligible_all = np.ones(n_parts, dtype=bool) if not dna_only else states == 4
    if not eligible_all.any():
        return counts
    max_free = int(states[eligible_all].max()) - 1
    lo, hi = 1e-3, 1e3

    for index in range(max_free):
        eligible = eligible_all & (states > index + 1)
        if not eligible.any():
            continue
        current = np.clip(engine.frequency_ratios(index, eligible), lo * 1.01, hi * 0.99)

        def setter(values: np.ndarray, active: np.ndarray, _i: int = index) -> None:
            engine.set_frequency_ratios(_i, values, active)

        if strategy == "new":
            counts += _new_brent(
                engine, "brent_freq_new", "brent_freq", setter, current,
                lo, hi, xtol, max_iter, root_edge, eligible=eligible,
            )
        else:
            counts += _old_brent(
                engine, "brent_freq_old", setter, current,
                lo, hi, xtol, max_iter, root_edge, eligible=eligible,
            )
    return counts


def optimize_model(
    engine: PartitionedEngine,
    strategy: str = "new",
    epsilon: float = 0.1,
    max_rounds: int = 10,
    include_rates: bool = True,
    include_branches: bool = True,
    include_frequencies: bool = False,
    include_invariant: bool = False,
    branch_passes: int = 1,
    distribution: str | None = None,
) -> float:
    """Full model-parameter optimization on a fixed topology (the paper's
    "optimization of ML model parameters (without tree search) on a fixed
    input tree" experiment).

    Alternates rate / alpha / branch-length optimization until the total
    log-likelihood improves by less than ``epsilon`` (RAxML's default
    likelihood epsilon is 0.1).  Returns the final log-likelihood.

    ``distribution`` (any name in :data:`repro.parallel.DISTRIBUTIONS`)
    sets the engine's intended parallel pattern-distribution policy before
    the schedule is captured — both oldPAR and newPAR accept it, since the
    policy only shapes how each recorded region is later split across
    threads, never the region sequence itself.
    """
    _check_strategy(strategy)
    if distribution is not None:
        from ..parallel.distribution import DISTRIBUTIONS

        if distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {distribution!r}"
            )
        engine.distribution = distribution
    lnl = engine.loglikelihood()
    for round_idx in range(max_rounds):
        with engine.tracer.span("opt_round", cat="optimizer",
                                round=round_idx, strategy=strategy):
            if include_rates:
                optimize_rates(engine, strategy)
            if include_frequencies:
                optimize_frequencies(engine, strategy)
            optimize_alpha(engine, strategy)
            if include_invariant:
                optimize_pinv(engine, strategy)
            if engine.branch_mode == "proportional":
                optimize_scalers(engine, strategy)
            if include_branches:
                optimize_branch_lengths(engine, strategy, passes=branch_passes)
            new_lnl = engine.loglikelihood()
        if new_lnl - lnl < epsilon:
            lnl = max(new_lnl, lnl)
            break
        lnl = new_lnl
    return lnl
