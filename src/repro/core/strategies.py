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


def _indices(active) -> list[int] | None:
    """A ``(P,)`` active mask as the partition list of a worker command
    (None stays None: every partition)."""
    return None if active is None else np.flatnonzero(active).tolist()


def _lanes(active: np.ndarray) -> np.ndarray | None:
    """An edge command's lane mask: None (every prepared lane) when all
    lanes are live, so the worker team pickles no all-true array."""
    return None if active.all() else active


def optimize_branch(
    engine: PartitionedEngine,
    edge: int,
    strategy: str = "new",
    ztol: float = 1e-6,
    max_iter: int = 64,
) -> np.ndarray:
    """Optimize one branch; returns the per-partition iteration counts
    (useful for load-balance diagnostics).

    Every region is one :meth:`~PartitionedEngine.run` call over the
    one-edge workspace ``[edge]``, with ``(1, P)`` lengths and lane
    masks, so the worker team
    (:class:`~repro.parallel.engine.ParallelPLK`) executes the same
    schedule with one broadcast per region."""
    _check_strategy(strategy)
    n_parts = engine.n_partitions
    z0 = engine.branch_lengths()[edge]  # (P,)

    def guard(label: str, z_old: np.ndarray, z_new: np.ndarray, lanes=None):
        """``(P,)`` lnLs at ``z_old`` and at ``z_new``: Newton-Raphson can
        overshoot, so a new length is kept only where it does not lower
        the likelihood (one extra evaluation pass, as RAxML's makenewz)."""
        old, new = engine.run(label, [("lnl_edges", z_old[np.newaxis], lanes),
                                      ("lnl_edges", z_new[np.newaxis], lanes)])
        return old[0], new[0]

    if engine.branch_mode != "per_partition":
        # One length shared by all partitions (proportional: partition p
        # evaluates at s_p * b, contributing a chain-rule factor s_p, s_p^2
        # for the curvature), so every iteration spans all partitions and
        # the strategies produce the same schedule.
        label = "nr_" + engine.branch_mode
        if engine.branch_mode == "joint":
            scalers, b0 = np.ones(n_parts), float(z0[0])
        else:
            scalers, b0 = engine.scalers, float(engine.global_lengths[edge])
        engine.run("prepare", [("prepare_edges", [edge], None)])

        def shared_fn(b: float) -> tuple[float, float]:
            ((d1, d2),) = engine.run(label, [("deriv_edges", (scalers * b)[np.newaxis], None)])
            return sum((scalers * d1[0]).tolist()), sum((scalers * scalers * d2[0]).tolist())

        b, iters, _ = newton_optimize(shared_fn, b0, BRANCH_MIN, BRANCH_MAX, ztol, max_iter)
        old, new = guard(label, scalers * b0, scalers * b)
        if sum(new.tolist()) >= sum(old.tolist()):
            engine.set_branch_length(edge, b)
        return np.full(n_parts, iters, dtype=np.int64)

    if strategy == "new":
        solver = BatchedNewton(BRANCH_MIN, BRANCH_MAX, ztol, max_iter)
        # Fused opening region: sumtable setup and the first derivative
        # pass share ONE region — one broadcast/barrier instead of two.
        # The simulator charges dispatch + barrier once per region, so the
        # fusion shows up directly in predicted sync seconds.
        z_first = solver.initial_point(z0)
        _, (d1, d2) = engine.run("nr_new", [("prepare_edges", [edge], None),
                                            ("deriv_edges", z_first[np.newaxis], None)])

        def batched_fn(z: np.ndarray, active: np.ndarray):
            ((g1, g2),) = engine.run(
                "nr_new", [("deriv_edges", z[np.newaxis], _lanes(active[np.newaxis]))]
            )
            return g1[0], g2[0]

        res = solver.run(
            batched_fn, z0, observer=engine.telemetry.start("nr_branch", n_parts),
            first_eval=(d1[0], d2[0]),
        )
        # Monotonicity guard (one batched evaluation region); the write
        # needs its reduced sums, so it is a region of its own.
        old, new = guard("nr_new", z0, res.z)
        engine.run("nr_new", [("set_bl_edges", [edge], res.z[np.newaxis],
                               _indices(new >= old))])
        _observe_iterations(engine, "nr_branch", res.iterations)
        return res.iterations

    # oldPAR: one partition at a time — the same commands with a
    # one-partition active set, so every NR iteration is a region whose
    # only work is this partition's m'_p patterns.
    counts = np.zeros(n_parts, dtype=np.int64)
    for p in range(n_parts):
        lanes = _only(n_parts, p)[np.newaxis]
        engine.run("prepare", [("prepare_edges", [edge], [p])])

        def scalar_fn(z: float, _p: int = p, _lanes=lanes) -> tuple[float, float]:
            ((d1, d2),) = engine.run("nr_old", [("deriv_edges", np.full((1, n_parts), z), _lanes)])
            return float(d1[0, _p]), float(d2[0, _p])

        z, iters, _ = newton_optimize(
            scalar_fn, float(z0[p]), BRANCH_MIN, BRANCH_MAX, ztol, max_iter
        )
        trial = np.full(n_parts, z)
        old, new = guard("nr_old", z0, trial, lanes)
        if new[p] >= old[p]:
            engine.run("nr_old", [("set_bl_edges", [edge], trial[np.newaxis], [p])])
        counts[p] = iters
    return counts


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

    A sweep's opening region writes the previous sweep's lengths,
    computes every live partition's full lnL (that sweep's guard, on the
    walk's first edge as root, so the prepare walk starts from the
    oriented CLVs), prepares all edges and runs the first derivative
    round; the closing region frees the workspace.  Returns the
    per-partition Newton iteration counts."""
    root = order[0]

    def opening(z, write, live, z_first):
        steps = [] if write is None else [("set_bl_edges", order, z, _indices(write))]
        guard = len(steps)
        steps.append(("lnl_parts", root, _indices(live)))
        if z_first is None:
            steps.append(("release",))
        else:
            steps += [("prepare_edges", order, _indices(live)),
                      ("deriv_edges", z_first, _lanes(np.broadcast_to(live, z.shape)))]
        results = engine.run("nr_tree", steps)
        return results[guard], None if z_first is None else results[-1]

    def deriv(z, active):
        return engine.run("nr_tree", [("deriv_edges", z, _lanes(active))])[0]

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

    def step(values, active):
        return ("set_alpha_vec", values, active)

    if strategy == "new":
        return _new_brent(
            engine, "brent_alpha_new", "brent_alpha", step, current,
            ALPHA_MIN, ALPHA_MAX, xtol, max_iter, root_edge,
        )
    return _old_brent(
        engine, "brent_alpha_old", step, current,
        ALPHA_MIN, ALPHA_MAX, xtol, max_iter, root_edge,
    )


def _new_brent(
    engine: PartitionedEngine,
    label: str,
    name: str,
    step,
    current: np.ndarray,
    lo: float,
    hi: float,
    xtol: float,
    max_iter: int,
    root_edge: int,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """newPAR Brent: one lock-step solve over every (eligible) partition,
    each objective evaluation one region ``label`` that writes the trial
    values and evaluates the still-active partitions; the telemetry and
    metrics see it as ``name``.  ``step(values, active)`` is the write
    step of a ``(P,)`` parameter vector for the partition list ``active``
    (None: all); the final write is a region of its own.  Returns the
    per-partition iteration counts (0 where not eligible)."""
    n_parts = engine.n_partitions
    solver = BatchedBrent(np.full(n_parts, lo), np.full(n_parts, hi), xtol, max_iter)

    def batched_fn(x: np.ndarray, active: np.ndarray) -> np.ndarray:
        parts = _indices(active)
        return -engine.run(label, [step(x, parts), ("lnl_parts", root_edge, parts)])[1]

    res = solver.run(
        batched_fn, guess=current, mask=eligible,
        observer=engine.telemetry.start(name, n_parts),
    )
    engine.run(label, [step(res.x, _indices(eligible))])
    if eligible is None:
        _observe_iterations(engine, name, res.iterations)
        return res.iterations
    _observe_iterations(engine, name, res.iterations[eligible])
    return np.where(eligible, res.iterations, 0)


def _old_brent(
    engine: PartitionedEngine,
    label: str,
    step,
    current: np.ndarray,
    lo: float,
    hi: float,
    xtol: float,
    max_iter: int,
    root_edge: int,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """oldPAR Brent: one scalar optimization per (eligible) partition,
    each objective evaluation one region over a one-partition active set,
    and a final write region per partition.  ``step`` is as for
    :func:`_new_brent`."""
    n_parts = engine.n_partitions
    counts = np.zeros(n_parts, dtype=np.int64)
    todo = range(n_parts) if eligible is None else np.flatnonzero(eligible).tolist()
    for p in todo:

        def scalar_fn(x: np.ndarray, active: np.ndarray, _p: int = p) -> np.ndarray:
            write = step(np.full(n_parts, x[0]), [_p])
            return -engine.run(label, [write, ("lnl_parts", root_edge, [_p])])[1][_p : _p + 1]

        solver = BatchedBrent(np.array([lo]), np.array([hi]), xtol, max_iter)
        res = solver.run(scalar_fn, guess=np.array([current[p]]))
        engine.run(label, [step(np.full(n_parts, res.x[0]), [p])])
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

        def step(values: np.ndarray, active, _i: int = rate_idx) -> tuple:
            return engine.exchangeability_step(_i, values, active)

        if strategy == "new":
            counts += _new_brent(
                engine, "brent_rate_new", "brent_rate", step, current,
                RATE_MIN, RATE_MAX, xtol, max_iter, root_edge, eligible=dna,
            )
        else:
            counts += _old_brent(
                engine, "brent_rate_old", step, current,
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
            engine, "brent_scaler_new", "brent_scaler", engine.scaler_step, current,
            lo, hi, xtol, max_iter, root_edge,
        )
    return _old_brent(
        engine, "brent_scaler_old", engine.scaler_step, current,
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

    def step(values, active):
        return ("set_pinvs", values, active)

    if strategy == "new":
        return _new_brent(
            engine, "brent_pinv_new", "brent_pinv", step, current,
            lo, hi, xtol, max_iter, root_edge,
        )
    return _old_brent(
        engine, "brent_pinv_old", step, current,
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

        def step(values: np.ndarray, active, _i: int = index) -> tuple:
            return engine.frequency_ratio_step(_i, values, active)

        if strategy == "new":
            counts += _new_brent(
                engine, "brent_freq_new", "brent_freq", step, current,
                lo, hi, xtol, max_iter, root_edge, eligible=eligible,
            )
        else:
            counts += _old_brent(
                engine, "brent_freq_old", step, current,
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
