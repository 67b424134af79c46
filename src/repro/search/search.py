"""ML tree search: lazy-SPR hill climbing (the RAxML search loop).

The paper's "full ML tree search" experiments drive exactly this loop:
alternate *tree search phases* (scan SPR candidates, each evaluated with a
partial traversal plus a quick local branch-length optimization — the
Newton-Raphson work whose per-partition imbalance the paper studies) with
*model optimization phases* (Brent on alpha/rates plus full branch-length
smoothing).  The optimization strategy ("old" per-partition vs "new"
simultaneous) threads through every optimizer call, so a search run
recorded with a :class:`~repro.core.trace.TraceRecorder` captures the full
oldPAR or newPAR schedule for the machine simulator.  ``"tree"`` (the
default of :func:`tree_search`) puts the regraft targets of a prune edge
on one axis: all are scored at their lazy lengths in one region and only
a short list is applied and smoothed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.engine import PartitionedEngine
from ..core.strategies import (BRANCH_STRATEGIES, PARTITION_SCHEDULE, optimize_branch_lengths,
                               optimize_model)
from .moves import nni_swap, spr_move, spr_targets

__all__ = ["SearchResult", "spr_round", "nni_round", "tree_search"]

#: minimum log-likelihood gain for accepting a topology move
ACCEPT_EPS = 1e-3

#: Regrafts per prune edge that ``strategy="tree"`` applies and smooths
#: after scoring all of them at their lazy lengths (EXPERIMENTS.md LAZY
#: SPR: the short-list sweep).
SHORT_LIST = 2


@dataclass
class SearchResult:
    """Outcome of a tree search."""

    loglikelihood: float
    rounds: int
    accepted_moves: int
    evaluated_moves: int
    history: list[float] = field(default_factory=list)


def _restore_lengths(engine: PartitionedEngine, edges: list[int], saved: np.ndarray) -> None:
    """Put back the per-partition lengths of ``edges`` (saved rows of the
    (E, P) length matrix)."""
    for row, edge in enumerate(edges):
        engine.set_edge_lengths(edge, saved[row])


def spr_round(
    engine: PartitionedEngine,
    strategy: str = "new",
    radius: int = 5,
    best_lnl: float | None = None,
    max_candidates: int | None = None,
) -> tuple[float, int, int]:
    """One SPR sweep: try pruning every eligible branch and regrafting
    within ``radius``; the first regraft of a prune edge that improves
    the likelihood by more than :data:`ACCEPT_EPS` is kept.

    ``"old"`` and ``"new"`` score each candidate after a 1-pass
    Newton-Raphson optimization of the three branches around the
    insertion point (RAxML's lazy-SPR local optimization), using that
    strategy.  ``"tree"`` scores every regraft of a prune edge at its
    lazy lengths in one region (:func:`_lazy_prune`) and smooths only the
    :data:`SHORT_LIST` best; with lengths shared across partitions (joint
    and proportional modes) it walks the candidates as ``"new"`` does.
    ``max_candidates`` bounds the number of evaluated rearrangements
    (used by the benchmark harness to cap trace-capture cost on the
    50,000-column datasets).

    Returns ``(lnl, accepted, evaluated)``.
    """
    if strategy not in BRANCH_STRATEGIES:
        raise ValueError(f"strategy must be one of {BRANCH_STRATEGIES}, got {strategy!r}")
    lazy = strategy == "tree" and engine.branch_mode == "per_partition"
    per_candidate = PARTITION_SCHEDULE[strategy]
    tree = engine.tree
    if best_lnl is None:
        best_lnl = engine.loglikelihood()
    accepted = 0
    evaluated = 0

    for prune_edge, _u, _v in list(tree.edges()):
        if max_candidates is not None and evaluated >= max_candidates:
            break
        # Re-read endpoints (accepted moves may rewire edge ids).
        u, v = tree.edge_nodes(prune_edge)
        # Eligible if the junction side is an inner node.
        if tree.is_leaf(u) and tree.is_leaf(v):
            continue
        try:
            targets = spr_targets(tree, prune_edge, radius)
        except ValueError:
            continue
        if lazy:
            if max_candidates is not None:
                targets = targets[: max_candidates - evaluated]
            if not targets:
                continue
            evaluated += len(targets)
            lnl = _lazy_prune(engine, prune_edge, targets, best_lnl)
            if lnl is not None:
                best_lnl = lnl
                accepted += 1
            continue
        for target in targets:
            if max_candidates is not None and evaluated >= max_candidates:
                break
            lengths_before = engine.branch_lengths()
            try:
                move = spr_move(tree, prune_edge, target)
            except ValueError:
                continue
            evaluated += 1
            saved = lengths_before[move.changed_edges]
            with engine.tracer.span("spr", cat="search",
                                    prune=int(prune_edge), target=int(target)):
                engine.invalidate_topology(move.invalidate)
                optimize_branch_lengths(
                    engine, per_candidate, passes=1, edges=move.changed_edges
                )
                lnl = engine.loglikelihood(root_edge=target)
            if lnl > best_lnl + ACCEPT_EPS:
                best_lnl = lnl
                accepted += 1
                break  # re-derive targets for the changed topology
            move.undo()
            engine.invalidate_topology(move.invalidate)
            _restore_lengths(engine, move.changed_edges, saved)
    return best_lnl, accepted, evaluated


def _lazy_prune(
    engine: PartitionedEngine, prune_edge: int, targets: list[int], best_lnl: float
) -> float | None:
    """Score every regraft of ``prune_edge`` into ``targets`` at RAxML's
    lazy lengths in ONE region (one kernel call per stack over a
    ``(targets, partitions)`` axis), then apply the :data:`SHORT_LIST`
    best, best first: each starts from its lazy lengths, has its three
    branches smoothed by the per-branch ``"new"`` walk and is kept if it
    beats ``best_lnl`` by more than :data:`ACCEPT_EPS`; otherwise it is
    undone.  Returns the new lnL, or None when no candidate is kept."""
    tree = engine.tree
    (scores,) = engine.run("spr_lazy", [("lnl_regrafts", prune_edge, targets)])
    totals = scores.sum(axis=1)
    for i in np.argsort(-totals, kind="stable")[:SHORT_LIST].tolist():
        target = targets[i]
        saved = engine.branch_lengths()
        move = spr_move(tree, prune_edge, target)
        e_ab, e_ac, _ = edges = move.changed_edges
        lazy = np.stack([saved[e_ab] + saved[e_ac], saved[target] / 2.0, saved[target] / 2.0])
        with engine.tracer.span("spr", cat="search",
                                prune=int(prune_edge), target=int(target)):
            engine.invalidate_topology(move.invalidate)
            engine.run("spr_lazy", [("set_bl_edges", edges, lazy, None)])
            optimize_branch_lengths(engine, "new", passes=1, edges=edges)
            lnl = engine.loglikelihood(root_edge=target)
        if lnl > best_lnl + ACCEPT_EPS:
            return lnl
        move.undo()
        engine.invalidate_topology(move.invalidate)
        engine.run("spr_lazy", [("set_bl_edges", edges, saved[edges], None)])
    return None


def nni_round(
    engine: PartitionedEngine,
    strategy: str = "new",
    best_lnl: float | None = None,
) -> tuple[float, int, int]:
    """One NNI sweep over all internal edges (cheaper than SPR; a
    refinement pass for callers of their own — :func:`tree_search` runs
    SPR only)."""
    tree = engine.tree
    if best_lnl is None:
        best_lnl = engine.loglikelihood()
    accepted = 0
    evaluated = 0
    for edge, _u, _v in list(tree.edges()):
        # Re-read endpoints: an accepted move may have changed what this
        # edge id connects since the snapshot was taken.
        u, v = tree.edge_nodes(edge)
        if tree.is_leaf(u) or tree.is_leaf(v):
            continue
        for variant in (0, 1):
            lengths_before = engine.branch_lengths()
            move = nni_swap(tree, edge, variant)
            evaluated += 1
            # The central edge is optimized too, so a rejected move must
            # put its lengths back along with the changed edges'.
            touched = [edge, *move.changed_edges]
            saved = lengths_before[touched]
            with engine.tracer.span("nni", cat="search",
                                    edge=int(edge), variant=variant):
                engine.invalidate_topology(move.invalidate)
                optimize_branch_lengths(engine, strategy, passes=1, edges=touched)
                lnl = engine.loglikelihood(root_edge=edge)
            if lnl > best_lnl + ACCEPT_EPS:
                best_lnl = lnl
                accepted += 1
                break
            move.undo()
            engine.invalidate_topology(move.invalidate)
            _restore_lengths(engine, touched, saved)
    return best_lnl, accepted, evaluated


def tree_search(
    engine: PartitionedEngine,
    strategy: str = "tree",
    radius: int = 5,
    max_rounds: int = 10,
    epsilon: float = 0.1,
    model_rounds: int = 1,
    max_candidates: int | None = None,
) -> SearchResult:
    """Full ML tree search: alternate SPR sweeps (:func:`spr_round`) with
    model-parameter optimization (:func:`~repro.core.strategies.
    optimize_model`) until the likelihood improves by less than
    ``epsilon`` per round (the structure of the paper's "full ML tree
    search" experiment).  ``strategy`` threads through both phases."""
    lnl = optimize_model(
        engine, strategy, max_rounds=model_rounds, include_rates=True
    )
    history = [lnl]
    total_accepted = 0
    total_evaluated = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        before = lnl
        with engine.tracer.span("search_round", cat="search", round=rounds):
            lnl, acc, ev = spr_round(engine, strategy, radius, lnl, max_candidates)
            total_accepted += acc
            total_evaluated += ev
            lnl = optimize_model(
                engine, strategy, max_rounds=model_rounds, include_rates=False
            )
        history.append(lnl)
        if lnl - before < epsilon:
            break
    return SearchResult(
        loglikelihood=lnl,
        rounds=rounds,
        accepted_moves=total_accepted,
        evaluated_moves=total_evaluated,
        history=history,
    )
