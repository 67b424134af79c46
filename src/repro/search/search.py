"""ML tree search: lazy-SPR hill climbing (the RAxML search loop).

The paper's "full ML tree search" experiments drive exactly this loop:
alternate *tree search phases* (scan SPR candidates, each evaluated with a
partial traversal plus a quick local branch-length optimization — the
Newton-Raphson work whose per-partition imbalance the paper studies) with
*model optimization phases* (Brent on alpha/rates plus full branch-length
smoothing).  The optimization strategy ("old" per-partition vs "new"
simultaneous) threads through every optimizer call, so a search run
recorded with a :class:`~repro.core.trace.TraceRecorder` captures the full
oldPAR or newPAR schedule for the machine simulator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.engine import PartitionedEngine
from ..core.strategies import (
    optimize_alpha,
    optimize_branch_lengths,
    optimize_model,
)
from .moves import nni_swap, spr_move, spr_targets

__all__ = ["SearchResult", "spr_round", "nni_round", "tree_search"]

#: minimum log-likelihood gain for accepting a topology move
ACCEPT_EPS = 1e-3


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
    accept: str = "first",
) -> tuple[float, int, int]:
    """One SPR sweep: try pruning every eligible branch and regrafting
    within ``radius``.

    Each candidate is scored after a 1-pass Newton-Raphson optimization of
    the three branches around the insertion point (RAxML's lazy-SPR local
    optimization), using the selected strategy.  ``max_candidates`` bounds
    the number of evaluated rearrangements (used by the benchmark harness
    to cap trace-capture cost on the 50,000-column datasets).

    ``accept`` selects the acceptance policy per prune edge:
    ``"first"`` (default) greedily keeps the first improving regraft;
    ``"best"`` scores every regraft of the prune edge and applies the best
    improvement (closer to RAxML's evaluate-all-then-apply behaviour,
    costlier per sweep).

    Returns ``(lnl, accepted, evaluated)``.
    """
    if accept not in ("first", "best"):
        raise ValueError("accept must be 'first' or 'best'")
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
        best_target: int | None = None
        best_target_lnl = best_lnl
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
                    engine, strategy, passes=1, edges=move.changed_edges
                )
                lnl = engine.loglikelihood(root_edge=target)
            if accept == "first" and lnl > best_lnl + ACCEPT_EPS:
                best_lnl = lnl
                accepted += 1
                break  # re-derive targets for the changed topology
            if accept == "best" and lnl > best_target_lnl + ACCEPT_EPS:
                best_target = target
                best_target_lnl = lnl
            move.undo()
            engine.invalidate_topology(move.invalidate)
            _restore_lengths(engine, move.changed_edges, saved)
        if accept == "best" and best_target is not None:
            # Re-apply the winning move (its branch lengths re-optimize).
            move = spr_move(tree, prune_edge, best_target)
            engine.invalidate_topology(move.invalidate)
            optimize_branch_lengths(
                engine, strategy, passes=1, edges=move.changed_edges
            )
            best_lnl = engine.loglikelihood(root_edge=best_target)
            accepted += 1
    return best_lnl, accepted, evaluated


def nni_round(
    engine: PartitionedEngine,
    strategy: str = "new",
    best_lnl: float | None = None,
) -> tuple[float, int, int]:
    """One NNI sweep over all internal edges (cheaper than SPR; used by
    the quickstart example and as a refinement pass)."""
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
    strategy: str = "new",
    radius: int = 5,
    max_rounds: int = 10,
    epsilon: float = 0.1,
    model_rounds: int = 1,
    moves: str = "spr",
    max_candidates: int | None = None,
    accept: str = "first",
) -> SearchResult:
    """Full ML tree search: alternate topology sweeps with model-parameter
    optimization until the likelihood improves by less than ``epsilon``
    per round (the structure of the paper's "full ML tree search"
    experiment).

    Parameters
    ----------
    moves:
        ``"spr"`` (default), ``"nni"``, or ``"both"``.
    """
    if moves not in ("spr", "nni", "both"):
        raise ValueError("moves must be 'spr', 'nni' or 'both'")
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
            if moves in ("spr", "both"):
                lnl, acc, ev = spr_round(
                    engine, strategy, radius, lnl, max_candidates, accept
                )
                total_accepted += acc
                total_evaluated += ev
            if moves in ("nni", "both"):
                lnl, acc, ev = nni_round(engine, strategy, lnl)
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
