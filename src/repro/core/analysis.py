"""Analysis entry points + trace capture for the paper's experiments.

The paper's experimental setup (Section V) runs, for every dataset, four
analysis types: model-parameter optimization on a fixed input tree and a
full ML tree search, each with joint and with per-partition branch-length
estimates; plus unpartitioned variants of both.  Each run here both
*performs* the real numerical analysis (the numbers are real likelihoods)
and *captures* the kernel-op schedule, which the machine simulator replays
under any platform / thread count / strategy combination.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..plk.alignment import Alignment
from ..plk.models import SubstitutionModel
from ..plk.partition import Partition, PartitionedAlignment, PartitionScheme
from ..plk.tree import Tree
from .engine import PartitionedEngine
from .strategies import optimize_model
from .trace import Trace, TraceRecorder

__all__ = [
    "AnalysisRun",
    "run_model_optimization",
    "run_tree_search",
    "unpartitioned_view",
]


@dataclass
class AnalysisRun:
    """Result of one analysis: the final likelihood, the captured
    schedule, and the engine (for inspecting optimized parameters)."""

    loglikelihood: float
    trace: Trace
    engine: PartitionedEngine
    description: str


def _make_engine(
    data: PartitionedAlignment,
    tree: Tree,
    branch_mode: str,
    initial_lengths: np.ndarray | None,
    recorder: TraceRecorder,
    seed: int,
) -> PartitionedEngine:
    """Engine with slightly perturbed per-partition starting models, so the
    optimizers genuinely iterate (all-identical starting points would give
    every partition the same iteration count and mask the imbalance)."""
    rng = np.random.default_rng(seed)
    models = []
    alphas = []
    for d in data.data:
        if d.partition.datatype.states == 4:
            rates = np.exp(rng.normal(0.0, 0.3, size=6))
            rates /= rates[-1]
            freqs = rng.dirichlet(np.full(4, 40.0))
            models.append(SubstitutionModel.gtr(rates, freqs))
        else:
            models.append(SubstitutionModel.synthetic_aa(seed))
        alphas.append(float(np.exp(rng.normal(0.0, 0.3))))
    return PartitionedEngine(
        data,
        tree,
        models=models,
        alphas=alphas,
        branch_mode=branch_mode,
        initial_lengths=initial_lengths,
        recorder=recorder,
    )


def run_model_optimization(
    data: PartitionedAlignment,
    tree: Tree,
    strategy: str = "new",
    branch_mode: str = "per_partition",
    initial_lengths: np.ndarray | None = None,
    max_rounds: int = 3,
    seed: int = 0,
) -> AnalysisRun:
    """The paper's "optimization of ML model parameters (without tree
    search) on a fixed input tree" experiment."""
    recorder = TraceRecorder()
    work_tree = tree.copy()
    engine = _make_engine(data, work_tree, branch_mode, initial_lengths, recorder, seed)
    lnl = optimize_model(engine, strategy=strategy, max_rounds=max_rounds)
    trace = recorder.finalize(engine.pattern_counts(), engine.states())
    return AnalysisRun(
        loglikelihood=lnl,
        trace=trace,
        engine=engine,
        description=f"model-opt strategy={strategy} branch_mode={branch_mode}",
    )


def run_tree_search(
    data: PartitionedAlignment,
    tree: Tree,
    strategy: str = "new",
    branch_mode: str = "per_partition",
    initial_lengths: np.ndarray | None = None,
    radius: int = 2,
    max_rounds: int = 1,
    max_candidates: int | None = None,
    seed: int = 0,
) -> AnalysisRun:
    """The paper's "full ML tree search (on a fixed input tree for
    reproducibility)" experiment.

    ``radius`` / ``max_rounds`` / ``max_candidates`` bound the
    rearrangement effort; the benchmark harness uses modest values because
    the *schedule statistics* converge after a few hundred candidate
    moves (EXPERIMENTS.md discusses this scaling).
    """
    from ..search.search import tree_search  # local import: layer inversion

    recorder = TraceRecorder()
    work_tree = tree.copy()
    engine = _make_engine(data, work_tree, branch_mode, initial_lengths, recorder, seed)
    result = tree_search(
        engine,
        strategy=strategy,
        radius=radius,
        max_rounds=max_rounds,
        max_candidates=max_candidates,
    )
    trace = recorder.finalize(engine.pattern_counts(), engine.states())
    return AnalysisRun(
        loglikelihood=result.loglikelihood,
        trace=trace,
        engine=engine,
        description=(
            f"tree-search strategy={strategy} branch_mode={branch_mode} "
            f"radius={radius} rounds={result.rounds}"
        ),
    )


def unpartitioned_view(data: PartitionedAlignment) -> PartitionedAlignment:
    """Re-wrap a partitioned alignment as a single partition covering all
    columns (the paper's "completely unpartitioned analysis" baseline in
    Fig. 6).  Requires a homogeneous datatype."""
    datatypes = {d.partition.datatype.name for d in data.data}
    if len(datatypes) != 1:
        raise ValueError("cannot unpartition a mixed-datatype alignment")
    alignment: Alignment = data.alignment
    scheme = PartitionScheme(
        (
            Partition(
                "all",
                data.data[0].partition.datatype,
                ((0, alignment.n_sites),),
            ),
        )
    )
    return PartitionedAlignment(alignment, scheme)
