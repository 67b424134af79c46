"""The partitioned likelihood engine (the object the paper's master thread
manages).

:class:`PartitionedEngine` owns one :class:`~repro.plk.likelihood.
PartitionLikelihood` per partition over a shared tree topology, and exposes
the whole-alignment operations the search and optimization layers need:
total log-likelihood, branch-length get/set in *joint* (one length per
branch, shared by all partitions) or *per-partition* (unlinked, Fig. 2 of
the paper) mode, and bulk invalidation after topology moves.

Every kernel operation flows through the engine's recorder, so any analysis
run doubles as a schedule capture for the machine simulator.
"""
from __future__ import annotations

import numpy as np

from ..obs.convergence import NullTelemetry
from ..obs.metrics import NullMetrics
from ..obs.tracer import NullTracer
from ..plk.likelihood import BranchWorkspace, PartitionLikelihood
from ..plk.models import SubstitutionModel
from ..plk.partition import PartitionedAlignment
from ..plk.tree import Tree
from .trace import NullRecorder, TraceRecorder

__all__ = ["PartitionedEngine", "BRANCH_MODES"]

#: joint — one set of 2n-3 lengths shared by all partitions;
#: per_partition — every partition owns its own lengths (paper Fig. 2);
#: proportional — shared lengths scaled by one free multiplier per
#: partition (the middle ground modern tools offer: per-gene rate
#: without P times the parameters).
BRANCH_MODES = ("joint", "per_partition", "proportional")


class PartitionedEngine:
    """Multi-partition likelihood over a shared topology.

    Parameters
    ----------
    data:
        Pattern-compressed partitioned alignment.
    tree:
        Shared topology (mutated in place by the search layer; call
        :meth:`invalidate_topology` afterwards).
    models:
        Per-partition substitution models; defaults to GTR with empirical
        (data-derived would be ideal; we use uniform) frequencies for DNA
        and the Poisson model for AA partitions.
    alphas:
        Per-partition Gamma shapes (default 1.0).
    branch_mode:
        ``"joint"`` or ``"per_partition"`` (see paper Section IV: the
        per-partition estimate is required by the fast gappy-alignment
        method of [32] and is where the load imbalance bites).
    initial_lengths:
        ``(n_edges,)`` starting branch lengths for every partition.
    recorder:
        Kernel-op listener (default: discard).
    tracer:
        A :class:`repro.obs.Tracer` collecting timestamped spans for every
        parallel region and optimizer phase (default: the zero-overhead
        :class:`repro.obs.NullTracer`).
    metrics:
        A :class:`repro.obs.MetricsRegistry` for run counters/histograms
        (default: discard).
    telemetry:
        A :class:`repro.obs.ConvergenceTelemetry` recording each batched
        optimizer's per-partition convergence vector per iteration
        (default: discard).
    distribution:
        The pattern-distribution policy intended for parallel execution
        of the captured schedule (any name in
        :data:`repro.parallel.DISTRIBUTIONS`).  The sequential engine's
        numbers do not depend on it; it is stamped onto finalized traces
        so simulator replays default to the intended policy.
    """

    def __init__(
        self,
        data: PartitionedAlignment,
        tree: Tree,
        models: list[SubstitutionModel] | None = None,
        alphas: list[float] | None = None,
        branch_mode: str = "per_partition",
        initial_lengths: np.ndarray | None = None,
        recorder: TraceRecorder | NullRecorder | None = None,
        categories: int = 4,
        tracer=None,
        metrics=None,
        telemetry=None,
        distribution: str = "cyclic",
    ):
        if branch_mode not in BRANCH_MODES:
            raise ValueError(f"branch_mode must be one of {BRANCH_MODES}")
        from ..parallel.distribution import DISTRIBUTIONS

        if distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {distribution!r}"
            )
        self.data = data
        self.tree = tree
        self.branch_mode = branch_mode
        self.distribution = distribution
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else NullMetrics()
        self.telemetry = telemetry if telemetry is not None else NullTelemetry()
        if models is None:
            models = [
                SubstitutionModel.jc69()
                if d.partition.datatype.states == 4
                else SubstitutionModel.poisson_aa()
                for d in data.data
            ]
        if len(models) != data.n_partitions:
            raise ValueError("need one model per partition")
        if alphas is None:
            alphas = [1.0] * data.n_partitions
        if len(alphas) != data.n_partitions:
            raise ValueError("need one alpha per partition")

        self.parts: list[PartitionLikelihood] = [
            PartitionLikelihood(
                d,
                tree,
                model,
                alpha=alpha,
                categories=categories,
                index=i,
                recorder=self.recorder,
            )
            for i, (d, model, alpha) in enumerate(zip(data.data, models, alphas))
        ]
        # Proportional mode: shared lengths + one multiplier per partition.
        self._scalers = np.ones(data.n_partitions)
        self._global_lengths = (
            initial_lengths.copy()
            if initial_lengths is not None
            else np.full(tree.n_edges, 0.1)
        )
        if initial_lengths is not None:
            for part in self.parts:
                part.set_branch_lengths(initial_lengths)

    # ------------------------------------------------------------------

    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    @property
    def n_edges(self) -> int:
        return self.tree.n_edges

    def pattern_counts(self) -> np.ndarray:
        return np.array([p.n_patterns for p in self.parts], dtype=np.int64)

    def states(self) -> np.ndarray:
        return np.array([p.data.states for p in self.parts], dtype=np.int64)

    # ------------------------------------------------------------------
    # Likelihood
    # ------------------------------------------------------------------

    def loglikelihood(self, root_edge: int = 0) -> float:
        """Total log-likelihood (one parallel region: full/partial
        traversal for every partition plus the score reduction)."""
        self.recorder.begin_region("loglikelihood")
        total = sum(p.loglikelihood(root_edge) for p in self.parts)
        self.recorder.end_region()
        return total

    def partition_loglikelihoods(self, root_edge: int = 0) -> np.ndarray:
        self.recorder.begin_region("loglikelihood")
        out = np.array([p.loglikelihood(root_edge) for p in self.parts])
        self.recorder.end_region()
        return out

    # ------------------------------------------------------------------
    # Branch lengths
    # ------------------------------------------------------------------

    def branch_lengths(self) -> np.ndarray:
        """(n_edges, n_partitions) matrix of current lengths (joint mode:
        all columns equal)."""
        return np.stack([p.branch_lengths for p in self.parts], axis=1)

    def set_branch_length(self, edge: int, value: float, partition: int | None = None) -> None:
        """Set one branch length: everywhere (joint / proportional / bulk)
        or in one partition (per-partition mode only)."""
        if partition is None:
            self._global_lengths[edge] = value
            if self.branch_mode == "proportional":
                for p, part in enumerate(self.parts):
                    part.set_branch_length(edge, value * self._scalers[p])
            else:
                for part in self.parts:
                    part.set_branch_length(edge, value)
        else:
            if self.branch_mode != "per_partition":
                raise ValueError(
                    f"cannot set a per-partition length in {self.branch_mode} mode"
                )
            self.parts[partition].set_branch_length(edge, value)

    def set_all_branch_lengths(self, lengths: np.ndarray) -> None:
        self._global_lengths[:] = lengths
        if self.branch_mode == "proportional":
            for p, part in enumerate(self.parts):
                part.set_branch_lengths(lengths * self._scalers[p])
        else:
            for part in self.parts:
                part.set_branch_lengths(lengths)

    # -- proportional mode ---------------------------------------------------

    @property
    def scalers(self) -> np.ndarray:
        """Per-partition branch-length multipliers (proportional mode)."""
        return self._scalers.copy()

    @property
    def global_lengths(self) -> np.ndarray:
        """The shared length vector (joint / proportional modes)."""
        return self._global_lengths.copy()

    def set_scaler(self, partition: int, value: float) -> None:
        """Set one partition's length multiplier (proportional mode);
        rescales every branch of that partition, so its likelihood arrays
        are fully invalidated — the same cost profile as an alpha change."""
        if self.branch_mode != "proportional":
            raise ValueError("scalers only exist in proportional mode")
        if value <= 0:
            raise ValueError("scalers must be positive")
        self._scalers[partition] = value
        self.parts[partition].set_branch_lengths(self._global_lengths * value)

    # ------------------------------------------------------------------
    # Topology bookkeeping
    # ------------------------------------------------------------------

    def invalidate_topology(self, nodes: list[int] | None = None) -> None:
        """Invalidate CLVs after a topology move: the given inner nodes, or
        everything if None."""
        for part in self.parts:
            if nodes is None:
                part.invalidate_all()
            else:
                for node in nodes:
                    part.invalidate_node(node)

    # ------------------------------------------------------------------
    # Newton-Raphson plumbing shared by the strategies
    # ------------------------------------------------------------------

    def prepare_branch_all(self, edge: int, label: str = "prepare") -> list[BranchWorkspace]:
        """Sumtables for ``edge`` in every partition, in ONE region (the
        newPAR grouping)."""
        self.recorder.begin_region(label)
        out = [p.prepare_branch(edge) for p in self.parts]
        self.recorder.end_region()
        return out

    def prepare_branch_one(self, edge: int, partition: int) -> BranchWorkspace:
        """Sumtable for one partition (its own region — the oldPAR way)."""
        self.recorder.begin_region("prepare")
        ws = self.parts[partition].prepare_branch(edge)
        self.recorder.end_region()
        return ws
