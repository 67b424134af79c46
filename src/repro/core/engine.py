"""The partitioned likelihood engine (the object the paper's master thread
manages).

:class:`PartitionedEngine` holds the partitions of an alignment as
likelihood stacks over one shared tree topology (:class:`~repro.plk.
stacking.PartitionStacks`: one :class:`~repro.plk.likelihood.
PartitionLikelihood` per group of same-state, similar-width partitions),
and exposes the whole-alignment operations the search and optimization
layers need: total and per-partition log-likelihoods, parameter setters
as vector calls over an active partition set, branch-length get/set in
*joint* (one length per branch, shared by all partitions),
*per-partition* (unlinked, Fig. 2 of the paper) or *proportional* mode,
bulk invalidation after topology moves, and :meth:`~PartitionedEngine.run`,
which executes one region of worker commands (the Newton-Raphson and
Brent schedules of :mod:`repro.core.strategies`) on the stacks.
``parts[p]`` is partition p's per-partition view.

Every kernel operation flows through the engine's recorder, so any analysis
run doubles as a schedule capture for the machine simulator.
"""
from __future__ import annotations

import numpy as np

from ..obs.convergence import NullTelemetry
from ..obs.metrics import NullMetrics
from ..obs.tracer import NullTracer
from ..plk.likelihood import PartitionView
from ..plk.models import SubstitutionModel
from ..plk.partition import PartitionedAlignment
from ..plk.stacking import PartitionStacks
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
    ):
        if branch_mode not in BRANCH_MODES:
            raise ValueError(f"branch_mode must be one of {BRANCH_MODES}")
        self.data = data
        self.tree = tree
        self.branch_mode = branch_mode
        self.categories = categories
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

        self._stacks = PartitionStacks(
            list(data.data), tree, list(models), list(alphas), categories
        )
        # Imported here: repro.parallel imports the strategies, which
        # import this module.
        from ..parallel.worker import WorkerState

        self._worker = WorkerState(self._stacks)
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.parts: list[PartitionView] = self._stacks.parts
        # Proportional mode: shared lengths + one multiplier per partition.
        self._scalers = np.ones(data.n_partitions)
        self._global_lengths = (
            initial_lengths.copy()
            if initial_lengths is not None
            else np.full(tree.n_edges, 0.1)
        )
        if initial_lengths is not None:
            self._stacks.set_branch_lengths(initial_lengths)

    @property
    def recorder(self) -> TraceRecorder | NullRecorder:
        return self._recorder

    @recorder.setter
    def recorder(self, recorder: TraceRecorder | NullRecorder) -> None:
        """Swap the kernel-op listener (the stacks skip recording
        entirely under a :class:`NullRecorder`)."""
        self._recorder = recorder
        listener = None if isinstance(recorder, NullRecorder) else recorder
        for stack in self._stacks.stacks:
            stack.recorder = listener

    @property
    def stacks(self):
        """The likelihood stacks the partitions are grouped into."""
        return self._stacks.stacks

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

    def loglikelihoods(self, root_edge: int = 0, active=None) -> np.ndarray:
        """``(P,)`` per-partition log-likelihoods of the active partitions
        (0 elsewhere): one call per stack, no region of its own."""
        return self._stacks.loglikelihoods(root_edge, active)

    def loglikelihood(self, root_edge: int = 0) -> float:
        """Total log-likelihood (one parallel region: full/partial
        traversal for every partition plus the score reduction)."""
        self.recorder.begin_region("loglikelihood")
        total = float(sum(self.loglikelihoods(root_edge).tolist()))
        self.recorder.end_region()
        return total

    def partition_loglikelihoods(self, root_edge: int = 0) -> np.ndarray:
        self.recorder.begin_region("loglikelihood")
        out = self.loglikelihoods(root_edge)
        self.recorder.end_region()
        return out

    # ------------------------------------------------------------------
    # Branch lengths
    # ------------------------------------------------------------------

    def branch_lengths(self) -> np.ndarray:
        """(n_edges, n_partitions) matrix of current lengths (joint mode:
        all columns equal)."""
        return self._stacks.branch_lengths()

    def set_branch_length(self, edge: int, value: float, partition: int | None = None) -> None:
        """Set one branch length: everywhere (joint / proportional / bulk)
        or in one partition (per-partition mode only)."""
        if partition is None:
            self._global_lengths[edge] = value
            if self.branch_mode == "proportional":
                self._stacks.set_branch_length(edge, value * self._scalers)
            else:
                self._stacks.set_branch_length(edge, value)
        else:
            if self.branch_mode != "per_partition":
                raise ValueError(
                    f"cannot set a per-partition length in {self.branch_mode} mode"
                )
            self._stacks.set_branch_length(edge, value, [partition])

    def set_edge_lengths(self, edge: int, values: np.ndarray, active=None) -> None:
        """Per-partition lengths of one edge: ``values[p]`` for every
        active partition p (the vector form of per-partition
        :meth:`set_branch_length`)."""
        self._stacks.set_branch_length(edge, values, active)

    def set_all_branch_lengths(self, lengths: np.ndarray) -> None:
        self._global_lengths[:] = lengths
        if self.branch_mode == "proportional":
            self._stacks.set_branch_lengths(lengths[:, np.newaxis] * self._scalers)
        else:
            self._stacks.set_branch_lengths(lengths)

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
        """Set one partition's length multiplier (proportional mode)."""
        values = self._scalers.copy()
        values[partition] = value
        self.set_scalers(values, [partition])

    def set_scalers(self, values: np.ndarray, active=None) -> None:
        """Set the active partitions' length multipliers (proportional
        mode)."""
        self._worker.execute(self.scaler_step(values, active))

    def scaler_step(self, values: np.ndarray, active=None) -> tuple:
        """Take ``values[p]`` as the length multipliers of the active
        partitions (proportional mode) and return the :meth:`run` step
        that rescales every branch of theirs, so their likelihood arrays
        are fully invalidated — the cost profile of an alpha change."""
        if self.branch_mode != "proportional":
            raise ValueError("scalers only exist in proportional mode")
        values = np.asarray(values, dtype=np.float64)
        chosen = np.zeros(self.n_partitions, dtype=bool)
        chosen[slice(None) if active is None else active] = True
        if (values[chosen] <= 0).any():
            raise ValueError("scalers must be positive")
        self._scalers[chosen] = values[chosen]
        return ("set_bl_edges", None, self._global_lengths[:, np.newaxis] * self._scalers,
                np.flatnonzero(chosen).tolist())

    # -- model parameters ------------------------------------------------------

    def set_alphas(self, values: np.ndarray, active=None) -> None:
        """Gamma shapes ``values[p]`` for the active partitions."""
        self._stacks.set_alphas(values, active)

    def set_models(self, models, active=None) -> None:
        """Substitution models ``models[p]`` for the active partitions."""
        self._stacks.set_models(models, active)

    def alphas(self) -> np.ndarray:
        """``(P,)`` Gamma shapes."""
        return self._stacks.gather("alphas")

    def pinvs(self) -> np.ndarray:
        """``(P,)`` invariable-site proportions."""
        return self._stacks.gather("pinvs")

    def exchangeabilities(self, index: int, active=None) -> np.ndarray:
        """``(P,)`` Q-matrix exchangeability ``index`` of the active
        partitions (1.0 elsewhere)."""
        out = np.ones(self.n_partitions)
        models = self._models()
        for p in self._active_indices(active):
            out[p] = models[p].rates[index]
        return out

    def frequency_ratios(self, index: int, active=None) -> np.ndarray:
        """``(P,)`` stationary-frequency ratio ``index`` (against the last
        state) of the active partitions (1.0 elsewhere)."""
        from ..plk.frequencies import frequency_ratios

        out = np.ones(self.n_partitions)
        models = self._models()
        for p in self._active_indices(active):
            out[p] = frequency_ratios(models[p].frequencies)[index]
        return out

    def set_exchangeabilities(self, index: int, values: np.ndarray, active=None) -> None:
        """Q-matrix exchangeability ``index`` := ``values[p]`` for the
        active partitions."""
        self._worker.execute(self.exchangeability_step(index, values, active))

    def exchangeability_step(self, index: int, values: np.ndarray, active=None) -> tuple:
        """The :meth:`run` step of :meth:`set_exchangeabilities`: one new
        model per active partition, then one stack update."""
        models = list(self._models())
        for p in self._active_indices(active):
            models[p] = models[p].with_rate(index, float(values[p]))
        return ("set_models", models, active)

    def frequency_ratio_step(self, index: int, values: np.ndarray, active=None) -> tuple:
        """The :meth:`run` step setting stationary-frequency ratio
        ``index`` (against the last state) := ``values[p]`` for the
        active partitions."""
        from ..plk.frequencies import frequency_ratios, ratios_to_frequencies

        models = list(self._models())
        for p in self._active_indices(active):
            ratios = frequency_ratios(models[p].frequencies)
            ratios[index] = float(values[p])
            models[p] = models[p].with_frequencies(ratios_to_frequencies(ratios))
        return ("set_models", models, active)

    def _models(self) -> list[SubstitutionModel]:
        return [part.model for part in self.parts]

    def _active_indices(self, active) -> list[int]:
        if active is None:
            return list(range(self.n_partitions))
        flags = np.asarray(active)
        return (np.flatnonzero(flags) if flags.dtype == bool else flags).tolist()

    def set_pinvs(self, values: np.ndarray, active=None) -> None:
        """Invariable-site proportions ``values[p]`` for the active
        partitions (no likelihood array is invalidated)."""
        self._stacks.set_pinvs(values, active)

    # ------------------------------------------------------------------
    # Topology bookkeeping
    # ------------------------------------------------------------------

    def invalidate_topology(self, nodes: list[int] | None = None) -> None:
        """Invalidate CLVs after a topology move: the given inner nodes, or
        everything if None."""
        self._stacks.invalidate(nodes)

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------

    def run(self, label: str, steps) -> list:
        """Execute one parallel region: the worker commands ``steps``
        (:class:`~repro.parallel.worker.WorkerState` vocabulary) in order
        on this engine's own stacks, recorded as ONE region ``label`` and
        — when a tracer is attached — timed as one span.  Returns each
        step's result (None for writes).  The worker team's
        :meth:`~repro.parallel.engine.ParallelPLK.run` sends the same
        steps as one broadcast, so one schedule drives both engines."""
        self.recorder.begin_region(label)
        try:
            if not self.tracer.enabled:
                return [self._worker.execute(step) for step in steps]
            with self.tracer.span(label, cat="region"):
                return [self._worker.execute(step) for step in steps]
        finally:
            self.recorder.end_region()
