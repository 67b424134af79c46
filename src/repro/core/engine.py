"""The partitioned likelihood engine (the object the paper's master thread
manages).

:class:`PartitionedEngine` holds the partitions of an alignment as
likelihood stacks over one shared tree topology (:class:`~repro.plk.
stacking.PartitionStacks`: one :class:`~repro.plk.likelihood.
PartitionLikelihood` per group of same-state, similar-width partitions),
and exposes the whole-alignment operations the search and optimization
layers need: total and per-partition log-likelihoods, the Newton-Raphson
branch machinery and parameter setters as vector calls over an active
partition set, branch-length get/set in *joint* (one length per branch,
shared by all partitions), *per-partition* (unlinked, Fig. 2 of the paper)
or *proportional* mode, and bulk invalidation after topology moves.
``parts[p]`` is partition p's per-partition view.

Every kernel operation flows through the engine's recorder, so any analysis
run doubles as a schedule capture for the machine simulator.
"""
from __future__ import annotations

import numpy as np

from ..obs.convergence import NullTelemetry
from ..obs.metrics import NullMetrics
from ..obs.tracer import NullTracer
from ..plk.likelihood import EdgeWorkspace, PartitionView
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

    def set_edges_lengths(self, edges, values: np.ndarray, active=None) -> None:
        """``(E, P)`` per-partition lengths of the listed edges in one
        call: ``values[i, p]`` for ``edges[i]`` and every active
        partition p."""
        self._stacks.set_branch_lengths(values, active, edges)

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
        mode); each rescales every branch of its partition, so its
        likelihood arrays are fully invalidated — the same cost profile
        as an alpha change."""
        if self.branch_mode != "proportional":
            raise ValueError("scalers only exist in proportional mode")
        values = np.asarray(values, dtype=np.float64)
        chosen = np.zeros(self.n_partitions, dtype=bool)
        chosen[slice(None) if active is None else active] = True
        if (values[chosen] <= 0).any():
            raise ValueError("scalers must be positive")
        self._scalers[chosen] = values[chosen]
        self._stacks.set_branch_lengths(
            self._global_lengths[:, np.newaxis] * self._scalers, chosen
        )

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
        active partitions (one new model per partition, then one stack
        update)."""
        models = list(self._models())
        for p in self._active_indices(active):
            models[p] = models[p].with_rate(index, float(values[p]))
        self.set_models(models, active)

    def set_frequency_ratios(self, index: int, values: np.ndarray, active=None) -> None:
        """Stationary-frequency ratio ``index`` (against the last state)
        := ``values[p]`` for the active partitions."""
        from ..plk.frequencies import frequency_ratios, ratios_to_frequencies

        models = list(self._models())
        for p in self._active_indices(active):
            ratios = frequency_ratios(models[p].frequencies)
            ratios[index] = float(values[p])
            models[p] = models[p].with_frequencies(ratios_to_frequencies(ratios))
        self.set_models(models, active)

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
    # Newton-Raphson plumbing shared by the strategies
    # ------------------------------------------------------------------

    def prepare_edges(self, edges, active=None) -> list[EdgeWorkspace | None]:
        """Sumtables for every listed edge in the active partitions: one
        edge-stacked workspace per stack, no region of its own."""
        return self._stacks.prepare_edges(edges, active)

    def edge_derivatives(self, workspaces, z: np.ndarray, active=None):
        """``(d1, d2)``, each ``(E, P)``: derivatives at the ``(E, P)``
        lengths ``z`` for the lanes of the ``(E, P)`` mask ``active``
        (default: every prepared lane)."""
        return self._stacks.edge_derivatives(workspaces, z, active)

    def edge_loglikelihoods(self, workspaces, z: np.ndarray, active=None) -> np.ndarray:
        """``(E, P)`` log-likelihoods, each as a function of its own
        edge's length at ``z``."""
        return self._stacks.edge_loglikelihoods(workspaces, z, active)

    def prepare_branch_all(self, edge: int) -> list[EdgeWorkspace | None]:
        """The one-edge workspaces of ``edge`` in every partition, in ONE
        region (the newPAR grouping)."""
        self.recorder.begin_region("prepare")
        out = self.prepare_edges([edge])
        self.recorder.end_region()
        return out

    def prepare_branch_one(self, edge: int, partition: int) -> list[EdgeWorkspace | None]:
        """The one-edge workspace of one partition (its own region — the
        oldPAR way)."""
        self.recorder.begin_region("prepare")
        out = self.prepare_edges([edge], [partition])
        self.recorder.end_region()
        return out
