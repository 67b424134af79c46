"""Cost-aware load balancing: per-pattern cost model, global distribution
plans, and measured-feedback rebalancing.

The paper's static policies (:mod:`repro.parallel.distribution`) treat
every alignment pattern as equally expensive.  They are not: an AA column
(20 states) costs ~25x a DNA column (4 states) in the ``states**2``
propagation loops — the paper's own explanation for the smaller
load-balance improvement on its protein datasets.  Terrace-aware
supermatrix inference (Chernomor et al.) and BEAGLE treat the
partition/pattern-to-processor assignment as an explicit cost-driven
optimization problem; this module does the same for our worker teams:

* :class:`CostModel` — relative cost of one pattern of each partition
  (``categories * states**2`` analytically; *seconds* per pattern once
  calibrated from a measured :class:`repro.perf.RunProfile`);
* :func:`build_plan` — a global :class:`DistributionPlan` under any of the
  four policies, including ``weighted`` (cost-aware cyclic: each pattern
  goes to the thread with the smallest *cumulative cost*, not the next
  index) and ``lpt`` (longest-processing-time greedy bin packing of
  contiguous partition chunks, the classic Graham heuristic);
* :class:`Rebalancer` — closes the measurement loop: per-worker busy
  seconds from a warmup pass calibrate the cost model, and the calibrated
  model drives an LPT replan that minimizes the predicted max-thread load
  for the main run.

Units
-----
``CostModel.per_pattern`` is in *relative cost units* for the analytic
model and in *seconds per pattern* after calibration; either way all
derived quantities (thread loads, imbalance ratios) are scale-free.
Pattern counts are **counts**; ``busy_seconds`` arguments are **seconds**.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .distribution import (
    DISTRIBUTIONS,
    block_indices,
    cyclic_indices,
)

__all__ = [
    "CostModel",
    "DistributionPlan",
    "PartitionLayout",
    "Rebalancer",
    "build_plan",
    "imbalance_ratio",
    "pattern_weight",
]


def pattern_weight(states: int, categories: int = 4) -> float:
    """Relative compute cost of one pattern (dimensionless cost units).

    The PLK inner loops are dominated by the ``states x states``
    propagation per Gamma category, so the weight is
    ``categories * states**2`` — which makes an AA pattern exactly the
    paper's ~25x a DNA pattern:

    >>> pattern_weight(4, 4)
    64.0
    >>> pattern_weight(20, 4) / pattern_weight(4, 4)
    25.0
    """
    if states < 2 or categories < 1:
        raise ValueError("need states >= 2 and categories >= 1")
    return float(categories * states * states)


def imbalance_ratio(loads) -> float:
    """Max over mean thread load (dimensionless; 1.0 = perfect balance).

    This is the quantity the whole repo optimizes: a region lasts until
    its most-loaded thread finishes, so makespan / ideal-makespan equals
    ``max(load) / mean(load)``.  All-idle teams count as balanced:

    >>> imbalance_ratio([2.0, 2.0, 2.0, 2.0])
    1.0
    >>> imbalance_ratio([4.0, 0.0, 0.0, 0.0])
    4.0
    >>> imbalance_ratio([0.0, 0.0])
    1.0
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("need at least one thread load")
    mean = float(loads.mean())
    if mean <= 0.0:
        return 1.0
    return float(loads.max()) / mean


@dataclass(frozen=True)
class PartitionLayout:
    """The dataset geometry a distribution plan is built over.

    Attributes
    ----------
    lengths:
        Per-partition distinct-pattern counts ``m'_p`` (counts, >= 0).
    states:
        Per-partition state-space sizes (4 for DNA, 20 for AA).
    categories:
        Gamma rate categories K (count; shared by all partitions).

    >>> lay = PartitionLayout((30, 10), (4, 20))
    >>> lay.total, lay.offsets().tolist()
    (40, [0, 30])
    """

    lengths: tuple[int, ...]
    states: tuple[int, ...]
    categories: int = 4

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.states):
            raise ValueError("need one state count per partition")
        if not self.lengths:
            raise ValueError("empty layout")
        if any(length < 0 for length in self.lengths):
            raise ValueError("pattern counts must be non-negative")
        if any(s < 2 for s in self.states):
            raise ValueError("state counts must be >= 2")
        if self.categories < 1:
            raise ValueError("need at least one rate category")

    @property
    def n_partitions(self) -> int:
        return len(self.lengths)

    @property
    def total(self) -> int:
        """Global distinct-pattern count (the paper's ``m'``)."""
        return int(sum(self.lengths))

    def offsets(self) -> np.ndarray:
        """(P,) global index of each partition's first pattern."""
        return np.concatenate(
            [[0], np.cumsum(np.asarray(self.lengths, dtype=np.int64))[:-1]]
        )

    @classmethod
    def from_alignment(cls, data, categories: int = 4) -> "PartitionLayout":
        """Layout of a :class:`~repro.plk.partition.PartitionedAlignment`."""
        return cls(
            lengths=tuple(int(d.n_patterns) for d in data.data),
            states=tuple(int(d.states) for d in data.data),
            categories=categories,
        )

    @classmethod
    def from_trace(cls, trace) -> "PartitionLayout":
        """Layout of a finalized :class:`~repro.core.trace.Trace`."""
        if trace.pattern_counts is None or trace.states is None:
            raise ValueError("trace not finalized: missing dataset geometry")
        return cls(
            lengths=tuple(int(c) for c in trace.pattern_counts),
            states=tuple(int(s) for s in trace.states),
            categories=int(trace.categories),
        )


@dataclass(frozen=True)
class CostModel:
    """Per-pattern cost of each partition.

    Attributes
    ----------
    per_pattern:
        (P,) cost of one pattern of each partition — dimensionless cost
        units for the analytic model, seconds per pattern when calibrated.
    unit:
        ``"relative"`` or ``"seconds"`` (documentation only; every
        consumer is scale-free).
    """

    per_pattern: np.ndarray
    unit: str = "relative"

    def __post_init__(self) -> None:
        arr = np.asarray(self.per_pattern, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("per_pattern must be a non-empty vector")
        if (arr <= 0).any():
            raise ValueError("per-pattern costs must be positive")
        object.__setattr__(self, "per_pattern", arr)

    @classmethod
    def analytic(cls, layout: PartitionLayout) -> "CostModel":
        """The datatype-weight model: ``categories * states**2`` per
        pattern (AA ~ 25x DNA; see :func:`pattern_weight`).

        >>> lay = PartitionLayout((10, 10), (4, 20))
        >>> CostModel.analytic(lay).per_pattern.tolist()
        [64.0, 1600.0]
        """
        return cls(
            per_pattern=np.array(
                [pattern_weight(s, layout.categories) for s in layout.states]
            ),
            unit="relative",
        )

    @classmethod
    def calibrated(
        cls,
        layout: PartitionLayout,
        plan: "DistributionPlan",
        busy_seconds,
    ) -> "CostModel":
        """Fit per-pattern seconds from a measured run.

        ``busy_seconds`` is the (T,) per-worker busy time (seconds) of a
        profiled run executed under ``plan`` (e.g.
        ``RunProfile.busy_seconds`` from a warmup pass).  Partitions are
        pooled by state-space size (the datatype classes: every DNA
        partition shares one per-pattern cost, every AA partition
        another), and the class costs are the least-squares solution of

        ``class_counts[t, c] * cost[c] ~= busy_seconds[t]``.

        If the fit is degenerate (fewer informative workers than classes,
        or a non-positive solution), the analytic weights are rescaled so
        the predicted total busy time matches the measurement — the
        calibration then only fixes the overall scale.
        """
        busy = np.asarray(busy_seconds, dtype=np.float64)
        if busy.shape != (plan.n_threads,):
            raise ValueError(
                f"busy_seconds must have shape ({plan.n_threads},), got {busy.shape}"
            )
        states = np.asarray(layout.states)
        classes = sorted(set(int(s) for s in states))
        # (T, C) patterns of each datatype class owned per thread.
        class_counts = np.zeros((plan.n_threads, len(classes)))
        for c, s in enumerate(classes):
            sel = states == s
            class_counts[:, c] = plan.counts[sel].sum(axis=0)
        analytic = np.array([pattern_weight(s, layout.categories) for s in classes])
        solution = None
        if busy.sum() > 0:
            x, _, rank, _ = np.linalg.lstsq(class_counts, busy, rcond=None)
            if rank == len(classes) and (x > 0).all():
                solution = x
        if solution is None:
            # Rescale the analytic weights to the measured total.
            predicted = float((class_counts @ analytic).sum())
            scale = busy.sum() / predicted if predicted > 0 else 1.0
            solution = analytic * max(scale, np.finfo(float).tiny)
        by_class = {s: float(v) for s, v in zip(classes, solution)}
        return cls(
            per_pattern=np.array([by_class[int(s)] for s in states]),
            unit="seconds",
        )

    def partition_costs(self, layout: PartitionLayout) -> np.ndarray:
        """(P,) total cost of each partition: ``per_pattern * m'_p``."""
        return self.per_pattern * np.asarray(layout.lengths, dtype=np.float64)


@dataclass(frozen=True)
class DistributionPlan:
    """A concrete pattern-to-thread assignment for one dataset.

    The plan is what the worker teams slice tip data with and what the
    simulator costs: ``indices[p][t]`` is the (sorted) array of
    partition-local pattern indices thread ``t`` owns in partition ``p``,
    and ``counts[p, t] == len(indices[p][t])``.
    """

    policy: str
    n_threads: int
    layout: PartitionLayout
    cost: CostModel
    indices: tuple[tuple[np.ndarray, ...], ...]
    counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        counts = np.array(
            [[len(idx) for idx in per_thread] for per_thread in self.indices],
            dtype=np.int64,
        )
        object.__setattr__(self, "counts", counts)

    @property
    def n_partitions(self) -> int:
        return self.layout.n_partitions

    def thread_indices(self, partition: int, thread: int) -> np.ndarray:
        """Partition-local indices thread ``thread`` owns in ``partition``."""
        return self.indices[partition][thread]

    def partition_thread_counts(self, partition: int) -> np.ndarray:
        """(T,) per-thread pattern counts of one partition (counts)."""
        return self.counts[partition].copy()

    def thread_patterns(self) -> np.ndarray:
        """(T,) raw pattern counts per thread (counts)."""
        return self.counts.sum(axis=0)

    def thread_costs(self) -> np.ndarray:
        """(T,) predicted load per thread in the plan's cost units."""
        return self.counts.T @ self.cost.per_pattern

    def imbalance(self) -> float:
        """Predicted max/mean thread-load ratio (1.0 = perfect)."""
        return imbalance_ratio(self.thread_costs())

    def summary(self) -> str:
        """One-line human-readable description of the plan's balance."""
        loads = self.thread_costs()
        return (
            f"{self.policy}: T={self.n_threads} "
            f"patterns/thread {self.thread_patterns().min()}-"
            f"{self.thread_patterns().max()} "
            f"imbalance {self.imbalance():.3f} "
            f"(load {loads.min():.3g}..{loads.max():.3g} {self.cost.unit})"
        )


def _weighted_indices(
    layout: PartitionLayout, n_threads: int, cost: CostModel
) -> list[list[list[int]]]:
    """Cost-aware cyclic: walk the global pattern vector in order and hand
    each pattern to the thread with the smallest cumulative cost so far
    (ties break toward the lowest thread id, so homogeneous data reduces
    to plain round-robin)."""
    heap = [(0.0, t) for t in range(n_threads)]
    owned: list[list[list[int]]] = [
        [[] for _ in range(n_threads)] for _ in range(layout.n_partitions)
    ]
    for p, length in enumerate(layout.lengths):
        c = float(cost.per_pattern[p])
        bucket = owned[p]
        for local in range(length):
            load, t = heapq.heappop(heap)
            bucket[t].append(local)
            heapq.heappush(heap, (load + c, t))
    return owned


def _lpt_indices(
    layout: PartitionLayout, n_threads: int, cost: CostModel
) -> list[list[list[int]]]:
    """Longest-processing-time greedy bin packing of contiguous partition
    chunks (each partition is pre-split into at most T chunks so no thread
    can be forced to own more than a 1/T share of any partition)."""
    chunks: list[tuple[float, int, int, int]] = []  # (-cost, p, start, stop)
    for p, length in enumerate(layout.lengths):
        if length == 0:
            continue
        flat = float(cost.per_pattern[p])
        chunk_len = -(-length // n_threads)
        for start in range(0, length, chunk_len):
            stop = min(start + chunk_len, length)
            chunks.append((-(stop - start) * flat, p, start, stop))
    # Heaviest first; ties resolved by (partition, start) for determinism.
    chunks.sort()
    heap = [(0.0, t) for t in range(n_threads)]
    owned: list[list[list[int]]] = [
        [[] for _ in range(n_threads)] for _ in range(layout.n_partitions)
    ]
    for neg_cost, p, start, stop in chunks:
        load, t = heapq.heappop(heap)
        owned[p][t].extend(range(start, stop))
        heapq.heappush(heap, (load - neg_cost, t))
    return owned


def build_plan(
    layout: PartitionLayout,
    n_threads: int,
    policy: str = "cyclic",
    cost_model: CostModel | None = None,
) -> DistributionPlan:
    """Build the global pattern-to-thread assignment for one policy.

    ``cost_model`` defaults to :meth:`CostModel.analytic`; it drives the
    assignment for ``weighted``/``lpt`` and is reporting-only (predicted
    loads, imbalance) for ``cyclic``/``block``.

    >>> lay = PartitionLayout((8, 2), (4, 20), categories=4)
    >>> plan = build_plan(lay, 2, "weighted")
    >>> sorted(np.concatenate(plan.indices[0]).tolist())   # full coverage
    [0, 1, 2, 3, 4, 5, 6, 7]
    >>> plan.counts.sum(axis=1).tolist()                   # every pattern placed once
    [8, 2]
    >>> plan.imbalance() <= build_plan(lay, 2, "block").imbalance()
    True
    """
    if policy not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {policy!r}; known: {DISTRIBUTIONS}")
    if n_threads < 1:
        raise ValueError("need at least one thread")
    cost = cost_model if cost_model is not None else CostModel.analytic(layout)
    if cost.per_pattern.shape != (layout.n_partitions,):
        raise ValueError("cost model and layout disagree on partition count")
    offsets = layout.offsets()
    total = layout.total
    if policy == "cyclic":
        indices = tuple(
            tuple(
                cyclic_indices(int(offsets[p]), int(length), n_threads, t)
                for t in range(n_threads)
            )
            for p, length in enumerate(layout.lengths)
        )
    elif policy == "block":
        indices = tuple(
            tuple(
                block_indices(int(offsets[p]), int(length), total, n_threads, t)
                for t in range(n_threads)
            )
            for p, length in enumerate(layout.lengths)
        )
    else:
        builder = _weighted_indices if policy == "weighted" else _lpt_indices
        owned = builder(layout, n_threads, cost)
        indices = tuple(
            tuple(np.asarray(sorted(per_thread[t]), dtype=np.int64)
                  for t in range(n_threads))
            for per_thread in owned
        )
    return DistributionPlan(
        policy=policy, n_threads=n_threads, layout=layout, cost=cost,
        indices=indices,
    )


class Rebalancer:
    """Measured-feedback rebalancing: warmup measurement in, better plan out.

    The loop the paper never closes: run a short warmup pass under any
    starting plan with a :class:`repro.perf.Profiler` attached, feed the
    measured per-worker busy seconds back in, and get a new plan whose
    predicted max-thread load is minimized under the *calibrated* (not
    analytic) cost model.

    Parameters
    ----------
    layout:
        Dataset geometry the plans are built over.
    n_threads:
        Worker-team size the new plan targets (may differ from the warmup
        team's size only if ``calibrate`` is given matching busy vectors).
    policy:
        Replan policy (default ``"lpt"`` — the strongest minimizer of the
        max-thread load; ``"weighted"`` is also sensible).

    Example
    -------
    ::

        plan = build_plan(layout, 4, "cyclic")
        with ParallelPLK(data, tree, models, alphas, 4,
                         distribution=plan, profiler=prof) as team:
            team.optimize_branches(edges, "new")       # warmup pass
        better = Rebalancer(layout, 4).rebalance(plan, prof.profile())
        with ParallelPLK(data, tree, models, alphas, 4,
                         distribution=better) as team:
            ...                                        # main run
    """

    def __init__(
        self,
        layout: PartitionLayout,
        n_threads: int,
        policy: str = "lpt",
    ):
        if policy not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {policy!r}; known: {DISTRIBUTIONS}")
        self.layout = layout
        self.n_threads = int(n_threads)
        self.policy = policy

    def calibrate(self, plan: DistributionPlan, busy_seconds) -> CostModel:
        """Per-pattern seconds from a measured run under ``plan`` (see
        :meth:`CostModel.calibrated`)."""
        return CostModel.calibrated(self.layout, plan, busy_seconds)

    def rebalance(
        self, plan: DistributionPlan, measurement, recorder=None
    ) -> DistributionPlan:
        """A new plan from a measurement taken under ``plan``.

        ``measurement`` is a :class:`repro.perf.RunProfile` (its
        ``busy_seconds`` are used) or a raw (T,) busy-seconds vector.
        ``recorder`` (a :class:`repro.obs.live.FlightRecorder` or the
        :class:`~repro.obs.live.LiveTelemetry` facade) gets a
        ``rebalance`` event stamping the measured imbalance and both
        plans' predicted ratios, so mid-run rebalance decisions show up
        in post-mortem dumps.
        """
        busy = getattr(measurement, "busy_seconds", measurement)
        model = self.calibrate(plan, busy)
        new_plan = build_plan(self.layout, self.n_threads, self.policy, model)
        if recorder is not None:
            recorder.record(
                "rebalance",
                policy=self.policy,
                measured_imbalance=round(imbalance_ratio(busy), 6),
                old_predicted=round(plan.imbalance(), 6),
                new_predicted=round(new_plan.imbalance(), 6),
            )
        return new_plan
