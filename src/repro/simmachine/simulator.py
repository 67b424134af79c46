"""Deterministic replay of kernel-op traces on a simulated multicore.

:func:`simulate_trace` executes a :class:`~repro.core.trace.Trace` — the
exact region/barrier schedule a real analysis run produced — under a
chosen :class:`~repro.simmachine.machine.MachineSpec`, thread count and
pattern-distribution policy, and reports the makespan plus a per-thread
busy/idle/sync decomposition.

Execution semantics (matching the Pthreads master/worker design of paper
Fig. 1):

1. the master dispatches the region's command (``dispatch_ns``, charged
   once per region when more than one thread runs);
2. every worker processes its share of every work item; the region's span
   is the *maximum* per-thread busy time (threads with little or no work
   idle until the slowest finishes — this idle time IS the load imbalance
   the paper studies);
3. one barrier (cost grows with thread count) retires the region.

Memory-bandwidth contention uses the number of *working* threads in the
region, so a region that keeps only 2 of 16 threads busy also only has 2
threads sharing DRAM.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.trace import Trace
from .costmodel import seconds_per_pattern
from .machine import MachineSpec

__all__ = ["SimulationResult", "simulate_trace", "speedup_curve"]


@dataclass
class SimulationResult:
    """Outcome of replaying one trace on one machine configuration."""

    machine: str
    n_threads: int
    distribution: str
    total_seconds: float
    busy_seconds: np.ndarray          # (T,) productive compute per thread
    idle_seconds: np.ndarray          # (T,) time waiting for the slowest
    sync_seconds: float               # dispatch + barrier total
    n_regions: int
    label_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        """Mean busy fraction across threads (1.0 = perfect balance)."""
        denom = self.total_seconds * self.n_threads
        return float(self.busy_seconds.sum() / denom) if denom > 0 else 0.0

    @property
    def imbalance(self) -> float:
        """Max over mean per-thread busy seconds (1.0 = perfect balance) —
        the load metric the distribution policies minimize; directly
        comparable with :attr:`repro.perf.RunProfile.imbalance`."""
        from ..parallel.distribution import imbalance_ratio

        return imbalance_ratio(self.busy_seconds)

    def decomposition(self) -> dict:
        """The shared predicted-vs-measured comparison shape (also
        implemented by :class:`repro.perf.RunProfile`), so a simulated
        prediction can be compared against a real profiled run with
        :func:`repro.perf.compare_decompositions`."""
        return {
            "n_workers": self.n_threads,
            "total_seconds": self.total_seconds,
            "busy_seconds": [float(b) for b in self.busy_seconds],
            "idle_seconds": [float(i) for i in self.idle_seconds],
            "sync_seconds": self.sync_seconds,
            "efficiency": self.efficiency,
        }

    def summary(self) -> str:
        return (
            f"{self.machine:<11} T={self.n_threads:<3} {self.distribution:<6} "
            f"time={self.total_seconds:10.2f}s  efficiency={self.efficiency:6.1%}  "
            f"sync={self.sync_seconds:8.2f}s"
        )


def simulate_trace(
    trace: Trace,
    machine: MachineSpec,
    n_threads: int,
    distribution: str = "cyclic",
) -> SimulationResult:
    """Replay ``trace`` with ``n_threads`` workers on ``machine``.

    ``distribution`` is a policy name from
    :data:`repro.parallel.DISTRIBUTIONS` (``cyclic`` or ``block``).
    """
    # Imported lazily: repro.parallel.distribution itself imports nothing
    # from simmachine, but going through the repro.parallel package here
    # at module scope would create an import cycle.
    from ..parallel.distribution import partition_thread_counts

    if trace.pattern_counts is None or trace.states is None:
        raise ValueError("trace not finalized: missing dataset geometry")
    if n_threads < 1:
        raise ValueError("need at least one thread")
    if n_threads > machine.cores:
        raise ValueError(
            f"{machine.name} has {machine.cores} cores; cannot run {n_threads} threads"
        )

    counts = trace.pattern_counts
    categories = trace.categories
    t = n_threads

    # Per-partition per-thread counts are fixed per policy (they do not
    # change between regions).
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    n_patterns = int(np.sum(counts))
    share_matrix = np.stack([
        partition_thread_counts(distribution, int(offsets[p]), int(n), n_patterns, t)
        for p, n in enumerate(counts)
    ])  # (P, T)

    busy = np.zeros(t)
    idle = np.zeros(t)
    sync = 0.0
    total = 0.0
    label_time: dict[str, float] = {}
    dispatch = machine.dispatch_seconds() if t > 1 else 0.0
    barrier = machine.barrier_seconds(t)
    overhead = dispatch + barrier

    n_parts = len(counts)
    active_per_part = np.maximum((share_matrix > 0).sum(axis=1), 1)
    max_share = share_matrix.max(axis=1).astype(np.float64)
    from .costmodel import _OP_INDEX  # op name -> row in the spp table

    spp_table = np.empty((n_parts, len(_OP_INDEX)))
    for p in range(n_parts):
        for op, j in _OP_INDEX.items():
            spp_table[p, j] = seconds_per_pattern(
                op, int(trace.states[p]), categories, machine, int(active_per_part[p])
            )

    # Fast path: regions whose items all touch ONE partition (the
    # overwhelming majority in oldPAR traces: every NR iteration, sumtable
    # setup and per-partition Brent objective) are costed in bulk with
    # array arithmetic; genuinely multi-partition regions (newPAR batches,
    # whole-alignment evaluations) fall back to the general loop.  The
    # split is structural, so it is compiled once per trace and memoized.
    compiled = getattr(trace, "_compiled_regions", None)
    if compiled is None:
        item_p: list[int] = []
        item_op: list[int] = []
        item_cnt: list[int] = []
        item_region: list[int] = []
        region_p: list[int] = []
        region_label: list[str] = []
        multi: list[Region] = []
        for region in trace.regions:
            parts_touched = {it.partition for it in region.items}
            if len(parts_touched) == 1:
                rid = len(region_p)
                region_p.append(next(iter(parts_touched)))
                region_label.append(region.label)
                for it in region.items:
                    item_p.append(it.partition)
                    item_op.append(_OP_INDEX[it.op])
                    item_cnt.append(it.count)
                    item_region.append(rid)
            else:
                multi.append(region)
        compiled = (
            np.asarray(item_p, dtype=np.intp),
            np.asarray(item_op, dtype=np.intp),
            np.asarray(item_cnt, dtype=np.float64),
            np.asarray(item_region, dtype=np.intp),
            np.asarray(region_p, dtype=np.intp),
            tuple(region_label),
            tuple(multi),
        )
        trace._compiled_regions = compiled
    (item_p, item_op, item_cnt, item_region,
     region_p, region_label, multi) = compiled

    if len(region_p):
        # per-item time for one "pattern row" share, then summed per region
        unit = spp_table[item_p, item_op] * item_cnt
        region_unit = np.zeros(len(region_p))
        np.add.at(region_unit, item_region, unit)
        spans = max_share[region_p] * region_unit
        total += float(spans.sum()) + overhead * len(region_p)
        sync += overhead * len(region_p)
        # busy: group item work by (partition, op)
        weight = np.zeros((n_parts, len(_OP_INDEX)))
        np.add.at(weight, (item_p, item_op), item_cnt)
        per_part_time = (weight * spp_table).sum(axis=1)  # (P,)
        single_busy = share_matrix.T @ per_part_time
        busy += single_busy
        idle += float(spans.sum()) - single_busy
        # per-label totals, vectorized via label interning
        label_names = sorted({lab for lab in region_label if lab})
        if label_names:
            lab_id = {lab: i for i, lab in enumerate(label_names)}
            lab_idx = np.asarray(
                [lab_id.get(lab, -1) for lab in region_label], dtype=np.intp
            )
            sums = np.zeros(len(label_names))
            valid = lab_idx >= 0
            np.add.at(sums, lab_idx[valid], (spans + overhead)[valid])
            for lab, s in zip(label_names, sums):
                label_time[lab] = label_time.get(lab, 0.0) + float(s)

    region_busy = np.zeros(t)
    for region in multi:
        region_busy[:] = 0.0
        working = np.zeros(t, dtype=bool)
        for item in region.items:
            working |= share_matrix[item.partition] > 0
        active = max(int(working.sum()), 1)
        for item in region.items:
            spp = seconds_per_pattern(
                item.op, int(trace.states[item.partition]), categories, machine, active
            )
            region_busy += share_matrix[item.partition] * (item.count * spp)
        span = float(region_busy.max())
        busy += region_busy
        idle += span - region_busy
        sync += overhead
        total += span + overhead
        if region.label:
            label_time[region.label] = label_time.get(region.label, 0.0) + span + overhead

    return SimulationResult(
        machine=machine.name,
        n_threads=t,
        distribution=distribution,
        total_seconds=total,
        busy_seconds=busy,
        idle_seconds=idle,
        sync_seconds=sync,
        n_regions=trace.n_regions,
        label_seconds=label_time,
    )


def speedup_curve(
    trace: Trace,
    machine: MachineSpec,
    thread_counts: list[int],
    distribution: str = "cyclic",
) -> dict[int, float]:
    """Speedups over the 1-thread replay for each thread count (the
    quantity plotted in paper Fig. 6).  ``distribution`` accepts any
    policy name."""
    base = simulate_trace(trace, machine, 1, distribution).total_seconds
    return {
        n: base / simulate_trace(trace, machine, n, distribution).total_seconds
        for n in thread_counts
    }
