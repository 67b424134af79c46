"""Kernel-operation traces: the schedule the parallel PLK executes.

The Pthreads PLK is a master/worker design (paper Fig. 1): the master
issues a command (recompute these likelihood arrays / compute branch
derivatives / evaluate), every worker executes the command over *its*
share of the alignment patterns, and a barrier (plus, for score
computations, a reduction) ends the command.  We call one such
command-execute-barrier unit a :class:`Region`.

A :class:`Trace` is the sequence of regions a full analysis run performs.
Its defining property: the region sequence is identical no matter how many
workers execute it — parallelism only changes how each region's work is
split.  That is why a trace captured from a *real* single-process run of
our PLK can be replayed by :mod:`repro.simmachine` under any thread count,
platform and distribution policy: the load-balance phenomenon lives
entirely in the per-region active-partition sets, which the oldPAR and
newPAR strategies shape differently.

Ops recorded per region (matching :class:`repro.plk.likelihood`'s hooks):

========== =============================================================
``newview``    one pruning step (cost ~ states^2 * K per pattern)
``sumtable``   branch sumtable setup (cost ~ states^2 * K per pattern)
``derivative`` one NR derivative pass (cost ~ states * K per pattern)
``evaluate``   root score reduction (cost ~ states^2 * K per pattern)
========== =============================================================
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WorkItem",
    "Region",
    "Trace",
    "TraceRecorder",
    "NullRecorder",
    "COMMAND_KINDS",
    "REGION_KINDS",
    "command_kind",
    "describe_command",
]

KNOWN_OPS = ("newview", "sumtable", "derivative", "evaluate")

# Region kinds shared between the simulator's predicted schedule and the
# real team's measured schedule (repro.perf).  The first four are the
# kernel ops above; "control" covers parameter updates and bookkeeping
# commands whose cost is pure synchronization (no per-pattern work).
REGION_KINDS = KNOWN_OPS + ("control",)

# Master-broadcast command -> region kind.  One broadcast == one region:
# this is the dictionary that lets a measured RunProfile and a simulated
# SimulationResult speak the same per-region vocabulary.  Likelihood
# evaluations ("lnl", "lnl_parts", ...) internally perform newview work
# too; they are classified by their terminal reduction, matching how the
# strategy drivers label the simulator's regions.
COMMAND_KINDS = {
    "lnl": "evaluate",
    "lnl_parts": "evaluate",
    "lnl_edges": "evaluate",
    "lnl_regrafts": "evaluate",
    "prepare_edges": "sumtable",
    "deriv_edges": "derivative",
    "set_bl_edges": "control",
    "set_alpha_vec": "control",
    "set_column": "control",
    "set_pinvs": "control",
    "release": "control",
    # Fault injection: live-plane stall drills and the serve tier's
    # worker-death chaos drill.
    "stall": "control",
    "die": "control",
    # Fused programs are classified by their highest-priority step via
    # describe_command(); this entry is the all-control degenerate case.
    "prog": "control",
}

#: Which step kind names a fused program: the first of these any of its
#: steps has (else "control").  A program that prepares sumtables is a
#: sumtable region whatever else it does, so the tree schedule's sweep
#: opening (which also evaluates) shows its sumtable time.
_PROGRAM_KIND_ORDER = ("sumtable", "evaluate", "derivative")


def command_kind(op: str) -> str:
    """The region kind of a parallel-backend command (default: control)."""
    return COMMAND_KINDS.get(op, "control")


def describe_command(cmd: tuple) -> tuple[str, str, int]:
    """``(label, region_kind, n_commands)`` of one master broadcast.

    Plain commands describe themselves (``n_commands == 1``).  A fused
    program ``("prog", steps)`` is ONE broadcast/barrier executing
    ``len(steps)`` worker commands: it is labelled ``prog(op1+op2+...)``
    and classified by the highest-priority kind among its steps
    (sumtable > evaluate > derivative > control), so e.g. a
    prepare+derivative program, or a sweep opening that also evaluates,
    profiles as a single sumtable region — one barrier, not two.  This
    is the same accounting the simulator applies: a multi-op region is
    charged dispatch + barrier once.
    """
    op = cmd[0]
    if op != "prog":
        return op, command_kind(op), 1
    ops = [step[0] for step in cmd[1]]
    kinds = {command_kind(o) for o in ops}
    kind = next((k for k in _PROGRAM_KIND_ORDER if k in kinds), "control")
    return "prog(" + "+".join(ops) + ")", kind, len(ops)


@dataclass(frozen=True)
class WorkItem:
    """``count`` repetitions of one kernel op over one partition's patterns."""

    partition: int
    op: str
    patterns: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.op not in KNOWN_OPS:
            raise ValueError(f"unknown kernel op {self.op!r}")
        if self.patterns < 0 or self.count <= 0:
            raise ValueError("patterns must be >= 0 and count positive")


@dataclass
class Region:
    """One master command: work items executed by all workers in parallel,
    terminated by one barrier.  ``label`` is a human-readable tag of the
    algorithmic phase that issued it (for reporting/ablations)."""

    items: list[WorkItem] = field(default_factory=list)
    label: str = ""

    def active_partitions(self) -> set[int]:
        return {it.partition for it in self.items}

    def total_pattern_ops(self) -> int:
        """Serial op count: sum over items of patterns * count."""
        return sum(it.patterns * it.count for it in self.items)


@dataclass
class Trace:
    """A recorded analysis schedule plus the dataset geometry needed to
    cost it (per-partition pattern counts and state-space sizes)."""

    regions: list[Region] = field(default_factory=list)
    pattern_counts: np.ndarray | None = None   # (P,) m'_p
    states: np.ndarray | None = None           # (P,) 4 or 20
    categories: int = 4

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def op_totals(self) -> dict[str, int]:
        """Serial pattern-op totals by op kind (old/new must agree: the
        strategies regroup work, they do not change it)."""
        totals: dict[str, int] = {op: 0 for op in KNOWN_OPS}
        for region in self.regions:
            for item in region.items:
                totals[item.op] += item.patterns * item.count
        return totals

    def partition_op_totals(self) -> dict[tuple[int, str], int]:
        """Per-(partition, op) serial totals, for invariant checks."""
        totals: dict[tuple[int, str], int] = {}
        for region in self.regions:
            for item in region.items:
                key = (item.partition, item.op)
                totals[key] = totals.get(key, 0) + item.patterns * item.count
        return totals


class TraceRecorder:
    """Collects kernel ops into regions.

    Strategy drivers bracket multi-partition work with
    :meth:`begin_region` / :meth:`end_region`; kernel ops reported while no
    region is open become single-op regions (op = own barrier), which is
    precisely the oldPAR degenerate case.

    Implements the listener protocol of
    :class:`repro.plk.likelihood.PartitionLikelihood` (``newview`` /
    ``evaluate`` / ``sumtable`` / ``derivative``).
    """

    def __init__(self) -> None:
        self.trace = Trace()
        self._open: Region | None = None

    # -- region bracketing ------------------------------------------------

    def begin_region(self, label: str = "") -> None:
        if self._open is not None:
            raise RuntimeError("a region is already open (regions do not nest)")
        self._open = Region(label=label)

    def end_region(self) -> None:
        if self._open is None:
            raise RuntimeError("no region open")
        if self._open.items:  # empty commands are not issued
            self.trace.regions.append(self._open)
        self._open = None

    def _record(self, partition: int, op: str, patterns: int, count: int = 1) -> None:
        item = WorkItem(partition=partition, op=op, patterns=patterns, count=count)
        if self._open is not None:
            self._open.items.append(item)
        else:
            self.trace.regions.append(Region(items=[item], label=op))

    # -- PartitionLikelihood listener protocol -----------------------------

    def newview(self, partition: int, patterns: int, count: int = 1) -> None:
        self._record(partition, "newview", patterns, count)

    def evaluate(self, partition: int, patterns: int) -> None:
        self._record(partition, "evaluate", patterns)

    def sumtable(self, partition: int, patterns: int) -> None:
        self._record(partition, "sumtable", patterns)

    def derivative(self, partition: int, patterns: int) -> None:
        self._record(partition, "derivative", patterns)

    # -- finishing ---------------------------------------------------------

    def finalize(
        self,
        pattern_counts: np.ndarray,
        states: np.ndarray,
        categories: int = 4,
    ) -> Trace:
        """Attach dataset geometry (pattern **counts** and state sizes)
        and return the trace."""
        if self._open is not None:
            raise RuntimeError("finalize() with a region still open")
        self.trace.pattern_counts = np.asarray(pattern_counts, dtype=np.int64)
        self.trace.states = np.asarray(states, dtype=np.int64)
        self.trace.categories = categories
        return self.trace


class NullRecorder:
    """A recorder that discards everything (used when only the numerical
    result matters); also valid anywhere a TraceRecorder is expected —
    including code paths that finalize unconditionally: ``trace`` exists
    (and stays empty) and :meth:`finalize` attaches geometry exactly like
    :meth:`TraceRecorder.finalize`, so callers need no isinstance checks."""

    def __init__(self) -> None:
        self.trace = Trace()

    def begin_region(self, label: str = "") -> None:  # noqa: D102
        pass

    def end_region(self) -> None:  # noqa: D102
        pass

    def newview(self, partition: int, patterns: int, count: int = 1) -> None:  # noqa: D102
        pass

    def evaluate(self, partition: int, patterns: int) -> None:  # noqa: D102
        pass

    def sumtable(self, partition: int, patterns: int) -> None:  # noqa: D102
        pass

    def derivative(self, partition: int, patterns: int) -> None:  # noqa: D102
        pass

    def finalize(
        self,
        pattern_counts: np.ndarray,
        states: np.ndarray,
        categories: int = 4,
    ) -> Trace:
        """Attach dataset geometry to the (empty) trace and return it."""
        self.trace.pattern_counts = np.asarray(pattern_counts, dtype=np.int64)
        self.trace.states = np.asarray(states, dtype=np.int64)
        self.trace.categories = categories
        return self.trace
