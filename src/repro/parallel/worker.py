"""Worker-side state and command execution for the real parallel team.

Every worker owns a *pattern slice* of each partition (cyclic or block
assignment, fixed at startup — RAxML's data-parallel ownership: likelihood
arrays never migrate between threads).  The master broadcasts small
commands; each worker executes them against its private partition stacks
(:class:`~repro.plk.stacking.PartitionStacks`: one numpy call per stack
and command, whatever the number of active partitions) and returns a
partial result (a partial log-likelihood or partial derivative sums),
which the master reduces.  One command == one region of the simulator's
vocabulary.

Many commands can travel as ONE broadcast: the master sends
``("prog", steps)``, each worker executes the steps back to back over its
private pattern slice and returns one partial result per step, and the
collective completion of that exchange is the only barrier.  Worker-side
results are reduction-ready partials, so the master reduces exactly as it
would for ``len(steps)`` separate broadcasts.

A worker may own ZERO patterns of a short partition (the paper's
``m'_p < T`` worst case): that member of its stack is all padding at
weight 0 and contributes exactly 0 to every reduction — it simply idles
through the command, exactly like the idle threads the paper describes.
"""
from __future__ import annotations

import os
import time

import numpy as np

from ..plk.likelihood import EdgeWorkspace
from ..plk.partition import PartitionData, PartitionedAlignment
from ..plk.stacking import PartitionStacks
from ..plk.tree import Tree
from .distribution import DISTRIBUTIONS, block_indices, cyclic_indices
from .shm import WorkerStatsWriter

__all__ = ["WIRE_VERSION", "slice_partition_data", "WorkerState"]

#: Version of the master<->worker wire protocol: the command vocabulary
#: (the ``_cmd_*`` methods of :class:`WorkerState`), the ``("prog",
#: steps)`` fusion format, the pickled bare command frame and the pickled
#: ``(tag, payload, busy)`` reply (every reply carries the worker's busy
#: seconds).  Documented as a protocol reference in
#: ``docs/ARCHITECTURE.md``; bump on any incompatible change to the command
#: vocabulary or the framing (adding a command is compatible).
WIRE_VERSION = 6

# Captured at import (pre-fork): lets ``_cmd_die`` distinguish a forked
# process child (hard ``os._exit``) from a state executed in the master
# process itself, as unit tests do (SystemExit).
_MAIN_PID = os.getpid()


def slice_partition_data(
    data: PartitionedAlignment,
    n_workers: int,
    worker: int,
    distribution: str = "cyclic",
) -> list[PartitionData]:
    """The pattern slices worker ``worker`` owns, one per partition.

    ``distribution`` is ``"cyclic"`` or ``"block"``; both place a
    partition's patterns from its global offset alone, so the workers of
    one team, each sliced by its own call, tile every partition exactly.
    """
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; known: {DISTRIBUTIONS}")
    counts = data.pattern_counts()
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    total = int(counts.sum())
    slices: list[PartitionData] = []
    for p, block in enumerate(data.data):
        offset, length = int(offsets[p]), int(counts[p])
        if distribution == "cyclic":
            idx = cyclic_indices(offset, length, n_workers, worker)
        else:
            idx = block_indices(offset, length, total, n_workers, worker)
        slices.append(
            PartitionData(
                partition=block.partition,
                tip_states=np.ascontiguousarray(block.tip_states[:, idx, :]),
                weights=block.weights[idx].copy(),
            )
        )
    return slices


class WorkerState:
    """Executes master commands against one set of partition stacks: a
    worker's pattern slices on the team, or the whole alignment inside
    the one-process engine (:meth:`~repro.core.engine.PartitionedEngine.run`).

    One workspace slot holds the sumtables of the last ``prepare_edges``;
    each prepare replaces its contents and ``release`` empties it."""

    def __init__(self, stacks: PartitionStacks):
        self.stacks = stacks
        self.parts = stacks.parts
        #: (workspaces, patterns one round over every prepared lane touches).
        self._slot: tuple[list[EdgeWorkspace | None], int] | None = None
        # Live telemetry (repro.obs.live): disabled by default — the hot
        # dispatch path then pays one attribute read, nothing else.
        self.stats: WorkerStatsWriter | None = None
        self.rank = 0
        self._slice_patterns = np.array([p.n_patterns for p in stacks.parts], dtype=np.int64)
        self._total_patterns = int(self._slice_patterns.sum())

    @classmethod
    def from_slices(
        cls,
        slices: list[PartitionData],
        tree: Tree,
        models: list,
        alphas: list[float],
        initial_lengths: np.ndarray | None = None,
        categories: int = 4,
    ) -> "WorkerState":
        """A worker over its own stacks of ``slices``."""
        stacks = PartitionStacks(slices, tree, models, alphas, categories)
        if initial_lengths is not None:
            stacks.set_branch_lengths(initial_lengths)
        return cls(stacks)

    def attach_stats(self, row: np.ndarray, rank: int) -> None:
        """Bind this worker to row ``rank`` of a
        :class:`~repro.parallel.shm.WorkerStatsPlane` — every subsequent
        command (and every step of a fused program) updates the row."""
        self.rank = int(rank)
        self.stats = WorkerStatsWriter(row, self.rank)

    def _patterns(self, partitions) -> int:
        """Patterns of the given partitions (None: all) on THIS worker."""
        if partitions is None:
            return self._total_patterns
        return int(self._slice_patterns[list(partitions)].sum())

    def _command_patterns(self, cmd: tuple) -> int:
        """Alignment patterns one command touches on THIS worker (the
        live plane's throughput counter; writes and control ops count
        zero)."""
        op = cmd[0]
        if op == "lnl":
            return self._total_patterns
        if op == "lnl_parts":  # (op, root_edge, partitions)
            return self._patterns(cmd[2])
        if op == "prepare_edges":  # (op, edges, partitions)
            return len(cmd[1]) * self._patterns(cmd[2])
        if op == "lnl_regrafts":  # (op, prune_edge, targets)
            return len(cmd[2]) * self._total_patterns
        if op in ("deriv_edges", "lnl_edges"):  # (op, z, (E, P) lane mask)
            if cmd[2] is None:  # every prepared lane
                return 0 if self._slot is None else self._slot[1]
            return int(np.asarray(cmd[2]).sum(axis=0) @ self._slice_patterns)
        return 0

    # Command dispatch ---------------------------------------------------

    def execute(self, cmd: tuple):
        op = cmd[0]
        handler = getattr(self, f"_cmd_{op}", None)
        if handler is None:
            raise ValueError(f"unknown worker command {op!r}")
        stats = self.stats
        if stats is None or op == "prog":
            # Fused programs record per STEP (each inner execute() lands
            # here again with a plain op), never as one opaque block.
            return handler(*cmd[1:])
        stats.begin(op)
        t0 = time.perf_counter()
        try:
            return handler(*cmd[1:])
        finally:
            stats.done(time.perf_counter() - t0, self._command_patterns(cmd))

    # -- likelihood ------------------------------------------------------

    def _cmd_lnl(self, root_edge: int) -> float:
        """Partial total log-likelihood over all partitions."""
        return float(sum(self.stacks.loglikelihoods(root_edge).tolist()))

    def _cmd_lnl_parts(self, root_edge: int, active: list[int] | None) -> np.ndarray:
        """Partial per-partition log-likelihoods for the active set."""
        return self.stacks.loglikelihoods(root_edge, active)

    def _cmd_lnl_regrafts(self, prune_edge: int, targets: list[int]) -> np.ndarray:
        """Partial ``(T, P)`` lazy-SPR log-likelihoods of regrafting the
        subtree on ``prune_edge`` into each target edge."""
        return self.stacks.regraft_loglikelihoods(prune_edge, targets)

    # -- branch-length machinery ------------------------------------------

    def _cmd_prepare_edges(self, edges: list[int], partitions: list[int] | None) -> None:
        """Edge-stacked sumtables of every listed edge (one per stack) in
        the slot; the previous contents go first, so two sets of tables
        are never held at once."""
        self._slot = None
        self._slot = (self.stacks.prepare_edges(edges, partitions),
                      len(edges) * self._patterns(partitions))

    def _workspaces(self) -> list[EdgeWorkspace | None]:
        if self._slot is None:
            raise RuntimeError("no prepared workspace: prepare_edges first")
        return self._slot[0]

    def _cmd_deriv_edges(self, z: np.ndarray, active: np.ndarray | None):
        """Partial ``(E, P)`` (d1, d2) sums over the lanes of the ``(E, P)``
        mask ``active`` (None: every prepared lane) at the ``(E, P)``
        lengths z."""
        return self.stacks.edge_derivatives(self._workspaces(), z, active)

    def _cmd_lnl_edges(self, z: np.ndarray, active: np.ndarray | None) -> np.ndarray:
        """Partial ``(E, P)`` log-likelihoods at the ``(E, P)`` lengths z,
        from the prepared sumtables (the per-branch Newton monotonicity
        guard)."""
        return self.stacks.edge_loglikelihoods(self._workspaces(), z, active)

    def _cmd_release(self) -> None:
        self._slot = None

    # -- parameter writes (partitions: indices, None for all) --------------

    def _cmd_set_bl_edges(self, edges: list[int] | None, values: np.ndarray,
                          partitions: list[int] | None) -> None:
        """Lengths of the listed edges (None: every edge) for the given
        partitions: ``values`` is ``(E,)`` shared or ``(E, P)``."""
        self.stacks.set_branch_lengths(values, partitions, edges)

    def _cmd_set_alpha_vec(self, x: np.ndarray, active: list[int] | None) -> None:
        """Gamma shapes ``x[p]`` of the active partitions."""
        self.stacks.set_alphas(x, active)

    def _cmd_set_pinvs(self, x: np.ndarray, active: list[int] | None) -> None:
        """Invariable-site proportions ``x[p]`` of the active partitions."""
        self.stacks.set_pinvs(x, active)

    def _cmd_set_column(self, kind: str, index: int, x: np.ndarray,
                        active: list[int] | None) -> None:
        """Model-parameter column ``index`` of ``kind`` (``"rate"`` or
        ``"freq_ratio"``) := ``x[p]`` for the active partitions."""
        self.stacks.set_column(kind, index, x, active)

    # -- fused programs ----------------------------------------------------

    def _cmd_prog(self, steps: tuple) -> list:
        """Execute an ordered fused program (one broadcast/barrier on the
        master side); returns one partial result per step."""
        return [self.execute(tuple(step)) for step in steps]

    # -- fault injection ---------------------------------------------------

    def _cmd_stall(self, rank: int, seconds: float) -> None:
        """Make worker ``rank`` sleep mid-command — the chaos hook the
        :class:`~repro.obs.live.HealthMonitor` stall tests (and manual
        health-check drills) use; every other worker returns at once."""
        if self.rank == rank:
            time.sleep(float(seconds))

    def _cmd_die(self, rank: int) -> None:
        """Kill worker ``rank`` outright (``os._exit`` in a process child,
        ``SystemExit`` when executed in the master process) — the chaos
        hook the serve failure-path tests use to prove a team death
        mid-job surfaces as a structured error, not a hung client."""
        if self.rank == rank:
            if os.getpid() != _MAIN_PID:
                os._exit(1)
            raise SystemExit(f"worker chaos death (rank {rank})")
