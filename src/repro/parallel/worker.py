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

A worker may own ZERO patterns of a short partition (the paper's
``m'_p < T`` worst case): that member of its stack is all padding at
weight 0 and contributes exactly 0 to every reduction — it simply idles
through the command, exactly like the idle threads the paper describes.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..plk.likelihood import EdgeWorkspace
from ..plk.partition import PartitionData, PartitionedAlignment
from ..plk.stacking import PartitionStacks
from ..plk.tree import Tree
from .distribution import DISTRIBUTIONS, block_indices, cyclic_indices
from .shm import WorkerStatsWriter

__all__ = ["slice_partition_data", "WorkerState"]

# Position of the active-partition list inside each command tuple, for
# the live plane's patterns-processed counter.  Commands without an
# entry either touch every partition ("lnl"), every listed edge of their
# partitions ("prepare_edges", "deriv_edges", "lnl_edges": see
# _command_patterns) or none (control ops).
_ACTIVE_ARG = {"lnl_parts": 2, "eval_alpha": 2}


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


@dataclass
class _Handle:
    """Worker-local sumtable storage for one prepare/derive cycle."""

    token: int
    workspaces: list[EdgeWorkspace | None]
    #: Patterns one round over every prepared lane touches (edges x the
    #: prepared partitions' widths), for the live plane's counter.
    patterns: int


class WorkerState:
    """Executes master commands against this worker's pattern slices."""

    def __init__(
        self,
        slices: list[PartitionData],
        tree: Tree,
        models: list,
        alphas: list[float],
        initial_lengths: np.ndarray | None = None,
        categories: int = 4,
    ):
        self.tree = tree
        self.engine = PartitionStacks(slices, tree, models, alphas, categories)
        self.parts = self.engine.parts
        if initial_lengths is not None:
            self.engine.set_branch_lengths(initial_lengths)
        self._handles: dict[int, _Handle] = {}
        # Live telemetry (repro.obs.live): disabled by default — the hot
        # dispatch path then pays one attribute read, nothing else.
        self.stats: WorkerStatsWriter | None = None
        self.rank = 0
        self._slice_patterns = np.array([sl.n_patterns for sl in slices], dtype=np.int64)
        self._total_patterns = int(self._slice_patterns.sum())

    def attach_stats(self, row: np.ndarray, rank: int) -> None:
        """Bind this worker to row ``rank`` of a
        :class:`~repro.parallel.shm.WorkerStatsPlane` — every subsequent
        command (and every step of a fused program) updates the row."""
        self.rank = int(rank)
        self.stats = WorkerStatsWriter(row, self.rank)

    def _command_patterns(self, cmd: tuple) -> int:
        """Alignment patterns one command touches on THIS worker (the
        live plane's throughput counter; control ops count zero)."""
        op = cmd[0]
        if op in ("lnl",):
            return self._total_patterns
        if op == "prepare_edges":  # (op, edges, token, partitions)
            return len(cmd[1]) * int(self._slice_patterns[cmd[3]].sum())
        if op in ("deriv_edges", "lnl_edges"):  # (op, token, z, (E, P) lane mask)
            if cmd[3] is None:  # every prepared lane
                handle = self._handles.get(cmd[1])
                return 0 if handle is None else handle.patterns
            return int(np.asarray(cmd[3]).sum(axis=0) @ self._slice_patterns)
        idx = _ACTIVE_ARG.get(op)
        if idx is None:
            return 0
        return int(self._slice_patterns[list(cmd[idx])].sum())

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

    def execute_timed(self, cmd: tuple):
        """Execute plus this worker's own busy seconds for the command —
        the measured quantity behind :mod:`repro.perf`'s per-worker
        busy/idle decomposition.  Self-timed inside the worker, so
        dispatch, barrier and IPC time are excluded."""
        t0 = time.perf_counter()
        value = self.execute(cmd)
        return value, time.perf_counter() - t0

    # -- likelihood ------------------------------------------------------

    def _cmd_lnl(self, root_edge: int) -> float:
        """Partial total log-likelihood over all partitions."""
        return float(sum(self.engine.loglikelihoods(root_edge).tolist()))

    def _cmd_lnl_parts(self, root_edge: int, active: list[int]) -> np.ndarray:
        """Partial per-partition log-likelihoods for the active set."""
        return self.engine.loglikelihoods(root_edge, active)

    # -- branch-length machinery ------------------------------------------

    def _cmd_prepare_edges(self, edges: list[int], token: int, partitions: list[int]) -> None:
        """Edge-stacked sumtables of every listed edge (one per stack);
        a handle under the same token is dropped first, so two sweeps'
        tables are never held at once."""
        self._handles.pop(token, None)
        self._handles[token] = _Handle(
            token=token,
            workspaces=self.engine.prepare_edges(edges, partitions),
            patterns=len(edges) * int(self._slice_patterns[partitions].sum()),
        )

    def _cmd_deriv_edges(
        self, token: int, z: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partial ``(E, P)`` (d1, d2) sums over the lanes of the ``(E, P)``
        mask ``active`` (None: every prepared lane) at the ``(E, P)``
        lengths z."""
        return self.engine.edge_derivatives(self._handles[token].workspaces, z, active)

    def _cmd_lnl_edges(self, token: int, z: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Partial ``(E, P)`` log-likelihoods at the ``(E, P)`` lengths z,
        from the prepared sumtables (the per-branch Newton monotonicity
        guard)."""
        return self.engine.edge_loglikelihoods(self._handles[token].workspaces, z, active)

    def _cmd_release(self, token: int) -> None:
        self._handles.pop(token, None)

    # -- parameter updates -------------------------------------------------

    def _cmd_set_bl(self, edge: int, value: float, partition: int | None) -> None:
        self.engine.set_branch_length(edge, value, None if partition is None else [partition])

    def _cmd_set_alpha(self, partition: int, alpha: float) -> None:
        self.parts[partition].alpha = alpha

    def _cmd_set_model(self, partition: int, model) -> None:
        self.parts[partition].model = model

    def _cmd_set_bl_edges(
        self, edges: list[int], values: np.ndarray, partitions: list[int]
    ) -> None:
        """``(E, P)`` lengths of the listed edges for the given partitions
        in ONE command (the bulk write of every branch schedule)."""
        self.engine.set_branch_lengths(values, partitions, edges)

    def _cmd_set_alpha_vec(self, x: np.ndarray, active: list[int]) -> None:
        """Per-partition alphas in ONE command (fused ``set_alpha``)."""
        self.engine.set_alphas(x, active)

    def _cmd_eval_alpha(
        self, x: np.ndarray, active: list[int], root_edge: int
    ) -> np.ndarray:
        """Set trial alphas and return partial NEGATIVE log-likelihoods
        (one fused command per Brent round — the newPAR schedule)."""
        self.engine.set_alphas(x, active)
        return -self.engine.loglikelihoods(root_edge, active)

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
