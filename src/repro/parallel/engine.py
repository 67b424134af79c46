"""Real parallel PLK execution on one team of forked worker processes.

The team executes the same master/worker protocol the simulator models:
the master broadcasts a command, every worker executes it over its
pattern slice, partial results are reduced.  :meth:`ParallelPLK.run`
sends one region of worker commands as one broadcast, so the schedules
of :mod:`repro.core.strategies` — written once, on
:meth:`~repro.core.engine.PartitionedEngine.run` — drive the team too,
and real wall-clock oldPAR/newPAR comparisons can be measured on the
host machine (benchmark REAL1).

Team notes
----------
Workers are forked processes with pipe-based command/response
(mpi4py-style master/worker): true parallelism, and the per-command pipe
round-trip plays the role of the Pthreads barrier.  There is no thread
team: the GIL serializes the interpreter work between numpy calls, and
processes won at every measured width (EXPERIMENTS.md, ONE TEAM).
"""
from __future__ import annotations

import pickle
import time
import traceback

import multiprocessing as mp

import numpy as np

from ..core.trace import describe_command
from ..obs.convergence import NullTelemetry
from ..obs.metrics import ExchangeMetrics, NullMetrics
from ..obs.tracer import NullTracer
from ..perf.profile import CommandRecord
from ..plk.partition import PartitionedAlignment
from ..plk.tree import Tree
from .shm import WorkerStatsPlane
from .worker import WorkerState, slice_partition_data

__all__ = ["ParallelPLK", "WorkerError"]

class WorkerError(RuntimeError):
    """An exception raised (or a crash suffered) by one worker, surfaced on
    the master after the broadcast's barrier protocol has completed — the
    team never deadlocks on a failing worker.

    Attributes
    ----------
    rank:
        The failing worker's index.
    original:
        The worker-side exception (or the transport error, for a dead
        process).
    """

    def __init__(self, rank: int, original: BaseException, detail: str = ""):
        self.rank = rank
        self.original = original
        msg = f"worker {rank} failed: {original!r}"
        if detail:
            msg = f"{msg}\n{detail.rstrip()}"
        super().__init__(msg)


def check_backend(backend: str) -> None:
    """Reject every ``backend`` value but ``"processes"``, the one team."""
    if backend != "processes":
        raise ValueError(f"backend must be 'processes', got {backend!r}")


# Result-slot tags of the reply protocol.
_OK, _ERR = "ok", "err"


def _process_worker_main(
    conn, slices, tree, models, alphas, lengths, categories,
    stats_row=None, rank=0,
):
    state = WorkerState.from_slices(slices, tree, models, alphas, lengths, categories)
    state.rank = rank
    if stats_row is not None:
        state.attach_stats(stats_row, rank)
    stats = state.stats
    while True:
        t_wait = time.perf_counter() if stats is not None else 0.0
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            return
        if stats is not None:
            stats.wait(time.perf_counter() - t_wait)
        if cmd[0] == "stop":
            conn.close()
            return
        try:
            # Every reply carries this worker's own busy seconds: timed
            # here, so dispatch, barrier and IPC time are excluded.
            t0 = time.perf_counter()
            value = state.execute(cmd)
            reply = (_OK, value, time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 - shipped to the master
            tb = traceback.format_exc()
            try:
                reply = (_ERR, exc, tb)
                conn.send(reply)
                continue
            except Exception:
                # Unpicklable exception: degrade to its repr.
                reply = (_ERR, RuntimeError(repr(exc)), tb)
        conn.send(reply)


class _ProcessTeam:
    """Forked process workers with pipe command/response channels.

    Worker-side exceptions are caught in the child and shipped back over
    the pipe as an ``_ERR`` reply; the master re-raises the first one as
    :class:`WorkerError` after every reply is in, so the team stays
    usable.  ``close()`` is idempotent.  If a child
    *dies* outright, the master's ``recv`` sees ``EOFError``: the team is
    then terminated cleanly (no leaked processes) and a
    :class:`WorkerError` names the dead rank.

    Forked children inherit their tip/weight slices copy-on-write, so
    only commands and replies cross the pipe: each broadcast is pickled
    once for the whole team, each reply once by its worker.  Cumulative
    ``pipe_tx_bytes`` / ``pipe_rx_bytes`` counters feed the comms
    metrics.
    """

    def __init__(self, worker_args: list[tuple],
                 stats_plane: WorkerStatsPlane | None = None):
        ctx = mp.get_context("fork")
        self.pipe_tx_bytes = 0
        self.pipe_rx_bytes = 0
        # The live stats plane (created by the master before fork, so the
        # children inherit the mapping) is NOT owned by the team: the
        # engine keeps it readable after a worker death so the post-mortem
        # dump sees the final rows.
        worker_args = [
            (*args, stats_plane.row(i) if stats_plane is not None else None, i)
            for i, args in enumerate(worker_args)
        ]
        self.conns = []
        self.procs = []
        self._closed = False
        for args in worker_args:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_process_worker_main, args=(child, *args), daemon=True
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def exchange(self, cmd: tuple) -> tuple[list, list[float]]:
        """Send ``cmd`` to every worker and wait for every reply: each
        worker's result and its own execute() seconds."""
        if self._closed:
            raise RuntimeError("worker team is closed")
        # One pickle for the whole team (not one per worker); byte-counted
        # send/recv so the comms metrics see real traffic.
        payload = pickle.dumps(cmd)
        for rank, conn in enumerate(self.conns):
            try:
                conn.send_bytes(payload)
                self.pipe_tx_bytes += len(payload)
            except (BrokenPipeError, OSError) as exc:
                self.close()
                raise WorkerError(
                    rank, exc, "worker process died before dispatch; team terminated"
                ) from exc
        n = len(self.conns)
        results: list = [None] * n
        times = [0.0] * n
        failure: WorkerError | None = None
        for rank, conn in enumerate(self.conns):
            try:
                data = conn.recv_bytes()
            except (EOFError, BrokenPipeError, OSError) as exc:
                self.close()
                raise WorkerError(
                    rank, exc, "worker process died mid-command; team terminated"
                ) from exc
            self.pipe_rx_bytes += len(data)
            tag, payload, extra = pickle.loads(data)
            if tag == _ERR:
                if failure is None:
                    failure = WorkerError(rank, payload, extra)
            else:
                results[rank] = payload
                times[rank] = extra
        if failure is not None:
            raise failure
        return results, times

    def comms_stats(self) -> dict:
        """Cumulative pipe bytes moved (``shm_rx_bytes`` is always 0:
        every reply travels over the pipe)."""
        return {
            "pipe_tx_bytes": self.pipe_tx_bytes,
            "pipe_rx_bytes": self.pipe_rx_bytes,
            "shm_rx_bytes": 0,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self.conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


def _reduce(parts: list):
    """One step's per-worker partial results summed: None for writes, a
    float for ``lnl``, elementwise for the ``(d1, d2)`` pairs."""
    first = parts[0]
    if first is None:
        return None
    if isinstance(first, float):
        return float(sum(parts))
    if isinstance(first, tuple):
        return tuple(np.sum(x, axis=0) for x in zip(*parts))
    return np.sum(parts, axis=0)


class ParallelPLK:
    """Master-side facade over a worker team.

    Parameters
    ----------
    data, tree, models, alphas:
        As for :class:`~repro.core.engine.PartitionedEngine`; the topology
        is fixed for the lifetime of the team (branch lengths and model
        parameters are mutable through commands).
    n_workers:
        Team size.
    backend:
        Must be ``"processes"``, the only team.  The keyword survives
        because ``perfbench/workloads.py`` still passes it; any other
        value raises :class:`ValueError`.
    distribution:
        Pattern-assignment policy: ``"cyclic"`` (RAxML default) or
        ``"block"``; any other name raises :class:`ValueError`.
    profiler, tracer, metrics, live:
        The exchange observers, each off with ``None``.  Every broadcast
        is clocked once (master wall time, plus each worker's own execute
        seconds from its reply); when any observer is attached, the
        exchange becomes ONE :class:`~repro.perf.CommandRecord` handed to
        each of them:

        * ``profiler`` — a :class:`repro.perf.Profiler` keeps the records
          (the per-region busy/idle decomposition);
        * ``tracer`` — a :class:`repro.obs.Tracer` turns each record into
          a span on the master lane and a busy span per worker lane;
        * ``metrics`` — a :class:`repro.obs.MetricsRegistry` counts
          broadcasts by region kind and fills the barrier-wait,
          region-wall and sync histograms and the imbalance gauges
          (:class:`repro.obs.metrics.ExchangeMetrics`);
        * ``live`` — ``True`` for defaults, or a configured
          :class:`repro.obs.live.LiveTelemetry`: every worker updates a
          lock-free shared-memory stats row (heartbeat, busy/wait
          seconds, commands, patterns) after each command, a
          :class:`~repro.obs.live.HealthMonitor` can sample stalls and
          live imbalance mid-run, each record lands as one ``exchange``
          event in the bounded :class:`~repro.obs.live.FlightRecorder`
          ring, and a worker failure dumps that ring as a post-mortem
          JSONL file.  ``None``/``False`` (default) leaves ``self.live``
          None and creates no stats plane.
    telemetry:
        A :class:`repro.obs.ConvergenceTelemetry` recording the batched
        optimizers' per-partition convergence vectors, or ``None`` to
        discard.
    """

    def __init__(
        self,
        data: PartitionedAlignment,
        tree: Tree,
        models: list,
        alphas: list[float],
        n_workers: int,
        backend: str = "processes",
        distribution: str = "cyclic",
        initial_lengths: np.ndarray | None = None,
        categories: int = 4,
        profiler=None,
        tracer=None,
        metrics=None,
        telemetry=None,
        live=None,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        check_backend(backend)
        self.profiler = profiler
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else NullMetrics()
        self.telemetry = telemetry if telemetry is not None else NullTelemetry()
        if live is True:
            # Imported lazily: obs.live depends on parallel.shm, so a
            # module-level import here would be circular at package load.
            from ..obs.live import LiveTelemetry

            live = LiveTelemetry()
        self.live = live or None
        self.n_partitions = data.n_partitions
        self.n_workers = n_workers
        self.backend = backend
        self.commands_issued = 0
        self.distribution = distribution
        worker_slices = [
            slice_partition_data(data, n_workers, w, distribution)
            for w in range(n_workers)
        ]
        # The stats plane must exist BEFORE the team, so the forked
        # workers inherit the mapping.  The engine owns it (closed in
        # close(), after the team) so post-mortems can still read the
        # final rows.
        self._stats_plane: WorkerStatsPlane | None = None
        if self.live is not None:
            self._stats_plane = WorkerStatsPlane(n_workers)
        self._team = _ProcessTeam(
            [
                (sl, tree.copy(), models, alphas, initial_lengths, categories)
                for sl in worker_slices
            ],
            stats_plane=self._stats_plane,
        )
        # The master issues every parameter write, so it knows the team's
        # current (E, P) branch lengths and (P,) alphas: the optimizers
        # start from (and guard against) these, as the sequential
        # strategies start from the engine's.
        self._lengths = np.full((tree.n_edges, self.n_partitions), 0.1)
        if initial_lengths is not None:
            initial = np.asarray(initial_lengths, dtype=np.float64)
            self._lengths[:] = initial if initial.ndim == 2 else initial[:, np.newaxis]
        self._alphas = np.array(alphas, dtype=np.float64)
        observers = []
        if profiler is not None:
            profiler.bind(backend=backend, n_workers=n_workers,
                          distribution=self.distribution,
                          live=self.live is not None)
            observers.append(profiler.on_exchange)
        if self.tracer.enabled:
            observers.append(self.tracer.on_exchange)
        if self.metrics.enabled:
            team = self._team
            observers.append(ExchangeMetrics(
                self.metrics, n_workers,
                lambda: team.pipe_tx_bytes + team.pipe_rx_bytes,
            ).on_exchange)
        if self.live is not None:
            self.live.bind(self._stats_plane, metrics=self.metrics, run_config={
                "backend": backend,
                "distribution": self.distribution, "n_workers": n_workers,
                "n_partitions": self.n_partitions,
            })
            observers.append(self.live.on_exchange)
        self._observers = tuple(observers)

    # ------------------------------------------------------------------

    def _broadcast(self, cmd: tuple) -> list:
        """The one exchange path: send ``cmd`` to the team, clock it, and
        hand each attached observer one record of it (none is built when
        no observer is attached).  A :class:`WorkerError` reaches the live
        plane, which writes its post-mortem, before it is re-raised."""
        self.commands_issued += 1
        start = time.perf_counter()
        try:
            results, busy = self._team.exchange(cmd)
        except WorkerError as exc:
            if self.live is not None:
                self.live.on_worker_error(describe_command(cmd)[0], exc)
            raise
        if self._observers:
            wall = time.perf_counter() - start
            # A fused program is ONE record (one barrier) labelled
            # "prog(op1+op2+...)" of its dominant kind, carrying its
            # worker-command count.
            op, kind, n_cmds = describe_command(cmd)
            record = CommandRecord(op, kind, wall, tuple(busy), n_cmds)
            for observe in self._observers:
                observe(record, start)
        return results

    def run(self, label: str, steps) -> list:
        """Execute one region of worker commands as ONE broadcast (a
        one-step region goes out as the plain command): the workers run
        the steps back to back and reply once.  Returns each step's
        result reduced over the workers (None for writes); the master's
        copy of the lengths and alphas follows the write steps.  ``label``
        names the region, as for
        :meth:`~repro.core.engine.PartitionedEngine.run`."""
        steps = tuple(tuple(step) for step in steps)
        if len(steps) == 1:
            per_worker = [[reply] for reply in self._broadcast(steps[0])]
        else:
            per_worker = self._broadcast(("prog", steps))
        for step in steps:
            self._follow(step)
        return [_reduce([worker[i] for worker in per_worker]) for i in range(len(steps))]

    def _follow(self, step: tuple) -> None:
        """Apply a write step to the master's ``(E, P)`` lengths and
        ``(P,)`` alphas (an index list None: all)."""
        if step[0] == "set_bl_edges":
            _, edges, values, parts = step
            n_edges, n_parts = self._lengths.shape
            rows = np.arange(n_edges) if edges is None else np.asarray(edges, int)
            cols = np.arange(n_parts) if parts is None else np.asarray(parts, int)
            values = np.asarray(values, float).reshape(len(rows), -1)  # (E,) is shared
            self._lengths[np.ix_(rows, cols)] = np.broadcast_to(values, (len(rows), n_parts))[:, cols]
        elif step[0] == "set_alpha_vec":
            _, x, parts = step
            cols = slice(None) if parts is None else parts
            self._alphas[cols] = np.asarray(x, float)[cols]

    def comms_stats(self) -> dict:
        """The team's cumulative bytes-moved counters."""
        return self._team.comms_stats()

    @property
    def closed(self) -> bool:
        """True once the worker team is torn down (a closed engine raises
        on any broadcast) — pool bookkeeping reads this, e.g. after a
        :class:`WorkerError` auto-terminated the team."""
        return self._team._closed

    def restore_parameters(
        self, lengths: np.ndarray, alphas: list[float]
    ) -> None:
        """Reset every branch length (``(E,)``, shared by all partitions)
        and every partition alpha in ONE region (a single barrier).

        A warm team reused across requests (``repro.serve``) must hand
        each job the same parameter state a cold engine starts from;
        replaying the snapshot through the normal command vocabulary
        keeps warm results bitwise-identical to one-shot runs.
        """
        self.run("restore", [("set_bl_edges", None, np.asarray(lengths, float), None),
                             ("set_alpha_vec", np.asarray(alphas, float), None)])

    def close(self) -> None:
        self._team.close()
        if self.live is not None:
            self.live.close()
        # The engine owns the stats plane (not the team): it must outlive
        # a worker death so the post-mortem above could read final rows.
        if self._stats_plane is not None:
            self._stats_plane.close()
            self._stats_plane = None

    def __enter__(self) -> "ParallelPLK":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the engine surface of repro.core.strategies ---------------------

    #: Every partition owns its branch lengths on the team.
    branch_mode = "per_partition"

    def branch_lengths(self) -> np.ndarray:
        """``(E, P)`` current branch lengths (the master's copy)."""
        return self._lengths.copy()

    def alphas(self) -> np.ndarray:
        """``(P,)`` current Gamma shapes (the master's copy)."""
        return self._alphas.copy()

    def loglikelihood(self, root_edge: int = 0) -> float:
        return self.run("loglikelihood", [("lnl", root_edge)])[0]

    def partition_loglikelihoods(
        self, root_edge: int = 0, active: list[int] | None = None
    ) -> np.ndarray:
        return self.run("loglikelihood", [("lnl_parts", root_edge, active)])[0]

    def optimize_branches(self, edges: list[int], strategy: str = "tree") -> np.ndarray:
        """One smoothing pass over ``edges`` from their current lengths
        (:func:`~repro.core.strategies.optimize_branch_lengths`): the
        ``"old"``/``"new"`` per-branch walks or the ``"tree"`` Jacobi
        sweeps.  Returns the ``(len(edges), P)`` optimized lengths."""
        # Imported here: repro.core imports this package (through obs).
        from ..core.strategies import optimize_branch_lengths

        edges = list(edges)
        with self.tracer.span("optimize_branches", cat="optimizer",
                              strategy=strategy, edges=len(edges)):
            optimize_branch_lengths(self, strategy, passes=1, edges=edges)
        return self._lengths[edges]

    def optimize_alpha(self, strategy: str = "new") -> np.ndarray:
        """Per-partition Brent on the Gamma shape from the current alphas
        (:func:`~repro.core.strategies.optimize_alpha`); returns the
        optimized alphas."""
        from ..core.strategies import optimize_alpha

        with self.tracer.span("optimize_alpha", cat="optimizer", strategy=strategy):
            optimize_alpha(self, strategy)
        return self._alphas.copy()
