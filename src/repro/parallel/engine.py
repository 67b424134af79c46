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
from ..obs.metrics import NullMetrics
from ..obs.tracer import NullTracer
from ..plk.partition import PartitionedAlignment
from ..plk.tree import Tree
from .distribution import imbalance_ratio
from .shm import WorkerStatsPlane
from .worker import WorkerState, slice_partition_data

__all__ = ["ParallelPLK", "WorkerError"]

# Bucket edges for the commands-per-barrier histogram (a plain command is
# 1; the fused optimizer programs land at 2-3; headroom above).
_COMMANDS_PER_BARRIER_BUCKETS = (1.5, 2.5, 3.5, 4.5, 6.5, 8.5, 16.5)


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
            cmd, timed = conn.recv()
        except (EOFError, OSError):
            return
        if stats is not None:
            stats.wait(time.perf_counter() - t_wait)
        if cmd[0] == "stop":
            conn.close()
            return
        try:
            if timed:
                value, busy = state.execute_timed(cmd)
            else:
                value, busy = state.execute(cmd), 0.0
            reply = (_OK, value, busy)
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

    def _exchange(self, cmd: tuple, timed: bool) -> tuple[list, list[float]]:
        if self._closed:
            raise RuntimeError("worker team is closed")
        # One pickle for the whole team (not one per worker); byte-counted
        # send/recv so the comms metrics see real traffic.
        payload = pickle.dumps((cmd, timed))
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

    def broadcast(self, cmd: tuple) -> list:
        return self._exchange(cmd, timed=False)[0]

    def broadcast_timed(self, cmd: tuple) -> tuple[list, list[float]]:
        """As :meth:`broadcast`, plus each worker's execute() seconds."""
        return self._exchange(cmd, timed=True)

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
                conn.send((("stop",), False))
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
    profiler:
        A :class:`repro.perf.Profiler` to record per-command region
        timings (master wall time + each worker's execute time), or
        ``None`` for the zero-overhead :class:`repro.perf.NullProfiler`.
    tracer:
        A :class:`repro.obs.Tracer` turning every broadcast into a
        timestamped span on the master lane — plus, when a profiler is
        also attached, a busy span per worker lane — or ``None`` for the
        zero-overhead :class:`repro.obs.NullTracer` (the unobserved
        broadcast path is guarded by one attribute read; no method calls
        are added).
    metrics:
        A :class:`repro.obs.MetricsRegistry` counting broadcasts by region
        kind and (with a profiler attached) filling the barrier-wait and
        region-wall histograms, or ``None`` to discard.
    telemetry:
        A :class:`repro.obs.ConvergenceTelemetry` recording the batched
        optimizers' per-partition convergence vectors, or ``None`` to
        discard.
    live:
        The live telemetry plane (:mod:`repro.obs.live`): ``True`` for
        defaults, or a configured :class:`repro.obs.live.LiveTelemetry`.
        When enabled, every worker updates a lock-free shared-memory
        stats row (heartbeat, busy/wait seconds, commands, patterns)
        after each command, a :class:`~repro.obs.live.HealthMonitor` can
        sample stalls and live imbalance mid-run, and worker failures
        auto-dump the bounded :class:`~repro.obs.live.FlightRecorder`
        ring buffer as a post-mortem JSONL file.  ``None``/``False``
        (default) installs the zero-cost
        :class:`~repro.obs.live.NullLiveTelemetry`.
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
        if profiler is None:
            from ..perf import NullProfiler

            profiler = NullProfiler()
        self.profiler = profiler
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else NullMetrics()
        self.telemetry = telemetry if telemetry is not None else NullTelemetry()
        # Imported lazily: obs.live depends on parallel.shm, so a
        # module-level import here would be circular at package load.
        from ..obs.live import LiveTelemetry, NullLiveTelemetry

        if not live:
            self.live = NullLiveTelemetry()
        elif live is True:
            self.live = LiveTelemetry()
        else:
            self.live = live
        self.n_partitions = data.n_partitions
        self.n_workers = n_workers
        self.backend = backend
        self.commands_issued = 0
        self.distribution = distribution
        # Cumulative per-worker busy seconds (total and by region kind),
        # feeding the metrics imbalance gauges on observed broadcasts.
        self._busy_total = np.zeros(n_workers)
        self._busy_kind: dict[str, np.ndarray] = {}
        worker_slices = [
            slice_partition_data(data, n_workers, w, distribution)
            for w in range(n_workers)
        ]
        # The stats plane must exist BEFORE the team, so the forked
        # workers inherit the mapping.  The engine owns it (closed in
        # close(), after the team) so post-mortems can still read the
        # final rows.
        self._stats_plane: WorkerStatsPlane | None = None
        if self.live.enabled:
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
        self.profiler.bind(backend=backend, n_workers=n_workers,
                           distribution=self.distribution,
                           live=self.live.enabled)
        if self.live.enabled:
            self.live.bind(self._stats_plane, metrics=self.metrics, run_config={
                "backend": backend,
                "distribution": self.distribution, "n_workers": n_workers,
                "n_partitions": self.n_partitions,
            })

    # ------------------------------------------------------------------

    def _broadcast(self, cmd: tuple) -> list:
        self.commands_issued += 1
        # Hot path: with the null defaults this adds two attribute reads
        # and zero method calls over the bare profiler dispatch.
        if self.live.enabled:
            return self._broadcast_live(cmd)
        if not (self.tracer.enabled or self.metrics.enabled):
            return self.profiler.broadcast(self._team, cmd)
        return self._broadcast_observed(cmd)

    def _broadcast_live(self, cmd: tuple) -> list:
        """One broadcast under the live plane: the flight recorder sees
        the dispatch and the barrier exit, and a :class:`WorkerError`
        (worker exception, or a dead process) triggers an automatic
        post-mortem dump of the ring buffer before re-raising."""
        live = self.live
        op, kind, n_cmds = describe_command(cmd)
        live.record("dispatch", op=op, kind=kind, n_commands=n_cmds)
        t0 = time.perf_counter()
        try:
            if self.tracer.enabled or self.metrics.enabled:
                results = self._broadcast_observed(cmd)
            else:
                results = self.profiler.broadcast(self._team, cmd)
        except WorkerError as exc:
            # EOFError/OSError originals mean the process died outright;
            # anything else is a worker-side exception shipped back.
            died = isinstance(exc.original, (EOFError, OSError))
            event = "worker_death" if died else "worker_error"
            live.record(event, rank=exc.rank, op=op,
                        error=repr(exc.original))
            live.postmortem(reason=event, rank=exc.rank)
            raise
        live.record("barrier_exit", op=op, kind=kind,
                    wall=time.perf_counter() - t0)
        return results

    def _broadcast_observed(self, cmd: tuple) -> list:
        """One observed broadcast: a master-lane span for the command, a
        busy span per worker lane and the barrier-wait histogram samples
        (the latter two only when a :class:`~repro.perf.Profiler` is
        attached — worker execute seconds come from its timed exchange).
        A fused program traces as ONE span (label ``prog(op1+op2+...)``)
        and counts as one broadcast of its dominant kind; the
        ``commands.total`` counter and ``commands_per_barrier`` histogram
        record how many worker commands the barrier amortized."""
        tracer, metrics, profiler = self.tracer, self.metrics, self.profiler
        op, kind, n_cmds = describe_command(cmd)
        n_before = len(profiler.records) if profiler.enabled else 0
        t0 = tracer.now() if tracer.enabled else 0.0
        results = profiler.broadcast(self._team, cmd)
        record = None
        if profiler.enabled and len(profiler.records) > n_before:
            record = profiler.records[-1]
        if tracer.enabled:
            tracer.add_span(op, kind, 0, t0, tracer.now() - t0)
            if record is not None:
                for w, busy in enumerate(record.busy):
                    if busy > 0.0:
                        tracer.add_span(op, kind, w + 1, t0, busy)
        if metrics.enabled:
            metrics.counter("broadcasts.total").inc()
            metrics.counter(f"broadcasts.{kind}").inc()
            metrics.counter("commands.total").inc(n_cmds)
            metrics.histogram(
                "commands_per_barrier", bounds=_COMMANDS_PER_BARRIER_BUCKETS
            ).observe(float(n_cmds))
            stats = self._team.comms_stats()
            metrics.gauge("comms.pipe_bytes").set(
                stats["pipe_tx_bytes"] + stats["pipe_rx_bytes"]
            )
            if record is not None:
                metrics.histogram("region_wall_seconds").observe(record.wall)
                metrics.histogram("sync_seconds").observe(record.sync)
                wait = metrics.histogram("barrier_wait_seconds")
                for idle in record.idle:
                    wait.observe(idle)
                # Imbalance gauges: cumulative max/mean worker busy time,
                # overall and per region kind (1.0 = perfect balance).
                busy = np.asarray(record.busy)
                self._busy_total += busy
                kind_busy = self._busy_kind.setdefault(
                    kind, np.zeros(self.n_workers)
                )
                kind_busy += busy
                if self._busy_total.any():
                    metrics.gauge("imbalance").set(
                        imbalance_ratio(self._busy_total)
                    )
                if kind_busy.any():
                    metrics.gauge(f"imbalance.{kind}").set(
                        imbalance_ratio(kind_busy)
                    )
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
