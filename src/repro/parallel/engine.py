"""Real parallel PLK execution on one team of forked worker processes.

The team executes the same master/worker protocol the simulator models:
the master broadcasts a command, every worker executes it over its
pattern slice, partial results are reduced.  On top of the raw protocol,
:class:`ParallelPLK` implements branch-length and alpha optimization under
both scheduling strategies, so real wall-clock oldPAR/newPAR comparisons
can be measured on the host machine (benchmark REAL1).

Team notes
----------
Workers are forked processes with pipe-based command/response
(mpi4py-style master/worker): true parallelism, and the per-command pipe
round-trip plays the role of the Pthreads barrier.  There is no thread
team: the GIL serializes the interpreter work between numpy calls, and
processes won at every measured width (EXPERIMENTS.md, ONE TEAM).
"""
from __future__ import annotations

import itertools
import pickle
import time
import traceback

import multiprocessing as mp

import numpy as np

from ..core.trace import describe_command
from ..obs.convergence import NullTelemetry
from ..obs.metrics import NullMetrics
from ..obs.tracer import NullTracer
from ..optimize.newton import BatchedNewton, newton_optimize, tree_sweeps
from ..optimize.brent import BatchedBrent
from ..plk.partition import PartitionedAlignment
from ..plk.tree import Tree
from .distribution import imbalance_ratio
from .program import Program
from .shm import WorkerStatsPlane
from .worker import WorkerState, slice_partition_data

__all__ = ["ParallelPLK", "WorkerError"]

_BRANCH_MIN, _BRANCH_MAX = 1e-8, 50.0
_ALPHA_MIN, _ALPHA_MAX = 0.02, 100.0

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
    state = WorkerState(slices, tree, models, alphas, lengths, categories)
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


def _lane_mask(active: np.ndarray) -> np.ndarray | None:
    """An edge command's lane mask on the wire: None (every prepared
    lane) when all lanes are live, so no all-true array is pickled."""
    return None if active.all() else active


def _reduce_pairs(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Sum the workers' partial ``(d1, d2)`` derivative replies."""
    return np.sum([p[0] for p in parts], axis=0), np.sum([p[1] for p in parts], axis=0)


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
        self._token = itertools.count()
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

    def run_program(self, steps) -> list[list]:
        """Execute an ordered list of worker commands as ONE fused
        broadcast (a single barrier: the workers run the steps back to
        back and reply once).

        ``steps`` is a :class:`~repro.parallel.program.Program` or an
        iterable of command tuples.  Returns, per step, the list of
        per-worker partial results — exactly what ``len(steps)``
        separate broadcasts would have produced, minus the barriers.
        """
        if isinstance(steps, Program):
            steps = steps.steps
        steps = tuple(tuple(s) for s in steps)
        per_worker = self._broadcast(("prog", steps))
        return [[worker[i] for worker in per_worker] for i in range(len(steps))]

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
        """Reset every branch length and every partition alpha in ONE
        fused program (a single barrier).

        A warm team reused across requests (``repro.serve``) must hand
        each job the same parameter state a cold engine starts from;
        replaying the snapshot through the normal command vocabulary
        keeps warm results bitwise-identical to one-shot runs.
        """
        lengths = np.asarray(lengths, float)
        alphas = np.asarray(alphas, float)
        steps = [
            ("set_bl", edge, float(value), None)
            for edge, value in enumerate(lengths)
        ]
        steps.append(("set_alpha_vec", alphas, list(range(self.n_partitions))))
        self.run_program(steps)
        self._lengths[:] = lengths[:, np.newaxis]
        self._alphas[:] = alphas

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

    # -- reductions --------------------------------------------------------

    def loglikelihood(self, root_edge: int = 0) -> float:
        return float(sum(self._broadcast(("lnl", root_edge))))

    def partition_loglikelihoods(
        self, root_edge: int = 0, active: list[int] | None = None
    ) -> np.ndarray:
        active = list(range(self.n_partitions)) if active is None else active
        parts = self._broadcast(("lnl_parts", root_edge, active))
        return np.sum(parts, axis=0)

    def set_branch_length(self, edge: int, value: float, partition: int | None = None) -> None:
        self._broadcast(("set_bl", edge, value, partition))
        self._lengths[edge, slice(None) if partition is None else partition] = value

    def set_alpha(self, partition: int, alpha: float) -> None:
        self._broadcast(("set_alpha", partition, alpha))
        self._alphas[partition] = alpha

    def set_model(self, partition: int, model) -> None:
        self._broadcast(("set_model", partition, model))

    # -- branch optimization -------------------------------------------------

    def optimize_branch(
        self, edge: int, strategy: str = "new", z0: np.ndarray | None = None,
        ztol: float = 1e-6,
    ) -> np.ndarray:
        """Per-partition Newton-Raphson on one branch under the chosen
        strategy; returns the optimized per-partition lengths.  ``z0``
        defaults to the current lengths of ``edge``.  Every exchange is
        an edge command over the one-edge workspace ``[edge]``, with
        ``(1, P)`` lengths and lane masks."""
        n = self.n_partitions
        if z0 is None:
            z0 = self._lengths[edge].copy()
        z0 = np.asarray(z0, float)
        token = next(self._token)
        if strategy == "new":
            every = list(range(n))
            solver = BatchedNewton(_BRANCH_MIN, _BRANCH_MAX, ztol)
            # Fused opening exchange: sumtable setup AND the first
            # derivative pass in ONE broadcast/barrier.
            _, deriv_parts = self.run_program(
                (
                    ("prepare_edges", [edge], token, every),
                    ("deriv_edges", token, solver.initial_point(z0)[np.newaxis], None),
                )
            )
            d1, d2 = _reduce_pairs(deriv_parts)

            def fn(z: np.ndarray, active_mask: np.ndarray):
                g1, g2 = _reduce_pairs(self._broadcast(
                    ("deriv_edges", token, z[np.newaxis], _lane_mask(active_mask[np.newaxis]))
                ))
                return g1[0], g2[0]

            with self.tracer.span("optimize_branch", cat="optimizer",
                                  edge=edge, strategy="new"):
                res = solver.run(
                    fn, z0,
                    observer=self.telemetry.start("nr_branch", n),
                    first_eval=(d1[0], d2[0]),
                )
            # Monotonicity guard (matches the sequential strategies): both
            # guard evaluations and the workspace release in one barrier;
            # the accept/reject decision needs the reduced sums, so the
            # parameter write is a second (vectorized) broadcast rather
            # than a fourth program step.
            old_parts, new_parts, _ = self.run_program(
                (
                    ("lnl_edges", token, z0[np.newaxis], None),
                    ("lnl_edges", token, res.z[np.newaxis], None),
                    ("release", token),
                )
            )
            old_lnl = np.sum(old_parts, axis=0)[0]
            new_lnl = np.sum(new_parts, axis=0)[0]
            out = np.where(new_lnl >= old_lnl, res.z, z0)
            self._broadcast(("set_bl_edges", [edge], out[np.newaxis], every))
            self._lengths[edge] = out
            return out
        if strategy == "old":
            out = np.zeros(n)
            for p in range(n):
                lane = np.zeros((1, n), dtype=bool)
                lane[0, p] = True
                self._broadcast(("prepare_edges", [edge], token, [p]))

                def fn(z: float, _p: int = p, _lane=lane):
                    d1, d2 = _reduce_pairs(self._broadcast(
                        ("deriv_edges", token, np.full((1, n), z), _lane)
                    ))
                    return float(d1[0, _p]), float(d2[0, _p])

                with self.tracer.span("optimize_branch", cat="optimizer",
                                      edge=edge, strategy="old", partition=p):
                    z, _, _ = newton_optimize(
                        fn, float(z0[p]), _BRANCH_MIN, _BRANCH_MAX, ztol
                    )
                zs_old = np.full((1, n), float(z0[p]))
                zs_new = np.full((1, n), z)
                old_lnl = np.sum(
                    self._broadcast(("lnl_edges", token, zs_old, lane)), axis=0
                )[0, p]
                new_lnl = np.sum(
                    self._broadcast(("lnl_edges", token, zs_new, lane)), axis=0
                )[0, p]
                self._broadcast(("release", token))
                if new_lnl < old_lnl:
                    z = float(z0[p])
                self.set_branch_length(edge, z, p)
                out[p] = z
            return out
        raise ValueError(f"unknown strategy {strategy!r}")

    def optimize_branches(
        self, edges: list[int], strategy: str = "tree",
        lengths0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Optimize a set of branches once each; returns (len(edges), P).
        ``lengths0[i]`` is the start for ``edges[i]`` (default: the
        current lengths).  ``"old"``/``"new"`` walk the edges one at a
        time (:meth:`optimize_branch`); ``"tree"`` runs one pass of
        Jacobi sweeps over all of them (:meth:`_tree_pass`)."""
        if strategy == "tree":
            return self._tree_pass(list(edges), lengths0)
        out = np.zeros((len(edges), self.n_partitions))
        for i, edge in enumerate(edges):
            z0 = None if lengths0 is None else lengths0[i]
            out[i] = self.optimize_branch(edge, strategy, z0)
        return out

    def _tree_pass(self, edges: list[int], lengths0) -> np.ndarray:
        """One ``"tree"`` pass, the schedule of
        :func:`repro.core.strategies._tree_pass` on the team.

        Each sweep opens with ONE program: write the previous sweep's
        lengths, every live partition's full lnL (the guard of that
        sweep), prepare every edge and the first edge-stacked derivative
        round, so the guard rides speculatively on the next sweep's
        opening and costs a barrier only when it fires.  Every further
        Newton round is one ``deriv_edges`` broadcast, so a pass costs
        (Newton rounds) + 1 barriers when the guard does not fire."""
        n, n_edges = self.n_partitions, len(edges)
        root = edges[0]
        token = next(self._token)
        z = (self._lengths[edges] if lengths0 is None
             else np.asarray(lengths0, float).reshape(n_edges, n))

        def opening(z, write, live, z_first):
            active = np.flatnonzero(live).tolist()
            steps = [] if write is None else [
                ("set_bl_edges", edges, z, np.flatnonzero(write).tolist())
            ]
            guard = len(steps)
            steps.append(("lnl_parts", root, active))
            if z_first is None:
                steps.append(("release", token))
            else:
                steps += [("prepare_edges", edges, token, active),
                          ("deriv_edges", token, z_first,
                           _lane_mask(np.broadcast_to(live, z.shape)))]
            results = self.run_program(steps)
            lnl = np.sum(results[guard], axis=0)
            return lnl, None if z_first is None else _reduce_pairs(results[-1])

        def deriv(z, active):
            return _reduce_pairs(self._broadcast(("deriv_edges", token, z, _lane_mask(active))))

        with self.tracer.span("optimize_branches", cat="optimizer",
                              strategy="tree", edges=n_edges):
            z, _ = tree_sweeps(
                z, opening, deriv, BatchedNewton(_BRANCH_MIN, _BRANCH_MAX),
                self.telemetry, write_first=lengths0 is not None,
            )
        self._lengths[edges] = z
        return z

    # -- alpha optimization ---------------------------------------------------

    def optimize_alpha(
        self, strategy: str = "new", guess: np.ndarray | None = None,
        xtol: float = 1e-3, root_edge: int = 0,
    ) -> np.ndarray:
        """Per-partition Brent on the Gamma shape under the chosen
        strategy; returns the optimized alphas.  ``guess`` defaults to the
        current alphas."""
        n = self.n_partitions
        if guess is None:
            guess = self._alphas.copy()
        if strategy == "new":
            solver = BatchedBrent(np.full(n, _ALPHA_MIN), np.full(n, _ALPHA_MAX), xtol)

            def fn(x: np.ndarray, active_mask: np.ndarray) -> np.ndarray:
                active = [int(i) for i in np.flatnonzero(active_mask)]
                parts = self._broadcast(("eval_alpha", np.asarray(x, float), active, root_edge))
                self._alphas[active] = x[active]
                return np.sum(parts, axis=0)

            with self.tracer.span("optimize_alpha", cat="optimizer", strategy="new"):
                res = solver.run(
                    fn, guess=np.asarray(guess, float),
                    observer=self.telemetry.start("brent_alpha", n),
                )
            # One vectorized write instead of P set_alpha broadcasts.
            self._broadcast(("set_alpha_vec", res.x, list(range(n))))
            self._alphas[:] = res.x
            return res.x
        if strategy == "old":
            out = np.zeros(n)
            for p in range(n):
                solver = BatchedBrent(np.array([_ALPHA_MIN]), np.array([_ALPHA_MAX]), xtol)

                def fn(x: np.ndarray, active_mask: np.ndarray, _p: int = p) -> np.ndarray:
                    xs = np.zeros(n)
                    xs[_p] = float(x[0])
                    parts = self._broadcast(("eval_alpha", xs, [_p], root_edge))
                    self._alphas[_p] = xs[_p]
                    return np.array([np.sum(parts, axis=0)[_p]])

                with self.tracer.span("optimize_alpha", cat="optimizer",
                                      strategy="old", partition=p):
                    res = solver.run(fn, guess=np.array([float(guess[p])]))
                self.set_alpha(p, float(res.x[0]))
                out[p] = res.x[0]
            return out
        raise ValueError(f"unknown strategy {strategy!r}")
