"""The service core and the unix-socket daemon.

:class:`LikelihoodService` is the in-process heart: N executor threads
pull priced jobs from a :class:`~repro.serve.queue.JobQueue`, check warm
teams out of a :class:`~repro.serve.pool.TeamPool`, run the requested
operation, and thread every outcome through the obs plane (metrics
counters/gauges, tracer job spans, flight-recorder events with JSONL
post-mortems on worker death).  Tests and the
:class:`~repro.serve.client.LocalClient` drive it directly; the socket
front end (:func:`serve_forever`) adds NDJSON framing on top, nothing
more — one code path serves both.

Request batching: an executor that claims a ``loglikelihood`` job drains
other pending ``loglikelihood`` jobs for the *same dataset* (up to
``batch_limit``) and fuses all of them into ONE worker program — one
broadcast/barrier computes every lnl in the batch, the same trick the
batched optimizers use for Newton rounds.

Failure semantics (the contract ``docs/SERVICE.md`` promises):

* a worker-side exception or a dead worker process surfaces as a
  FAILED job with a structured ``error`` dict (type, rank, message,
  post-mortem path) — never a hung client;
* the affected team is discarded from the pool (its replacement is
  built cold on the next request);
* queue-wait timeouts expire jobs (EXPIRED), client cancellation
  removes pending jobs (CANCELLED); running jobs always run to
  completion.
"""
from __future__ import annotations

import collections
import itertools
import numbers
import os
import socketserver
import tempfile
import threading
import time
from dataclasses import dataclass, field

from ..obs.live import FLIGHT_DIR_ENV, FlightRecorder
from ..obs.metrics import MetricsRegistry
from ..obs.prometheus import prometheus_text
from ..obs.tracer import NullTracer
from ..parallel.distribution import DISTRIBUTIONS
from ..parallel.engine import ParallelPLK, WorkerError, check_backend
from . import protocol
from .cache import ServeCache
from .pool import TeamPool, price_job
from .queue import Job, JobQueue, JobState

__all__ = ["LikelihoodService", "ServiceConfig", "serve_forever"]

#: Operations a job spec may request.  ``mutates`` marks ops that change
#: team parameter state (the team is snapshot-restored on check-in);
#: ``keys`` are the spec keys the op reads besides ``op`` and ``dataset``
#: — any other key is rejected at submit.
OPS = {
    "loglikelihood": {"mutates": False, "keys": ("root_edge",)},
    "loglikelihood_parts": {"mutates": False, "keys": ("root_edge",)},
    "optimize_branches": {"mutates": True, "keys": ("edges", "strategy")},
    "optimize_alpha": {"mutates": True, "keys": ("strategy",)},
    "chaos_die": {"mutates": False, "keys": ("rank",)},
    "chaos_raise": {"mutates": False, "keys": ()},
}


def _check_edge(key: str, edge, n_edges: int) -> None:
    if (
        not isinstance(edge, numbers.Integral)
        or isinstance(edge, bool)
        or not 0 <= edge < n_edges
    ):
        raise ValueError(
            f"{key}: {edge!r} is not an edge number in [0, {n_edges})"
        )


@dataclass
class ServiceConfig:
    """Engine and scheduling configuration for one service instance.

    ``backend`` has one legal value, ``"processes"``; it is kept only
    because ``perfbench/workloads.py`` still passes it.
    """

    workers: int = 2
    backend: str = "processes"
    distribution: str = "cyclic"
    categories: int = 4
    executors: int = 2
    pool_capacity: int = 2
    cache_bytes: int | None = None
    batch_limit: int = 8
    checkout_timeout: float = 60.0
    #: Enable the ``chaos_*`` fault-injection ops (tests/drills only).
    allow_chaos: bool = False
    #: Per-team live telemetry planes (``repro top`` attach targets).
    live: bool = False
    postmortem_dir: str | None = None
    engine_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Caught here, not at the first job: with no executor a job stays
        # pending forever, and a team factory that cannot build a team
        # fails every job.
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.executors < 1:
            raise ValueError("executors must be >= 1")
        check_backend(self.backend)
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, "
                f"got {self.distribution!r}"
            )
        if self.categories < 1:
            raise ValueError("categories must be >= 1")


class LikelihoodService:
    """A persistent likelihood engine behind a job queue."""

    def __init__(self, config: ServiceConfig | None = None,
                 metrics: MetricsRegistry | None = None, tracer=None):
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.flight = FlightRecorder()
        self.queue = JobQueue()
        self.cache = ServeCache(max_bytes=self.config.cache_bytes)
        self.pool = TeamPool(self._build_engine, self.config.pool_capacity)
        self.started_at = time.time()
        self._job_ids = (f"job-{n}" for n in itertools.count(1))
        self._finish_times: collections.deque[float] = collections.deque(maxlen=256)
        self._threads: list[threading.Thread] = []
        self._live_planes: dict[str, str] = {}
        self._running = False

    # -- engine construction ----------------------------------------------

    def _build_engine(self, context) -> ParallelPLK:
        cfg = self.config
        engine = ParallelPLK(
            context.data,
            context.tree,
            context.models,
            context.alphas,
            n_workers=cfg.workers,
            backend=cfg.backend,
            distribution=cfg.distribution,
            initial_lengths=context.lengths,
            categories=cfg.categories,
            live=cfg.live,
            metrics=self.metrics,
            **cfg.engine_kwargs,
        )
        plane = getattr(engine, "_stats_plane", None)
        if plane is not None:
            self._live_planes[context.key] = plane.name
        return engine

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "LikelihoodService":
        if self._running:
            return self
        self._running = True
        self.flight.record("service_start", executors=self.config.executors)
        for n in range(self.config.executors):
            t = threading.Thread(
                target=self._executor_loop, name=f"serve-exec-{n}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self.queue.close()
        for t in self._threads:
            t.join(timeout=30)
        self._threads = []
        self.pool.close()
        self.flight.record("service_stop")

    def __enter__(self) -> "LikelihoodService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission --------------------------------------------------------

    def submit(self, spec: dict, tenant: str = "default", priority: int = 0,
               timeout: float | None = None) -> Job:
        """Validate, price and enqueue one job; returns it immediately.

        ``spec`` must carry ``op`` (one of :data:`OPS`) and ``dataset``
        (a :func:`repro.serve.cache.build_context` spec), and no key the
        op does not read.  ``root_edge`` and every entry of the non-empty
        ``edges`` list must be an edge number of the dataset's tree.
        Pricing builds/reuses the dataset context, so the cache is warm
        by the time an executor claims the job.
        """
        op = spec.get("op")
        if op not in OPS:
            raise ValueError(f"unknown op {op!r} (expected one of {sorted(OPS)})")
        if op.startswith("chaos_") and not self.config.allow_chaos:
            raise ValueError(f"op {op!r} requires allow_chaos=True")
        if "dataset" not in spec:
            raise ValueError("spec must carry a 'dataset' description")
        unread = sorted(set(spec) - {"op", "dataset", *OPS[op]["keys"]})
        if unread:
            raise ValueError(f"op {op!r} does not read spec keys {unread}")
        context = self.cache.get(spec["dataset"])
        n_edges = context.tree.n_edges
        if "root_edge" in spec:
            _check_edge("root_edge", spec["root_edge"], n_edges)
        if "edges" in spec:
            edges = spec["edges"]
            if not isinstance(edges, (list, tuple)) or not edges:
                raise ValueError("edges: must be a non-empty list of edge numbers")
            for edge in edges:
                _check_edge("edges", edge, n_edges)
        job = Job(
            id=next(self._job_ids),
            tenant=tenant,
            spec=spec,
            priority=int(priority),
            timeout=timeout,
            cost=price_job(spec, context.layout),
        )
        self.queue.submit(job)
        self.metrics.counter("serve.jobs.submitted").inc()
        self.metrics.gauge("serve.queue_depth").set(self.queue.depth())
        self.flight.record("job_submitted", job=job.id, tenant=tenant, op=op)
        return job

    # -- execution ---------------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            job = self.queue.claim()
            if job is None:
                return
            batch = [job]
            if (
                job.spec["op"] == "loglikelihood"
                and self.config.batch_limit > 1
            ):
                key = self.cache.get(job.spec["dataset"]).key
                extras = self.queue.claim_batch(
                    lambda j: (
                        j.spec["op"] == "loglikelihood"
                        and self.cache.get(j.spec["dataset"]).key == key
                    ),
                    limit=self.config.batch_limit - 1,
                )
                batch.extend(extras)
                if extras:
                    self.metrics.counter("serve.jobs.batched").inc(len(extras))
            self._run_batch(batch)
            self.metrics.gauge("serve.queue_depth").set(self.queue.depth())

    def _run_batch(self, batch: list[Job]) -> None:
        context = self.cache.get(batch[0].spec["dataset"])
        t0 = time.perf_counter()
        try:
            team = self.pool.checkout(context, timeout=self.config.checkout_timeout)
        except Exception as exc:  # noqa: BLE001 - timeout, closed pool, failed build
            for job in batch:
                self._finish(job, error={"type": "pool", "message": str(exc)})
            return
        try:
            if len(batch) > 1:
                lnls = team.engine.run("loglikelihood", [
                    ("lnl", int(j.spec.get("root_edge", 0))) for j in batch
                ])
                outcomes = [{"lnl": lnl, "batched": len(batch)} for lnl in lnls]
            else:
                outcomes = [self._run_op(team, batch[0])]
            for job in batch:
                self.pool.record(team, job.cost)
            # Check the team in BEFORE notifying clients: a client that
            # resubmits the instant its job completes must find the warm
            # team idle, not race it into a cold build.
            self.pool.checkin(team)
            for job, result in zip(batch, outcomes):
                self._finish(job, result=result)
        except WorkerError as exc:
            # EOFError/OSError originals mean the worker process died
            # (the team auto-terminated); anything else is a worker-side
            # exception shipped back — the team itself is still healthy.
            died = isinstance(exc.original, (EOFError, OSError)) or team.engine.closed
            path = self._postmortem(exc, batch)
            error = {
                "type": "worker_death" if died else "worker_error",
                "rank": exc.rank,
                "message": str(exc),
                "postmortem": path,
            }
            for job in batch:
                self._finish(job, error=error)
            if died:
                self.pool.discard(team)
            else:
                # The failed op may have half-applied parameter writes;
                # force a snapshot restore before anyone reuses the team.
                team.dirty = True
                self.pool.checkin(team)
        except Exception as exc:  # noqa: BLE001 - becomes the job's error
            for job in batch:
                self._finish(job, error={"type": "error", "message": str(exc)})
            team.dirty = True
            self.pool.checkin(team)
        finally:
            dur = time.perf_counter() - t0
            for job in batch:
                self.tracer.add_span(
                    f"job:{job.spec['op']}", cat="serve", lane=-1,
                    start=t0, duration=dur, job=job.id, tenant=job.tenant,
                )
                self.metrics.histogram("serve.job_seconds").observe(dur)

    def _run_op(self, team, job: Job) -> dict:
        engine = team.engine
        spec = job.spec
        op = spec["op"]
        if OPS[op]["mutates"]:
            team.dirty = True
        if op == "loglikelihood":
            return {"lnl": float(engine.loglikelihood(int(spec.get("root_edge", 0))))}
        if op == "loglikelihood_parts":
            parts = engine.partition_loglikelihoods(int(spec.get("root_edge", 0)))
            return {"lnl_parts": [float(x) for x in parts],
                    "lnl": float(parts.sum())}
        if op == "optimize_branches":
            edges = [int(e) for e in spec.get("edges", [0])]
            lengths = engine.optimize_branches(edges, spec.get("strategy", "new"))
            return {
                "edges": edges,
                "lengths": [[float(x) for x in row] for row in lengths],
                "lnl": float(engine.loglikelihood(edges[0])),
            }
        if op == "optimize_alpha":
            alphas = engine.optimize_alpha(spec.get("strategy", "new"))
            return {"alphas": [float(a) for a in alphas],
                    "lnl": float(engine.loglikelihood())}
        if op == "chaos_die":
            engine.run("chaos", [("die", int(spec.get("rank", 0)))])
            return {}
        if op == "chaos_raise":
            # An op no worker implements: exercises the worker-side
            # exception path (shipped back, team survives protocol-wise
            # but the error still fails the job).
            engine.run("chaos", [("no_such_op",)])
            return {}
        raise ValueError(f"unhandled op {op!r}")

    def _postmortem(self, exc: WorkerError, batch: list[Job]) -> str:
        self.flight.record(
            "worker_death", rank=exc.rank, jobs=[j.id for j in batch],
            detail=str(exc.original),
        )
        directory = (
            self.config.postmortem_dir
            or os.environ.get(FLIGHT_DIR_ENV)
            or tempfile.gettempdir()
        )
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"serve-flight-{os.getpid()}-{exc.rank}.jsonl")
        return self.flight.dump(path)

    def _finish(self, job: Job, result=None, error=None) -> None:
        self.queue.finish(job, result=result, error=error)
        if job.state == JobState.DONE:
            self.metrics.counter("serve.jobs.completed").inc()
        else:
            self.metrics.counter("serve.jobs.failed").inc()
            self.flight.record("job_failed", job=job.id,
                               error=(error or {}).get("type"))
        self._finish_times.append(time.time())

    # -- client surface ----------------------------------------------------

    def result(self, job_id: str, wait: float | None = None) -> dict:
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if wait:
            job.wait(wait)
        return job.to_dict()

    def cancel(self, job_id: str) -> bool:
        ok = self.queue.cancel(job_id)
        if ok:
            self.metrics.counter("serve.jobs.cancelled").inc()
        return ok

    def qps(self, window: float = 10.0) -> float:
        cutoff = time.time() - window
        return sum(1 for t in self._finish_times if t >= cutoff) / window

    def stats(self) -> dict:
        expired = self.queue.reap()
        if expired:
            self.metrics.counter("serve.jobs.expired").inc(len(expired))
        self._update_gauges()
        return {
            "uptime": round(time.time() - self.started_at, 3),
            "qps": round(self.qps(), 4),
            "queue": self.queue.snapshot(),
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
            "tenant_imbalance": round(self.queue.imbalance(), 4),
            "live_planes": dict(self._live_planes),
        }

    def _update_gauges(self) -> None:
        self.metrics.gauge("serve.qps").set(self.qps())
        self.metrics.gauge("serve.queue_depth").set(self.queue.depth())
        self.metrics.gauge("serve.tenant_imbalance").set(self.queue.imbalance())
        pool = self.pool.stats()
        self.metrics.gauge("serve.pool.idle").set(pool["idle"])
        self.metrics.gauge("serve.pool.busy").set(pool["busy"])
        cache = self.cache.stats()
        self.metrics.gauge("serve.cache.entries").set(cache["entries"])
        self.metrics.gauge("serve.cache.bytes").set(cache["bytes"])

    def prometheus(self) -> str:
        self._update_gauges()
        cfg = self.config
        return prometheus_text(self.metrics, run_config={
            "mode": "serve", "backend": cfg.backend,
            "workers": cfg.workers, "executors": cfg.executors,
        })


# -- the socket front end --------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: LikelihoodService = self.server.service  # type: ignore[attr-defined]
        for raw in self.rfile:
            if not raw.strip():
                continue
            try:
                request = protocol.decode(raw)
                response = self._dispatch(service, request)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                response = protocol.error_response("?", str(exc))
            self.wfile.write(protocol.encode(response))
            self.wfile.flush()
            if response.get("op") == "shutdown" and response.get("ok"):
                return

    def _dispatch(self, service: LikelihoodService, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return protocol.ok_response(
                "ping", version=protocol.PROTOCOL_VERSION,
                uptime=round(time.time() - service.started_at, 3),
            )
        if op == "submit":
            job = service.submit(
                request["spec"],
                tenant=request.get("tenant", "default"),
                priority=request.get("priority", 0),
                timeout=request.get("timeout"),
            )
            return protocol.ok_response("submit", id=job.id, cost=job.cost)
        if op == "result":
            view = service.result(request["id"], wait=request.get("wait"))
            return protocol.ok_response("result", job=view)
        if op == "cancel":
            return protocol.ok_response(
                "cancel", cancelled=service.cancel(request["id"])
            )
        if op == "stats":
            return protocol.ok_response("stats", stats=service.stats())
        if op == "metrics":
            return protocol.ok_response("metrics", text=service.prometheus())
        if op == "shutdown":
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
            return protocol.ok_response("shutdown")
        return protocol.error_response(str(op), f"unknown protocol op {op!r}")


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


def serve_forever(service: LikelihoodService, socket_path: str,
                  ready: threading.Event | None = None) -> None:
    """Run the NDJSON daemon on a unix socket until a ``shutdown``
    request (or ``KeyboardInterrupt``).  Removes a stale socket file on
    bind and cleans up on exit."""
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    service.start()
    server = _Server(socket_path, _Handler)
    server.service = service  # type: ignore[attr-defined]
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
        if os.path.exists(socket_path):
            os.unlink(socket_path)
