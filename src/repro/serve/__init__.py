"""Likelihood-as-a-service: a persistent engine behind a job queue.

The one-shot CLI pays the full setup bill — fork a worker team, encode
the tips, eigendecompose every model — per invocation.  ``repro.serve``
keeps that state warm between requests and multiplexes many tenants over
it, the way BEAGLE serves diverse clients behind one likelihood API:

* :mod:`repro.serve.queue` — job lifecycle (priorities, per-tenant
  fairness, queue-wait timeouts, cancellation);
* :mod:`repro.serve.pool` — warm :class:`~repro.parallel.engine.ParallelPLK`
  teams checked out and returned without teardown, jobs priced by
  :func:`~repro.parallel.distribution.pattern_weight`;
* :mod:`repro.serve.cache` — cross-request contexts (datasets, trees,
  models with memoized eigensystems) with memory-pressure LRU eviction;
* :mod:`repro.serve.daemon` — the :class:`LikelihoodService` executor
  core and the newline-delimited-JSON unix-socket front end;
* :mod:`repro.serve.client` — one client interface, in-process or over
  the socket.

Operator's handbook: ``docs/SERVICE.md``.
"""
from .cache import AnalysisContext, ServeCache, fingerprint
from .client import LocalClient, SocketClient
from .daemon import LikelihoodService, ServiceConfig
from .pool import TeamPool, WarmTeam, price_job
from .queue import Job, JobQueue, JobState

__all__ = [
    "AnalysisContext",
    "Job",
    "JobQueue",
    "JobState",
    "LikelihoodService",
    "LocalClient",
    "ServeCache",
    "ServiceConfig",
    "SocketClient",
    "TeamPool",
    "WarmTeam",
    "fingerprint",
    "price_job",
]
