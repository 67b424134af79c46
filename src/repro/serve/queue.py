"""Job lifecycle and the multi-tenant queue.

A job moves through a small state machine::

    PENDING --claim--> RUNNING --finish--> DONE | FAILED
    PENDING --cancel--> CANCELLED
    PENDING --deadline--> EXPIRED

Cancellation and expiry only affect PENDING jobs: a claimed job runs to
completion (worker commands are not interruptible mid-barrier), which
keeps the warm team's parameter state well-defined.  ``docs/SERVICE.md``
documents these semantics for operators.

Scheduling order within :meth:`JobQueue.claim` is strict priority
classes; inside a class, the tenant with the least *cumulative served
cost* goes first (cost-weighted fair sharing — a tenant submitting huge
analyses cannot starve a tenant submitting small ones), and ties fall
back to submission order.  Served cost is in
:func:`repro.parallel.distribution.pattern_weight` units, the currency
team checkout uses too.
"""
from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Job", "JobQueue", "JobState"]


class JobState:
    """String constants for the job state machine (JSON-friendly)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"

    #: States a job can never leave.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED, EXPIRED})


@dataclass(slots=True)
class Job:
    """One unit of service work: an operation against a dataset context.

    ``spec`` is the client-provided request body: at minimum an ``op``
    (e.g. ``"loglikelihood"``) and a ``dataset`` description the
    :class:`~repro.serve.cache.ServeCache` can build a context from.
    ``cost`` is the scheduler's predicted cost in
    :func:`~repro.parallel.distribution.pattern_weight` units, priced at submit
    time by :func:`repro.serve.pool.price_job`.
    """

    id: str
    tenant: str
    spec: dict
    priority: int = 0
    timeout: float | None = None  # max seconds to wait in the queue
    cost: float = 1.0
    state: str = JobState.PENDING
    result: Any = None
    error: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    _seq: int = 0
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def _release(self) -> None:
        """Wake the job's waiters (it is terminal now), then give it the
        shared set event: a finished job kept in the queue's table holds
        no lock, condition or waiter deque of its own."""
        self._done.set()
        self._done = _TERMINAL

    @property
    def finished(self) -> bool:
        return self.state in JobState.TERMINAL

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def to_dict(self) -> dict:
        """JSON-ready summary (the socket protocol's job view)."""
        out = {
            "id": self.id,
            "tenant": self.tenant,
            "op": self.spec.get("op"),
            "priority": self.priority,
            "cost": round(float(self.cost), 6),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.state == JobState.DONE:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


#: The already-set event every terminal job waits on.
_TERMINAL = threading.Event()
_TERMINAL.set()


class JobQueue:
    """Thread-safe priority queue with per-tenant fair sharing.

    The queue is intentionally small and scan-based: service queues hold
    tens of jobs, not millions, and a linear scan under the lock keeps
    the fairness rule (priority class, then least-served tenant, then
    FIFO) trivially auditable.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._pending: list[Job] = []
        self._jobs: dict[str, Job] = {}
        self._seq = itertools.count()
        #: Cumulative served cost per tenant (fairness counters).
        self.tenant_served: dict[str, float] = {}
        self._closed = False

    # -- submission --------------------------------------------------------

    def submit(self, job: Job) -> Job:
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            if job.id in self._jobs:
                raise ValueError(f"duplicate job id {job.id!r}")
            job._seq = next(self._seq)
            self._jobs[job.id] = job
            self._pending.append(job)
            self.tenant_served.setdefault(job.tenant, 0.0)
            self._ready.notify()
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- scheduling --------------------------------------------------------

    def _claim_key(self, job: Job):
        return (-job.priority, self.tenant_served.get(job.tenant, 0.0), job._seq)

    def _reap_locked(self, now: float) -> list[Job]:
        expired = [
            j for j in self._pending
            if j.timeout is not None and now - j.submitted_at > j.timeout
        ]
        for job in expired:
            self._pending.remove(job)
            job.state = JobState.EXPIRED
            job.error = {
                "type": "expired",
                "message": f"queued longer than timeout={job.timeout}s",
            }
            job.finished_at = now
            job._release()
        return expired

    def reap(self) -> list[Job]:
        """Expire pending jobs past their queue-wait deadline; returns them."""
        with self._lock:
            return self._reap_locked(time.time())

    def claim(self, timeout: float | None = None) -> Job | None:
        """Take the best eligible pending job (blocks up to ``timeout``).

        Returns ``None`` on timeout or queue shutdown.  The returned job
        is already RUNNING and its cost is charged to the tenant's
        fairness counter.
        """
        deadline = None if timeout is None else time.time() + timeout
        with self._lock:
            while True:
                self._reap_locked(time.time())
                if self._pending:
                    job = min(self._pending, key=self._claim_key)
                    self._pending.remove(job)
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    self.tenant_served[job.tenant] = (
                        self.tenant_served.get(job.tenant, 0.0) + job.cost
                    )
                    return job
                if self._closed:
                    return None
                wait = None if deadline is None else deadline - time.time()
                if wait is not None and wait <= 0:
                    return None
                self._ready.wait(wait)

    def claim_batch(self, match, limit: int = 8) -> list[Job]:
        """Claim up to ``limit`` additional pending jobs satisfying
        ``match(job)`` (non-blocking) — the request-batching hook: the
        executor drains compatible small jobs and fuses them into one
        program."""
        out: list[Job] = []
        with self._lock:
            for job in sorted(self._pending, key=self._claim_key):
                if len(out) >= limit:
                    break
                if not match(job):
                    continue
                out.append(job)
            now = time.time()
            for job in out:
                self._pending.remove(job)
                job.state = JobState.RUNNING
                job.started_at = now
                self.tenant_served[job.tenant] = (
                    self.tenant_served.get(job.tenant, 0.0) + job.cost
                )
        return out

    # -- completion --------------------------------------------------------

    def finish(self, job: Job, result: Any = None, error: dict | None = None) -> None:
        with self._lock:
            if job.finished:
                return
            job.state = JobState.FAILED if error is not None else JobState.DONE
            job.result = result
            job.error = error
            job.finished_at = time.time()
            job._release()

    def cancel(self, job_id: str) -> bool:
        """Cancel a PENDING job.  Returns False if unknown, already
        running, or already terminal (running jobs run to completion)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != JobState.PENDING:
                return False
            self._pending.remove(job)
            job.state = JobState.CANCELLED
            job.error = {"type": "cancelled", "message": "cancelled by client"}
            job.finished_at = time.time()
            job._release()
            return True

    def close(self) -> None:
        """Stop accepting work and wake blocked claimers (they get None)."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()

    # -- introspection -----------------------------------------------------

    def imbalance(self) -> float:
        """max/mean over per-tenant served cost (1.0 = perfectly fair);
        the ``serve.tenant_imbalance`` gauge."""
        from ..parallel.distribution import imbalance_ratio

        served = [v for v in self.tenant_served.values() if v > 0]
        if not served:
            return 1.0
        return imbalance_ratio(served)

    def snapshot(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "depth": len(self._pending),
                "jobs": dict(states),
                "tenants": {t: round(c, 6) for t, c in self.tenant_served.items()},
            }
