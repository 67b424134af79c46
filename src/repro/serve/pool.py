"""Warm worker-team pool: checkout/return without teardown.

The expensive part of the processes backend is setup: fork the team and
prime every worker's partition engines.  A one-shot run pays it per
invocation; the pool pays it once per (dataset, engine-config) and keeps
the team *warm* — forked-and-ready — between requests.

Scheduling is cost-aware in the currency the pattern distribution is
judged in:

* :func:`price_job` prices a request as its partitions' widths times
  :func:`~repro.parallel.distribution.pattern_weight`, so queue fairness
  and team checkout speak one unit;
* :meth:`TeamPool.checkout` is *online least-loaded packing*: among idle
  replicas for a dataset it picks the team with the least cumulative
  served cost.

Hermeticity: a warm team that ran a parameter-mutating job is restored
to its initial snapshot via
:meth:`~repro.parallel.engine.ParallelPLK.restore_parameters` (one fused
program) on check-in, so every checkout observes the same state a cold
engine starts from — warm results are bitwise-identical to one-shot
runs.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..parallel.distribution import pattern_weight
from ..parallel.engine import WorkerError

__all__ = ["TeamPool", "WarmTeam", "price_job"]


#: Relative cost of one service op against one full-traversal evaluation
#: of the dataset.  Rough but consistent: fairness and packing only need
#: costs to be *comparable*, not exact seconds.
OP_WEIGHT = {
    "loglikelihood": 1.0,
    "optimize_branch": 6.0,   # per edge: prepare + Newton rounds
    "optimize_branches": 6.0, # per edge in spec["edges"]
    "optimize_alpha": 10.0,   # Brent evaluations
}


def price_job(spec: dict, layout) -> float:
    """Predicted cost of a job spec over a dataset layout: the sum over
    partitions of width times
    :func:`~repro.parallel.distribution.pattern_weight`, times the op's
    weight.

    >>> from repro.parallel import PartitionLayout
    >>> layout = PartitionLayout((100, 100), (4, 4))
    >>> lnl = price_job({"op": "loglikelihood"}, layout)
    >>> opt = price_job({"op": "optimize_branches", "edges": [0, 1, 2]}, layout)
    >>> opt / lnl
    18.0
    """
    base = sum(
        width * pattern_weight(states, layout.categories)
        for width, states in zip(layout.lengths, layout.states)
    )
    op = spec.get("op", "loglikelihood")
    weight = OP_WEIGHT.get(op, 1.0)
    edges = spec.get("edges")
    if op in ("optimize_branch", "optimize_branches") and edges is not None:
        n_edges = len(edges) if hasattr(edges, "__len__") else int(edges)
        weight *= max(n_edges, 1)
    return base * weight


@dataclass
class WarmTeam:
    """One warm engine bound to one dataset context."""

    key: str
    engine: object  # ParallelPLK
    context: object  # AnalysisContext
    lengths0: np.ndarray
    alphas0: list[float]
    jobs_served: int = 0
    cost_served: float = 0.0
    dirty: bool = False
    last_used: float = field(default_factory=time.time)

    def restore(self) -> None:
        """Replay the initial parameter snapshot (one fused program)."""
        self.engine.restore_parameters(self.lengths0, self.alphas0)
        self.dirty = False


class TeamPool:
    """Bounded pool of warm teams with LRU cross-dataset eviction.

    ``factory(context)`` builds a fresh
    :class:`~repro.parallel.engine.ParallelPLK` for a context; the
    service supplies it with its backend configuration.

    ``capacity`` bounds the number of live teams (each one holds a full
    worker team's processes/threads).  A checkout for a new dataset when
    every slot is busy blocks until a team frees; if an *idle* team for
    a different dataset exists it is evicted (closed) instead, LRU
    first.
    """

    def __init__(self, factory, capacity: int = 2):
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.factory = factory
        self.capacity = capacity
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        self._idle: list[WarmTeam] = []
        self._busy: list[WarmTeam] = []
        self._building = 0
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.discards = 0

    # -- lifecycle ---------------------------------------------------------

    def _total_locked(self) -> int:
        return len(self._idle) + len(self._busy) + self._building

    def checkout(self, context, timeout: float | None = None) -> WarmTeam:
        """Acquire a warm team for ``context`` (build one on miss).

        Blocks up to ``timeout`` seconds when the pool is saturated with
        busy teams; raises ``TimeoutError`` after that.
        """
        deadline = None if timeout is None else time.time() + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise RuntimeError("team pool is closed")
                # Warm hit: least-loaded idle replica for this dataset.
                matches = [t for t in self._idle if t.key == context.key]
                if matches:
                    team = min(matches, key=lambda t: t.cost_served)
                    self._idle.remove(team)
                    self._busy.append(team)
                    self.hits += 1
                    return team
                if self._total_locked() < self.capacity:
                    self._building += 1
                    break
                # Saturated: evict an idle team of another dataset (LRU).
                if self._idle:
                    victim = min(self._idle, key=lambda t: t.last_used)
                    self._idle.remove(victim)
                    self.evictions += 1
                    victim.engine.close()
                    continue  # slot freed; loop re-checks capacity
                wait = None if deadline is None else deadline - time.time()
                if wait is not None and wait <= 0:
                    raise TimeoutError(
                        f"no team available within {timeout}s "
                        f"(capacity={self.capacity}, all busy)"
                    )
                self._freed.wait(wait)
        # Cold build outside the lock (forking a team is slow).
        self.misses += 1
        try:
            engine = self.factory(context)
        except BaseException:
            with self._lock:
                self._building -= 1
                self._freed.notify()
            raise
        team = WarmTeam(
            key=context.key,
            engine=engine,
            context=context,
            lengths0=np.asarray(context.lengths, float).copy(),
            alphas0=list(context.alphas),
        )
        with self._lock:
            self._building -= 1
            self._busy.append(team)
        return team

    def checkin(self, team: WarmTeam) -> None:
        """Return a team warm (no teardown).  A dirty team is restored to
        its initial snapshot first; a team whose engine died is discarded
        instead of reused."""
        if team.engine.closed:
            self.discard(team)
            return
        if team.dirty:
            try:
                team.restore()
            except WorkerError:
                self.discard(team)
                return
        team.last_used = time.time()
        with self._lock:
            if team in self._busy:
                self._busy.remove(team)
            self._idle.append(team)
            self._freed.notify()

    def discard(self, team: WarmTeam) -> None:
        """Drop a team from the pool and tear it down (post-failure)."""
        self.discards += 1
        try:
            team.engine.close()
        except Exception:
            pass
        with self._lock:
            if team in self._busy:
                self._busy.remove(team)
            if team in self._idle:
                self._idle.remove(team)
            self._freed.notify()

    def record(self, team: WarmTeam, cost: float) -> None:
        team.jobs_served += 1
        team.cost_served += float(cost)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            teams = self._idle + self._busy
            self._idle = []
            self._busy = []
            self._freed.notify_all()
        for team in teams:
            try:
                team.engine.close()
            except Exception:
                pass

    # -- introspection -----------------------------------------------------

    def idle_teams(self, key: str | None = None) -> list[WarmTeam]:
        with self._lock:
            return [t for t in self._idle if key is None or t.key == key]

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "idle": len(self._idle),
                "busy": len(self._busy),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "discards": self.discards,
                "teams": [
                    {
                        "key": t.key,
                        "jobs_served": t.jobs_served,
                        "cost_served": round(t.cost_served, 6),
                        "busy": t in self._busy,
                    }
                    for t in self._idle + self._busy
                ],
            }
