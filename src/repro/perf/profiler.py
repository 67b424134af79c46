"""Opt-in instrumentation of the real worker team.

:class:`Profiler` sits on the master's broadcast path
(:meth:`repro.parallel.ParallelPLK._broadcast` delegates to
``profiler.broadcast(team, cmd)``): it wall-clocks every command and asks
the team for the *timed* variant of the exchange, in which each worker
additionally reports its own ``execute()`` seconds.  :class:`NullProfiler`
is the default and keeps the hot path untouched — one no-op method call,
no timing, no per-worker clock reads.

Typical use::

    from repro.parallel import ParallelPLK
    from repro.perf import Profiler

    prof = Profiler()
    with ParallelPLK(data, tree, models, alphas, 4, profiler=prof) as team:
        team.optimize_branches(range(6), "new")
    profile = prof.profile()          # RunProfile
    print(profile.summary())
    profile.save("newpar.json")
"""
from __future__ import annotations

import time

from ..core.trace import describe_command
from .profile import CommandRecord, RunProfile

__all__ = ["Profiler", "NullProfiler"]


class NullProfiler:
    """Discards everything; the zero-overhead default.

    Valid anywhere a :class:`Profiler` is expected — ``broadcast`` simply
    forwards to the team's untimed exchange.
    """

    enabled = False

    def bind(self, **meta) -> None:  # noqa: D102
        pass

    def broadcast(self, team, cmd: tuple) -> list:  # noqa: D102
        return team.broadcast(cmd)


class Profiler:
    """Records one :class:`~repro.perf.profile.CommandRecord` per broadcast.

    A profiler instance is bound to one team (``ParallelPLK`` calls
    :meth:`bind` with the backend geometry at construction) but survives
    the team: call :meth:`profile` after the run — or mid-run — to get the
    accumulated :class:`~repro.perf.profile.RunProfile`.
    """

    enabled = True

    def __init__(self, meta: dict | None = None):
        self.records: list[CommandRecord] = []
        self.backend = ""
        self.n_workers = 0
        self.distribution = "cyclic"
        self.live = False
        self.meta = dict(meta or {})

    def bind(self, *, backend: str, n_workers: int, distribution: str,
             live: bool = False) -> None:
        """Called by :class:`~repro.parallel.ParallelPLK` at team startup."""
        self.backend = backend
        self.n_workers = n_workers
        self.distribution = distribution
        self.live = live

    def broadcast(self, team, cmd: tuple) -> list:
        # A fused program records as ONE region (one barrier) labelled
        # "prog(op1+op2+...)" carrying its worker-command count, exactly
        # mirroring the simulator's one-sync-per-region accounting.
        op, kind, n_cmds = describe_command(cmd)
        t0 = time.perf_counter()
        results, busy = team.broadcast_timed(cmd)
        wall = time.perf_counter() - t0
        self.records.append(
            CommandRecord(op=op, kind=kind, wall=wall, busy=tuple(busy),
                          n_commands=n_cmds)
        )
        return results

    def reset(self) -> None:
        """Drop accumulated records (e.g. after a warmup pass)."""
        self.records.clear()

    def profile(self) -> RunProfile:
        """The accumulated measurements as a :class:`RunProfile`."""
        meta = dict(self.meta)
        meta.setdefault("live", self.live)
        return RunProfile(
            backend=self.backend,
            n_workers=self.n_workers,
            distribution=self.distribution,
            records=list(self.records),
            meta=meta,
        )
