"""Opt-in instrumentation of the real worker team.

:class:`Profiler` is a record sink on the master's one exchange path:
:meth:`repro.parallel.ParallelPLK._broadcast` clocks every broadcast
(master wall time, plus each worker's own ``execute()`` seconds, which
every reply carries) and hands the attached observers one
:class:`~repro.perf.profile.CommandRecord` per exchange; the profiler
keeps them.  Without a profiler (``profiler=None``) nothing is kept.

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

from .profile import CommandRecord, RunProfile

__all__ = ["Profiler"]


class Profiler:
    """Keeps the :class:`~repro.perf.profile.CommandRecord` of every
    broadcast.

    A profiler instance is bound to one team (``ParallelPLK`` calls
    :meth:`bind` with the backend geometry at construction) but survives
    the team: call :meth:`profile` after the run — or mid-run — to get the
    accumulated :class:`~repro.perf.profile.RunProfile`.
    """

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

    def on_exchange(self, record: CommandRecord, start: float) -> None:
        """Keep one exchange's record (``start`` is not needed here)."""
        self.records.append(record)

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
