"""Live telemetry plane: observe an in-flight parallel run without
stopping it.

Everything else in :mod:`repro.obs` is post-hoc — traces and metrics are
inspected after the run returns, and a worker that dies mid-run takes its
story with it.  This module is the runtime tier:

* :func:`sample_plane` / :class:`WorkerSample` — lock-free snapshots of
  the per-worker shared-memory stats rows
  (:class:`~repro.parallel.shm.WorkerStatsPlane`) each worker updates
  after every command: heartbeat, busy/wait seconds, command and pattern
  counters, current op;
* :class:`HealthMonitor` — samples heartbeats on the master, flags
  stalled workers (phase busy with an aging heartbeat past a threshold)
  and feeds :func:`~repro.parallel.distribution.imbalance_ratio` with
  *measured-so-far* busy seconds for a live imbalance gauge;
* :class:`FlightRecorder` — a bounded ring buffer of structured events
  (one ``exchange`` per broadcast, stalls, worker death)
  that survives the crash it describes: when a worker dies or a
  :class:`~repro.parallel.engine.WorkerError` propagates,
  :class:`LiveTelemetry` dumps it as a post-mortem JSONL file;
* :class:`LiveTelemetry` — the facade :class:`~repro.parallel.ParallelPLK`
  drives (``live=True``), tying plane, recorder, monitor and the
  streaming exporters together;
* :func:`render_dashboard` — the per-worker ASCII lanes behind
  ``repro top``.

The plane is off by default: the engine then holds ``live=None``,
creates no shared-memory segment and hands it no records.
:class:`NullHealthMonitor` stands in for the monitor of a plane that is
not bound.

Imports reference :mod:`repro.parallel` SUBMODULES only (``shm``,
``distribution``); the package itself would be circular — ``repro.parallel``
imports the engine, which lazily imports this module.
"""
from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..parallel.distribution import imbalance_ratio
from ..parallel.shm import (
    STAT_BUSY,
    STAT_COMMANDS,
    STAT_EPOCH,
    STAT_HEARTBEAT,
    STAT_OP,
    STAT_PATTERNS,
    STAT_PHASE,
    STAT_WAIT,
    WorkerStatsPlane,
    op_name,
)

__all__ = [
    "WorkerSample",
    "sample_plane",
    "FlightRecorder",
    "HealthMonitor",
    "NullHealthMonitor",
    "HealthReport",
    "LiveTelemetry",
    "render_dashboard",
]

#: Environment variable naming the directory post-mortem dumps land in
#: (default: the working directory).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"


# -- plane snapshots -----------------------------------------------------


@dataclass(frozen=True)
class WorkerSample:
    """One worker's stats row, decoded at a single master-side instant.

    Counters are cumulative since the worker attached; ``heartbeat_age``
    is seconds since the row last changed (system-wide monotonic clock,
    so process workers compare cleanly).  ``consistent`` is False when
    every seqlock retry raced the writer — the snapshot is then possibly
    torn across fields but still per-field atomic, and the monotonic
    counters can only under-report (see :mod:`repro.parallel.shm`).
    """

    rank: int
    phase: str                    # "busy" | "idle"
    op: str                       # current/last worker command
    commands: int
    busy_seconds: float
    wait_seconds: float
    patterns: int
    heartbeat_age: float
    uptime: float
    consistent: bool

    @property
    def busy_fraction(self) -> float:
        """Busy over accounted (busy + wait) time; 0.0 before any work."""
        accounted = self.busy_seconds + self.wait_seconds
        return self.busy_seconds / accounted if accounted > 0.0 else 0.0

    @property
    def commands_per_second(self) -> float:
        return self.commands / self.uptime if self.uptime > 0.0 else 0.0


def sample_plane(
    plane: WorkerStatsPlane, now: float | None = None
) -> list[WorkerSample]:
    """Lock-free snapshot of every worker row, decoded.

    ``now`` (a ``time.monotonic()`` reading) pins all ages to one
    instant; defaults to the current time.
    """
    if now is None:
        now = time.monotonic()
    samples = []
    for rank in range(plane.n_workers):
        row, consistent = plane.read_row(rank)
        samples.append(
            WorkerSample(
                rank=rank,
                phase="busy" if row[STAT_PHASE] else "idle",
                op=op_name(row[STAT_OP]),
                commands=int(row[STAT_COMMANDS]),
                busy_seconds=float(row[STAT_BUSY]),
                wait_seconds=float(row[STAT_WAIT]),
                patterns=int(row[STAT_PATTERNS]),
                heartbeat_age=max(0.0, now - float(row[STAT_HEARTBEAT])),
                uptime=max(0.0, now - float(row[STAT_EPOCH])),
                consistent=consistent,
            )
        )
    return samples


# -- flight recorder -----------------------------------------------------


def _event_dict(entry: tuple) -> dict:
    """A recorder entry ``(seq, t, event, fields)`` as its event dict."""
    seq, t, event, fields = entry
    return {"seq": seq, "t": t, "event": event, **fields}


class FlightRecorder:
    """Bounded ring buffer of structured run events.

    Each event is a ``seq`` number, a wall-clock ``t``, an ``event`` name
    and free-form fields, appended under a lock — the master's broadcast
    loop and a :class:`HealthMonitor` thread may record concurrently.
    The ring stores plain ``(seq, t, event, fields)`` tuples, so the
    per-broadcast :meth:`record` builds no dict;
    :meth:`events` and :meth:`dump` build them on the way out.  The
    buffer keeps the LAST ``capacity`` events, so a post-mortem always
    shows the moments before the failure, however long the run.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("need capacity >= 1")
        self.capacity = capacity
        self._events: deque[tuple] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def record(self, event: str, **fields) -> None:
        """Append one event, stamped with the next ``seq`` and ``t``."""
        self._append(event, fields)

    def _append(self, event: str, fields: dict) -> tuple:
        # record() without re-packing the fields, returning the stored
        # entry: LiveTelemetry calls this once per broadcast and streams
        # the entry.
        t = time.time()
        with self._lock:
            self._seq += 1
            entry = (self._seq, t, event, fields)
            self._events.append(entry)
        return entry

    def events(self) -> list[dict]:
        """The buffered events as dicts, oldest first."""
        with self._lock:
            entries = list(self._events)
        return [_event_dict(entry) for entry in entries]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def dump(self, path: str) -> str:
        """Write the buffer as JSONL (one event per line), oldest first."""
        events = self.events()
        with open(path, "w") as fh:
            for entry in events:
                fh.write(json.dumps(entry) + "\n")
        return path


# -- health monitoring ---------------------------------------------------


@dataclass(frozen=True)
class HealthReport:
    """One :meth:`HealthMonitor.check` result."""

    samples: tuple[WorkerSample, ...]
    stalled: tuple[int, ...]
    imbalance: float

    @property
    def healthy(self) -> bool:
        return not self.stalled


class HealthMonitor:
    """Master-side heartbeat sampler over a worker-stats plane.

    A worker counts as STALLED when it is phase-busy (inside a command)
    and its heartbeat has not moved for ``stall_threshold`` seconds —
    which covers both a worker wedged in a long computation and one that
    died without its row ever returning to idle.  Idle workers never
    stall (an idle team is healthy, merely unemployed).

    ``check()`` also computes the live imbalance:
    :func:`~repro.parallel.distribution.imbalance_ratio` over measured-so-far
    busy seconds — the same quantity the post-hoc profile reports,
    available mid-run.
    """

    enabled = True

    def __init__(
        self,
        plane: WorkerStatsPlane,
        stall_threshold: float = 5.0,
        recorder: FlightRecorder | None = None,
        metrics=None,
    ):
        if stall_threshold <= 0.0:
            raise ValueError("stall_threshold must be positive")
        self.plane = plane
        self.stall_threshold = float(stall_threshold)
        self.recorder = recorder
        self.metrics = metrics
        # Ranks already reported stalled, so a wedged worker produces one
        # flight event per episode, not one per poll.
        self._reported: set[int] = set()

    def sample(self) -> list[WorkerSample]:
        return sample_plane(self.plane)

    def stalled(self, samples: list[WorkerSample] | None = None) -> list[int]:
        """Ranks currently considered stalled."""
        if samples is None:
            samples = self.sample()
        return [
            s.rank
            for s in samples
            if s.phase == "busy" and s.heartbeat_age > self.stall_threshold
        ]

    def imbalance(self, samples: list[WorkerSample] | None = None) -> float:
        """Live imbalance ratio from measured-so-far busy seconds."""
        if samples is None:
            samples = self.sample()
        return imbalance_ratio([s.busy_seconds for s in samples])

    def check(self) -> HealthReport:
        """Sample, detect stalls, publish gauges, record transitions."""
        samples = self.sample()
        stalled = self.stalled(samples)
        ratio = self.imbalance(samples)
        for rank in stalled:
            if rank not in self._reported:
                self._reported.add(rank)
                sample = samples[rank]
                if self.recorder is not None:
                    self.recorder.record(
                        "stall", rank=rank, op=sample.op,
                        heartbeat_age=round(sample.heartbeat_age, 6),
                        threshold=self.stall_threshold,
                    )
        self._reported.intersection_update(stalled)
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.gauge("live.imbalance").set(ratio)
            self.metrics.gauge("live.stalled_workers").set(float(len(stalled)))
        return HealthReport(
            samples=tuple(samples), stalled=tuple(stalled), imbalance=ratio
        )

    def wait_for_stall(
        self, timeout: float, poll: float = 0.05
    ) -> HealthReport | None:
        """Poll :meth:`check` until a stall appears or ``timeout`` passes.

        Returns the first stalled report, or None — the primitive the
        stall-detection tests (and manual drills) build on.
        """
        deadline = time.monotonic() + timeout
        while True:
            report = self.check()
            if report.stalled:
                return report
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll)


class NullHealthMonitor:
    """Monitors nothing; every team is reported healthy."""

    enabled = False
    stall_threshold = float("inf")

    def sample(self) -> list[WorkerSample]:
        return []

    def stalled(self, samples=None) -> list[int]:
        return []

    def imbalance(self, samples=None) -> float:
        return 1.0

    def check(self) -> HealthReport:
        return HealthReport(samples=(), stalled=(), imbalance=1.0)

    def wait_for_stall(self, timeout: float, poll: float = 0.05) -> None:
        return None


# -- the facade ----------------------------------------------------------


class LiveTelemetry:
    """The live plane a :class:`~repro.parallel.ParallelPLK` drives.

    Construct (or pass ``live=True`` for defaults) and the engine will
    :meth:`bind` it to the worker-stats plane it creates before the team
    starts.  From then on:

    * every broadcast's record lands as ONE ``exchange`` event (op, kind,
      commands, wall) in the :class:`FlightRecorder` ring buffer (and,
      when ``events_path`` is set, on a JSONL stream) —
      :meth:`on_exchange`;
    * :meth:`monitor` hands out the bound :class:`HealthMonitor`;
    * a worker death or error records the in-flight op and triggers
      :meth:`postmortem`, dumping the ring buffer as JSONL next to the
      run — :meth:`on_worker_error`.

    The engine owns the plane's lifecycle; :meth:`close` only releases
    the event stream.
    """

    def __init__(
        self,
        stall_threshold: float = 5.0,
        capacity: int = 512,
        postmortem_dir: str | None = None,
        events_path: str | None = None,
        recorder: FlightRecorder | None = None,
    ):
        self.stall_threshold = float(stall_threshold)
        self.recorder = recorder if recorder is not None else FlightRecorder(capacity)
        self.postmortem_dir = postmortem_dir
        self.events_path = events_path
        self._events_fh = None
        self._events_lock = threading.Lock()
        self.plane: WorkerStatsPlane | None = None
        self.metrics = None
        self.run_config: dict = {}
        self.health: HealthMonitor | NullHealthMonitor = NullHealthMonitor()
        self.last_postmortem: str | None = None
        self.final_samples: list[WorkerSample] = []
        self._postmortems = 0

    # -- engine hooks ----------------------------------------------------

    def bind(
        self,
        plane: WorkerStatsPlane,
        metrics=None,
        run_config: dict | None = None,
    ) -> "LiveTelemetry":
        """Called by the engine once the stats plane exists."""
        self.plane = plane
        self.metrics = metrics
        self.run_config = dict(run_config or {})
        self.health = HealthMonitor(
            plane,
            stall_threshold=self.stall_threshold,
            recorder=self.recorder,
            metrics=metrics,
        )
        self.record("run_start", plane=plane.name, **self.run_config)
        return self

    def record(self, event: str, **fields) -> None:
        entry = self.recorder._append(event, fields)
        if self.events_path is not None:
            self._stream(_event_dict(entry))

    def on_exchange(self, record, start: float) -> None:
        """One broadcast's :class:`~repro.perf.CommandRecord` as one
        ``exchange`` flight event."""
        self.record("exchange", op=record.op, kind=record.kind,
                    n_commands=record.n_commands, wall=record.wall)

    def on_worker_error(self, op: str, exc) -> None:
        """A :class:`~repro.parallel.engine.WorkerError` during ``op``:
        record it and dump the post-mortem.  An ``EOFError``/``OSError``
        original means the process died outright (``worker_death``);
        anything else is a worker-side exception shipped back
        (``worker_error``)."""
        died = isinstance(exc.original, (EOFError, OSError))
        event = "worker_death" if died else "worker_error"
        self.record(event, rank=exc.rank, op=op, error=repr(exc.original))
        self.postmortem(reason=event, rank=exc.rank)

    def postmortem(self, reason: str, rank: int | None = None) -> str | None:
        """Dump the flight recorder as a JSONL post-mortem file.

        Called automatically by the engine when a
        :class:`~repro.parallel.engine.WorkerError` propagates; the path
        is remembered as ``last_postmortem``.  Returns None when there is
        nothing buffered to dump.
        """
        self.record("postmortem", reason=reason, rank=rank)
        if not len(self.recorder):
            return None
        directory = self.postmortem_dir or os.environ.get(FLIGHT_DIR_ENV) or "."
        os.makedirs(directory, exist_ok=True)
        self._postmortems += 1
        path = os.path.join(
            directory, f"flight-{os.getpid()}-{self._postmortems}.jsonl"
        )
        self.recorder.dump(path)
        self.last_postmortem = path
        return path

    def close(self) -> None:
        """Detach from the plane and release the event stream.

        Idempotent.  The engine closes the plane itself right after this
        returns, so the final worker rows are captured here as
        ``final_samples`` — what ``repro top`` renders for a
        just-recorded run.
        """
        if self.plane is not None:
            self.record("run_end")
            if getattr(self.plane, "slots", None) is not None:
                self.final_samples = sample_plane(self.plane)
            self.plane = None
            self.health = NullHealthMonitor()
        with self._events_lock:
            if self._events_fh is not None:
                try:
                    self._events_fh.close()
                finally:
                    self._events_fh = None

    # -- live queries ----------------------------------------------------

    def monitor(self) -> HealthMonitor | NullHealthMonitor:
        """The bound :class:`HealthMonitor` (null before :meth:`bind`)."""
        return self.health

    def sample(self) -> list[WorkerSample]:
        """Live samples while bound; the captured final rows after
        :meth:`close`."""
        if self.plane is None:
            return list(self.final_samples)
        return self.health.sample()

    def stalled(self) -> list[int]:
        return self.health.stalled()

    def imbalance(self) -> float:
        samples = self.sample()
        if not samples:
            return 1.0
        return imbalance_ratio([s.busy_seconds for s in samples])

    def prometheus(self) -> str:
        """Prometheus text-format snapshot: bound metrics registry plus
        the live per-worker gauges."""
        from .prometheus import prometheus_text

        return prometheus_text(
            metrics=self.metrics,
            samples=self.sample() or None,
            run_config=self.run_config,
        )

    def dashboard(self, width: int = 78) -> str:
        """One rendered frame of the ``repro top`` dashboard."""
        samples = self.sample()
        return render_dashboard(
            samples,
            run_config=self.run_config,
            imbalance=self.imbalance(),
            width=width,
        )

    # -- internals -------------------------------------------------------

    def _stream(self, entry: dict) -> None:
        with self._events_lock:
            if self._events_fh is None:
                self._events_fh = open(self.events_path, "a")
            self._events_fh.write(json.dumps(entry) + "\n")
            self._events_fh.flush()


# -- dashboard rendering -------------------------------------------------


def _bar(fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = round(fraction * width)
    return "#" * filled + "-" * (width - filled)


def render_dashboard(
    samples: list[WorkerSample],
    run_config: dict | None = None,
    imbalance: float | None = None,
    width: int = 78,
) -> str:
    """ASCII per-worker lanes (one ``repro top`` frame).

    Each lane shows the worker's phase and current op, cumulative
    commands and commands/s, the busy fraction as a bar, and the
    heartbeat age.  Pure function of its inputs, so tests can render a
    synthetic plane without a team.
    """
    lines = []
    cfg = run_config or {}
    title = "repro live"
    stamp = " ".join(
        f"{k}={cfg[k]}"
        for k in ("backend", "distribution", "n_workers")
        if k in cfg
    )
    if stamp:
        title = f"{title} | {stamp}"
    if imbalance is None and samples:
        imbalance = imbalance_ratio([s.busy_seconds for s in samples])
    if imbalance is not None:
        title = f"{title} | imbalance {imbalance:.3f}"
    lines.append(title[:width])
    lines.append("-" * min(width, len(lines[0])))
    if not samples:
        lines.append("(no workers)")
        return "\n".join(lines)
    bar_width = max(10, width - 58)
    header = (
        f"{'rank':<5} {'phase':<5} {'op':<10} {'cmds':>7} {'cmd/s':>8} "
        f"{'busy%':>6} {'':<{bar_width}} {'hb age':>8}"
    )
    lines.append(header[:width])
    for s in samples:
        flag = "" if s.consistent else "?"
        lines.append(
            f"w{s.rank:<4}{flag:<1}{s.phase:<5} {s.op:<10} {s.commands:>7} "
            f"{s.commands_per_second:>8.1f} {100.0 * s.busy_fraction:>5.1f}% "
            f"{_bar(s.busy_fraction, bar_width)} {s.heartbeat_age:>7.3f}s"[:width]
        )
    return "\n".join(lines)
