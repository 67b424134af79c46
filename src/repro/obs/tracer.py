"""Span-based event tracing for analysis runs.

A :class:`Span` is one timestamped, named interval — a master broadcast, an
optimizer round, a Brent/Newton lock-step iteration, an SPR candidate
evaluation.  A :class:`Tracer` collects spans (thread-safely) on a shared
monotonic clock so they can be exported as a Chrome trace-event timeline
(:mod:`repro.obs.export`) and inspected in Perfetto.

Spans carry a ``lane``: lane 0 is the master's command stream; lanes
``1..W`` are the worker timelines.  On a worker team both come from the
one record the engine builds per broadcast (:meth:`Tracer.on_exchange`):
the master span is the exchange's wall time, each worker span that
worker's own execute seconds.

:class:`NullTracer` is the default everywhere a tracer is accepted and
follows the repo's :class:`~repro.core.trace.NullRecorder` pattern:
instrumented code guards the hot path with ``if tracer.enabled:`` (an
attribute read, no method call), so an untraced run pays nothing.
"""
from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NullTracer", "MASTER_LANE"]

#: Lane index of the master command stream (workers are lanes 1..W).
MASTER_LANE = 0


@dataclass(frozen=True)
class Span:
    """One named interval on the tracer's clock.

    Attributes
    ----------
    name:
        What happened (``"deriv_edges"``, ``"optimize_alpha"``, ``"spr"``, ...).
    cat:
        Grouping category — a region kind (``"derivative"``), or
        ``"optimizer"`` / ``"search"`` / ``"broadcast"``.
    start:
        Seconds since the tracer's epoch.
    duration:
        Seconds (>= 0).
    lane:
        Timeline the span belongs to (0 = master, ``w+1`` = worker ``w``).
    args:
        Small JSON-serializable payload (edge ids, partition counts, ...).
    """

    name: str
    cat: str
    start: float
    duration: float
    lane: int = MASTER_LANE
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class _NullSpanContext:
    """Reusable no-op context manager returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Discards everything; the zero-overhead default.

    Hot paths must guard with ``if tracer.enabled:`` so a null tracer adds
    no method calls at all; the methods below exist so non-hot call sites
    (once-per-optimizer-call spans) can skip the guard.
    """

    enabled = False

    def span(self, name: str, cat: str = "", lane: int = MASTER_LANE, **args):
        return _NULL_SPAN

    def add_span(self, name: str, cat: str, lane: int, start: float,
                 duration: float, **args) -> None:
        pass

    def instant(self, name: str, cat: str = "", lane: int = MASTER_LANE, **args) -> None:
        pass

    def now(self) -> float:
        return 0.0


class Tracer:
    """Collects :class:`Span` records on one monotonic clock.

    All mutation happens under a lock, so worker threads may report spans
    concurrently with the master.  ``finished`` spans are kept in
    completion order; exporters sort by start time.
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.instants: list[Span] = []

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer was created."""
        return time.perf_counter() - self._epoch

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "", lane: int = MASTER_LANE, **args):
        """Context manager timing one interval; records it on exit (also
        when the body raises, so failed commands still appear on the
        timeline)."""
        t0 = self.now()
        try:
            yield
        finally:
            self.add_span(name, cat, lane, t0, self.now() - t0, **args)

    def add_span(self, name: str, cat: str, lane: int, start: float,
                 duration: float, **args) -> None:
        """Record an already-measured interval (used to synthesize worker
        lanes from per-command busy seconds)."""
        span = Span(name=name, cat=cat, start=start,
                    duration=max(duration, 0.0), lane=lane, args=args)
        with self._lock:
            self.spans.append(span)

    def on_exchange(self, record, start: float) -> None:
        """One broadcast's spans from its
        :class:`~repro.perf.CommandRecord`: the exchange on the master
        lane (args: its ``sync`` seconds) and each worker's busy seconds
        on its lane (args: its ``idle`` seconds), all starting at
        ``start`` (a ``time.perf_counter()`` reading)."""
        t0 = start - self._epoch
        op, kind = record.op, record.kind
        spans = [Span(op, kind, t0, record.wall, MASTER_LANE, {"sync": record.sync})]
        spans += [Span(op, kind, t0, busy, w + 1, {"idle": idle})
                  for w, (busy, idle) in enumerate(zip(record.busy, record.idle))
                  if busy > 0.0]
        with self._lock:
            self.spans.extend(spans)

    def instant(self, name: str, cat: str = "", lane: int = MASTER_LANE, **args) -> None:
        """Record a zero-duration marker (e.g. "partition 3 converged")."""
        span = Span(name=name, cat=cat, start=self.now(), duration=0.0,
                    lane=lane, args=args)
        with self._lock:
            self.instants.append(span)

    # -- inspection --------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    def lanes(self) -> list[int]:
        """Sorted lane indices that carry at least one span/instant."""
        with self._lock:
            return sorted({s.lane for s in self.spans}
                          | {s.lane for s in self.instants})

    def by_category(self) -> dict[str, float]:
        """Total span seconds per category (master lane only, so nested
        worker time is not double counted)."""
        out: dict[str, float] = {}
        with self._lock:
            for s in self.spans:
                if s.lane == MASTER_LANE:
                    out[s.cat] = out.get(s.cat, 0.0) + s.duration
        return out
