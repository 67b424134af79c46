"""Observability for analysis runs: span tracing, metrics, convergence
telemetry and timeline export.

Four composable pieces, each off by default:

* :class:`Tracer` — timestamped spans for every optimizer round,
  lock-step iteration, broadcast and SPR move, on a master lane plus one
  lane per worker;
* :class:`MetricsRegistry` — thread-safe counters, gauges and histograms
  (broadcasts by kind, barrier-wait distribution), snapshotable to JSON;
* :class:`ConvergenceTelemetry` — the paper's per-partition convergence
  boolean vector recorded per iteration;
* exporters — Chrome trace-event JSON (loadable in Perfetto) and an ASCII
  terminal timeline of a tracer: a live run's, or a saved RunProfile's
  records replayed into one (:func:`replay_profile`).

The null stand-ins (:class:`NullTracer`, :class:`NullMetrics`,
:class:`NullTelemetry`) let instrumented code skip its guard where it is
not hot.  On a worker team there is one exchange path
(:meth:`repro.parallel.ParallelPLK._broadcast`): every broadcast is
clocked once, and each attached observer — the tracer, the metrics
(:class:`~repro.obs.metrics.ExchangeMetrics`), a
:class:`~repro.perf.Profiler` and the live plane — receives the same one
:class:`~repro.perf.CommandRecord`.

A fifth, RUNTIME piece lives in :mod:`repro.obs.live` (``live=True`` on
:class:`~repro.parallel.ParallelPLK`): per-worker shared-memory heartbeat
rows, a :class:`~repro.obs.live.HealthMonitor` for stall detection and
live imbalance, a :class:`~repro.obs.live.FlightRecorder` ring buffer
(one ``exchange`` event per broadcast) that dumps a JSONL post-mortem on
worker death, Prometheus/JSONL streaming exporters and the ``repro top``
dashboard — see ``docs/OBSERVABILITY.md`` for the two-tier overview.

See the README's "Observability" section for a walkthrough and
``python -m repro timeline --help`` for the CLI entry point.
"""
from .convergence import ConvergenceLog, ConvergenceTelemetry, NullTelemetry
from .export import (
    ascii_timeline,
    profile_run_config,
    replay_profile,
    tracer_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from .live import (
    FlightRecorder,
    HealthMonitor,
    HealthReport,
    LiveTelemetry,
    NullHealthMonitor,
    WorkerSample,
    render_dashboard,
    sample_plane,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, NullMetrics
from .prometheus import prometheus_text
from .tracer import MASTER_LANE, NullTracer, Span, Tracer

__all__ = [
    "MASTER_LANE",
    "Span",
    "Tracer",
    "NullTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "ConvergenceLog",
    "ConvergenceTelemetry",
    "NullTelemetry",
    "LiveTelemetry",
    "HealthMonitor",
    "NullHealthMonitor",
    "HealthReport",
    "FlightRecorder",
    "WorkerSample",
    "sample_plane",
    "render_dashboard",
    "prometheus_text",
    "tracer_to_chrome",
    "replay_profile",
    "profile_run_config",
    "write_chrome_trace",
    "validate_chrome_trace",
    "ascii_timeline",
]
