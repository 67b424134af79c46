"""A small thread-safe metrics registry: counters, gauges, histograms.

The worker team and the optimizers publish machine-readable run
statistics here — broadcasts by region kind, the barrier-wait
distribution, per-partition iterations-to-convergence — so a run can be
summarized or shipped to any metrics sink as one JSON snapshot.

Instruments are created on first use (``registry.counter("x").inc()``)
and every mutation is lock-protected, because the service's executor
threads share one registry and publish concurrently.  The instruments
of one registry share its lock, so :class:`ExchangeMetrics` publishes a
whole exchange under one acquisition.  :class:`NullMetrics`
is the zero-overhead default: hot paths guard with
``if metrics.enabled:`` and never reach a method call.
"""
from __future__ import annotations

import json
import threading
from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "ExchangeMetrics",
    "DEFAULT_BUCKETS",
    "ITERATION_BUCKETS",
]

#: Default histogram bucket upper bounds, in seconds: sub-microsecond IPC
#: jitter up to multi-second regions (log-spaced, base ~3.16).
DEFAULT_BUCKETS = tuple(10.0 ** (e / 2.0) for e in range(-13, 3))

#: Bucket bounds for optimizer iteration counts (1 .. max_iter-ish).
ITERATION_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 100.0)

#: Bucket bounds for the commands-per-barrier histogram (a plain command
#: is 1; the fused optimizer programs land at 2-3; headroom above).
COMMANDS_PER_BARRIER_BUCKETS = (1.5, 2.5, 3.5, 4.5, 6.5, 8.5, 16.5)


class Counter:
    """A monotonically increasing value."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Cumulative-bucket histogram plus exact count/sum/min/max.

    ``bounds`` are the bucket upper edges; one implicit +inf bucket always
    exists, so ``observe`` never loses a sample.
    """

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._add(value)

    def _add(self, value: float) -> None:
        # The caller holds the lock.  Comparisons, not min()/max(): this
        # runs once per worker and exchange on a metered team.
        self._counts[bisect_right(self.bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            nonempty = {
                ("+inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                for i, c in enumerate(self._counts)
                if c
            }
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "mean": self._sum / self._count if self._count else 0.0,
                "buckets": nonempty,
            }


class _NullInstrument:
    """Accepts every instrument method and discards it."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Discards everything; the zero-overhead default (hot paths guard
    with ``if metrics.enabled:``)."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind raises (catching the
    silent-shadowing bug early).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: imbalance gauge name -> cumulative busy seconds per rank, summed
        #: over every team publishing here (see ExchangeMetrics).
        self._rank_busy: dict[str, list[float]] = {}

    def _get(self, name: str, cls, *args):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, *args)
                inst._lock = self._lock  # shared: see ExchangeMetrics
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds)

    # -- snapshots ---------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict:
        """All instruments as one JSON-serializable dict."""
        with self._lock:
            instruments = list(self._instruments.items())
        return {name: inst.snapshot() for name, inst in sorted(instruments)}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


def _imbalance(loads: list[float]) -> float:
    """Max over mean load, 1.0 when all idle (as
    :func:`repro.parallel.distribution.imbalance_ratio`, on floats)."""
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean > 0.0 else 1.0


class ExchangeMetrics:
    """Publishes a worker team's exchange records to a registry.

    Per broadcast: ``broadcasts.total`` and ``broadcasts.<kind>``,
    ``commands.total`` and the ``commands_per_barrier`` histogram, the
    ``comms.pipe_bytes`` gauge, the ``region_wall_seconds`` /
    ``sync_seconds`` histograms, one ``barrier_wait_seconds`` sample per
    worker, and the ``imbalance`` / ``imbalance.<kind>`` gauges over
    cumulative worker busy time (1.0 = perfect balance).

    Several teams may publish to one registry (the service's warm
    teams do), so the gauges are registry-wide: each exchange adds its
    team's pipe-byte delta (``pipe_bytes()`` is the team's cumulative
    count), and imbalance is taken over the per-rank busy totals of every
    team, a narrower team's missing ranks counting as 0.

    A serve team publishes every exchange, so this path is kept cheap:
    every instrument is looked up once (the per-kind ones on the first
    record of that kind), cumulative busy times are plain floats, and one
    exchange is published under ONE acquisition of the registry's lock,
    which its instruments share.
    """

    def __init__(self, registry: MetricsRegistry, n_workers: int, pipe_bytes):
        self._registry = registry
        self._lock = registry._lock
        self._pipe_bytes = pipe_bytes
        self._broadcasts = registry.counter("broadcasts.total")
        self._commands = registry.counter("commands.total")
        self._per_barrier = registry.histogram(
            "commands_per_barrier", bounds=COMMANDS_PER_BARRIER_BUCKETS)
        self._pipe = registry.gauge("comms.pipe_bytes")
        self._wall = registry.histogram("region_wall_seconds")
        self._sync = registry.histogram("sync_seconds")
        self._wait = registry.histogram("barrier_wait_seconds")
        self._imbalance = registry.gauge("imbalance")
        self._n_workers = n_workers
        self._sent = 0  # team pipe bytes already added to the gauge
        self._busy = self._rank_busy("imbalance")
        #: kind -> (broadcasts counter, imbalance gauge, cumulative busy).
        self._kinds: dict[str, tuple[Counter, Gauge, list[float]]] = {}

    def _rank_busy(self, gauge: str) -> list[float]:
        """The registry's shared per-rank busy totals behind ``gauge``,
        at least this team's width (ranks only ever get added)."""
        with self._lock:
            busy = self._registry._rank_busy.setdefault(gauge, [])
            busy.extend([0.0] * (self._n_workers - len(busy)))
        return busy

    def on_exchange(self, record, start: float) -> None:
        """Publish one :class:`~repro.perf.CommandRecord`."""
        per_kind = self._kinds.get(record.kind)
        if per_kind is None:
            per_kind = self._kinds[record.kind] = (
                self._registry.counter(f"broadcasts.{record.kind}"),
                self._registry.gauge(f"imbalance.{record.kind}"),
                self._rank_busy(f"imbalance.{record.kind}"),
            )
        kind_count, kind_gauge, kind_busy = per_kind
        busy, wall, total, wait = record.busy, record.wall, self._busy, self._wait
        span = max(busy)
        pipe_bytes = self._pipe_bytes()
        sent = pipe_bytes - self._sent
        self._sent = pipe_bytes
        with self._lock:
            self._broadcasts._value += 1.0
            kind_count._value += 1.0
            self._commands._value += record.n_commands
            self._per_barrier._add(float(record.n_commands))
            self._pipe._value += sent
            self._wall._add(wall)
            self._sync._add(max(wall - span, 0.0))
            for w, b in enumerate(busy):
                wait._add(span - b)
                total[w] += b
                kind_busy[w] += b
            self._imbalance._value = _imbalance(total)
            kind_gauge._value = _imbalance(kind_busy)
