"""A small thread-safe metrics registry: counters, gauges, histograms.

The worker team and the optimizers publish machine-readable run
statistics here — broadcasts by region kind, the barrier-wait
distribution, per-partition iterations-to-convergence — so a run can be
summarized or shipped to any metrics sink as one JSON snapshot.

Instruments are created on first use (``registry.counter("x").inc()``)
and every mutation is lock-protected, because the service's executor
threads share one registry and publish concurrently.  :class:`NullMetrics`
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
    "DEFAULT_BUCKETS",
    "ITERATION_BUCKETS",
]

#: Default histogram bucket upper bounds, in seconds: sub-microsecond IPC
#: jitter up to multi-second regions (log-spaced, base ~3.16).
DEFAULT_BUCKETS = tuple(10.0 ** (e / 2.0) for e in range(-13, 3))

#: Bucket bounds for optimizer iteration counts (1 .. max_iter-ish).
ITERATION_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 100.0)


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
        idx = bisect_right(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

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

    def _get(self, name: str, cls, *args):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, *args)
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
