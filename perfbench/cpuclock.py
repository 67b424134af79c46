"""Host-normalised CPU seconds of the benchmark's process tree.

The end-to-end times are neither wall seconds nor raw CPU seconds.  On
the shared 2-vCPU VM the benchmark was built on, two things the program
does not control move both:

* steal time: the hypervisor takes a vCPU away for tens of milliseconds
  (a fixed loop read 34-112 ms of wall time but 34-45 ms of CPU time).
  The kernel's task clocks exclude it, so :class:`TreeClock` counts CPU
  seconds.
* speed phases: each vCPU runs the same code up to ~1.9x slower for
  seconds to minutes at a time, independently of the other vCPU and
  without any steal time being reported (two pinned copies of one loop
  swung between 693 and 1300 iterations per CPU-second, correlation
  0.26).  The same bootstrap replicate took 0.96-2.11 CPU seconds.

:class:`SpeedGauge` tracks the second: every ``interval`` seconds a
``SIGALRM`` runs a short fixed loop, which shares no code with the
program, on the benchmark's main thread, and adds up its CPU seconds.  A
piece of work measured as ``cpu_s`` CPU seconds while the gauge's loop
took ``ref_s`` on average costs ``cpu_s * REF_NOMINAL_S / ref_s``
normalised seconds: its CPU time on a vCPU running at the nominal speed.
Repeating one fixed replicate for 170 s, the per-unit spread (IQR /
median) fell from 32% raw to 6% normalised.

The tree clock sums three parts: this process (every thread), its live
descendants (the team's worker processes, read from
``/proc/<pid>/task/<tid>/schedstat``) and its reaped children
(``RUSAGE_CHILDREN``), so a worker's CPU time still counts after its team
is closed.  Processes listed in ``exclude`` (the idle-keepers) and their
descendants are left out.
"""
from __future__ import annotations

import os
import resource
import signal
import time

import numpy as np

__all__ = ["REF_NOMINAL_S", "SpeedGauge", "TreeClock", "steal_s"]

#: CPU seconds of one gauge loop on a vCPU of the build host in a fast
#: phase; normalised seconds are CPU seconds at that speed.
REF_NOMINAL_S = 0.00075

# The gauge loop: Felsenstein-style pruning up a chain of 8 conditional
# likelihood arrays (128 patterns x 4 rates x 4 states) with 4x4
# transition matrices, the shape of work the program does, written here
# in plain numpy.  Of four loops tried against one fixed replicate (dot
# products, dict churn, elementwise logs, this one), it tracked the
# replicate best: normalised medians of 15-second chunks within 4.8%
# where raw CPU seconds spread by 55%.
_RNG = np.random.default_rng(0)
_P = _RNG.random((4, 4, 4))
_CLV = _RNG.random((8, 128, 4, 4))


def _reference_loop() -> None:
    out = _CLV[0]
    for i in range(1, len(_CLV)):
        out = np.einsum("cij,pcj->pci", _P, out) * np.einsum("cij,pcj->pci", _P, _CLV[i])
        out = out / out.max(axis=(1, 2), keepdims=True)


class SpeedGauge:
    """Context manager: run the gauge loop on every ``SIGALRM`` while
    active.  ``read()`` returns (loops run, their CPU seconds) so far."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self._state = (0, 0.0)
        #: While set, ticks are skipped (a reading is being taken).
        self.hold = False

    def _tick(self, signum=None, frame=None) -> None:
        if self.hold:
            return
        t0 = time.thread_time()
        _reference_loop()
        n, cpu = self._state
        self._state = (n + 1, cpu + time.thread_time() - t0)

    def read(self) -> tuple[int, float]:
        return self._state

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _children(pid: int) -> list[int]:
    """Children of every thread of ``pid`` (a child belongs to the thread
    that forked it)."""
    pids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return pids


def _task_ns(pid: int) -> int:
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total


class TreeClock:
    """CPU seconds of this process and its descendants outside
    ``exclude``; ``start()``/``stop()`` time a piece of work in normalised
    seconds against ``gauge``."""

    def __init__(self, gauge: SpeedGauge, exclude: set[int] | frozenset[int] = frozenset()):
        self.gauge = gauge
        self.exclude = set(exclude)
        self.pid = os.getpid()

    def now(self) -> float:
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = time.process_time() + reaped.ru_utime + reaped.ru_stime
        stack = [self.pid]
        live_ns = 0
        while stack:
            for pid in _children(stack.pop()):
                if pid not in self.exclude:
                    live_ns += _task_ns(pid)
                    stack.append(pid)
        return total + live_ns * 1e-9

    def _read(self) -> tuple[float, int, float]:
        # No gauge loop may run between the two readings.
        self.gauge.hold = True
        try:
            return (self.now(), *self.gauge.read())
        finally:
            self.gauge.hold = False

    def start(self) -> tuple[float, int, float]:
        return self._read()

    def stop(self, mark) -> tuple[float, float, float]:
        """(normalised s, CPU s, mean gauge loop s) since ``mark =
        start()``; the gauge's own loops are not counted as work."""
        c1, n1, g1 = self._read()
        c0, n0, g0 = mark
        cpu = c1 - c0 - (g1 - g0)
        if n1 > n0:
            ref = (g1 - g0) / (n1 - n0)
        else:  # too short for a tick: one loop right after it
            g = self.gauge.read()[1]
            self.gauge._tick()
            ref = self.gauge.read()[1] - g
        return cpu * REF_NOMINAL_S / ref, cpu, ref


def steal_s() -> float:
    """Seconds the hypervisor has taken from all CPUs since boot (0 where
    the kernel does not report steal time)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0
