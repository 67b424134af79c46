"""Idle-keepers: one spinning process per CPU at ``SCHED_IDLE`` while a
workload runs.

On the 2-vCPU VM this benchmark was built on, a vCPU with nothing to run
halts, and waking it again costs far more than a context switch.  Every
barrier of the process team and every hand-off between the service's
threads paid that cost: on 12-taxon inputs with idle vCPUs, a
``modelopt_par`` unit took ~0.8 s and a ``serve_mixed`` session ~0.11 s,
both swinging by up to ~1.8x in phases of 10-60 s; with the idle-keepers
they took ~0.32 s and ~0.055 s and repeated within a few percent.  A
``SCHED_IDLE`` process runs only when its CPU would otherwise be idle and
yields at once to any normal task that wakes, so the program keeps the
CPUs it asks for; the CPUs just never halt, as under the kernel's
``idle=poll``.

Run as a script, this file is one idle-keeper: it spins until its parent
goes away.
"""
from __future__ import annotations

import os
import subprocess
import sys

__all__ = ["IdleKeepers"]


class IdleKeepers:
    """Context manager: start one idle-keeper per CPU, stop and reap them
    on exit."""

    def __init__(self) -> None:
        self.count = len(os.sched_getaffinity(0))

    def __enter__(self) -> "IdleKeepers":
        self._procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__)])
                       for _ in range(self.count)]
        return self

    @property
    def pids(self) -> set[int]:
        return {proc.pid for proc in self._procs}

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.wait()


def _spin() -> None:
    parent = os.getppid()
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return  # never spin at normal priority
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    _spin()
