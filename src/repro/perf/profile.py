"""Measured run profiles: the real-machine analogue of a simulator replay.

A :class:`RunProfile` holds one :class:`CommandRecord` per master broadcast
(= one parallel region of :mod:`repro.core.trace`'s vocabulary): the
master-observed wall time plus each worker's own ``execute()`` seconds.
From those two measurements the paper's busy/idle decomposition is derived
per region:

``busy[w]``
    worker ``w``'s execute time — productive kernel work;
``span``
    ``max(busy)`` — the region lasts until its slowest worker finishes;
``idle[w]``
    ``span - busy[w]`` — barrier-wait caused by load imbalance, the
    quantity Figures 3–6 of the paper decompose;
``sync``
    ``wall - span`` — dispatch + barrier/IPC overhead, charged to the
    region as a whole (it is the same for every worker).

Per worker, ``busy + idle + sync == wall`` exactly, so profile totals use
the same field names and semantics as
:class:`repro.simmachine.simulator.SimulationResult` — predicted and
measured decompositions are directly comparable (see
:mod:`repro.perf.compare`).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..core.trace import REGION_KINDS

__all__ = ["CommandRecord", "RunProfile", "profile_summary", "summarize_profiles"]

#: Format version of :func:`summarize_profiles` documents.
SUMMARY_VERSION = 1


class CommandRecord(NamedTuple):
    """Timing of one broadcast command (one parallel region).

    An immutable tuple: the engine builds one per observed exchange and
    hands the same record to every attached observer.

    Attributes
    ----------
    op:
        The worker command name (``"deriv_edges"``, ``"lnl"``, ...).
    kind:
        Its region kind from the shared trace vocabulary
        (:data:`repro.core.trace.COMMAND_KINDS`).
    wall:
        Master-observed wall seconds, dispatch to reduction.
    busy:
        Per-worker ``execute()`` seconds, length ``n_workers``.
    n_commands:
        Worker commands this broadcast executed — 1 for a plain command,
        ``len(steps)`` for a fused ``("prog", steps)`` program (one
        region/barrier amortized over several commands).
    """

    op: str
    kind: str
    wall: float
    busy: tuple[float, ...]
    n_commands: int = 1

    @property
    def span(self) -> float:
        """Seconds until the slowest worker finished its share."""
        return max(self.busy) if self.busy else 0.0

    @property
    def idle(self) -> tuple[float, ...]:
        """Per-worker barrier-wait (imbalance) seconds: ``span - busy``."""
        span = self.span
        return tuple(span - b for b in self.busy)

    @property
    def sync(self) -> float:
        """Dispatch + barrier/IPC seconds: ``wall - span`` (floored at 0)."""
        return max(self.wall - self.span, 0.0)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "kind": self.kind,
            "wall": self.wall,
            "busy": list(self.busy),
            "n_commands": self.n_commands,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CommandRecord":
        return cls(
            op=d["op"], kind=d["kind"], wall=float(d["wall"]),
            busy=tuple(float(b) for b in d["busy"]),
            n_commands=int(d.get("n_commands", 1)),
        )


@dataclass
class RunProfile:
    """Per-region timings of one real parallel run plus derived summaries.

    Exposes the same vocabulary as the simulator's
    :class:`~repro.simmachine.simulator.SimulationResult`:
    ``total_seconds``, ``busy_seconds`` (per worker), ``idle_seconds``
    (per worker), ``sync_seconds`` and ``efficiency``.
    """

    backend: str
    n_workers: int
    distribution: str = "cyclic"
    records: list[CommandRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    # -- totals (simulator vocabulary) ------------------------------------

    @property
    def n_regions(self) -> int:
        return len(self.records)

    @property
    def n_commands(self) -> int:
        """Worker commands executed (>= ``n_regions``: fused programs pack
        several commands into one region/barrier)."""
        return sum(r.n_commands for r in self.records)

    @property
    def commands_per_barrier(self) -> float:
        """Mean worker commands amortized per broadcast barrier."""
        return self.n_commands / self.n_regions if self.records else 0.0

    @property
    def total_seconds(self) -> float:
        """Sum of per-region wall times (time spent inside broadcasts)."""
        return float(sum(r.wall for r in self.records))

    @property
    def busy_seconds(self) -> np.ndarray:
        """(W,) productive execute seconds per worker."""
        out = np.zeros(self.n_workers)
        for r in self.records:
            out += np.asarray(r.busy)
        return out

    @property
    def idle_seconds(self) -> np.ndarray:
        """(W,) barrier-wait seconds per worker (waiting for the slowest)."""
        out = np.zeros(self.n_workers)
        for r in self.records:
            out += np.asarray(r.idle)
        return out

    @property
    def sync_seconds(self) -> float:
        """Total dispatch + barrier/IPC seconds across regions."""
        return float(sum(r.sync for r in self.records))

    @property
    def efficiency(self) -> float:
        """Mean busy fraction across workers (1.0 = perfect balance and
        zero synchronization cost) — the simulator's definition."""
        denom = self.total_seconds * self.n_workers
        return float(self.busy_seconds.sum() / denom) if denom > 0 else 0.0

    @property
    def load_balance(self) -> float:
        """Mean worker busy time over max worker busy time (1.0 = every
        worker did identical work; ignores synchronization cost)."""
        busy = self.busy_seconds
        top = float(busy.max()) if busy.size else 0.0
        return float(busy.mean() / top) if top > 0 else 0.0

    @property
    def imbalance(self) -> float:
        """Max over mean per-worker busy seconds (1.0 = perfect balance) —
        the reciprocal view of :attr:`load_balance`, matching
        :attr:`repro.simmachine.simulator.SimulationResult.imbalance` so a
        measured profile and a simulated prediction report the same load
        metric."""
        from ..parallel.distribution import imbalance_ratio

        return imbalance_ratio(self.busy_seconds)

    def kind_seconds(self) -> dict[str, float]:
        """Wall seconds per region kind (newview/sumtable/.../control)."""
        out = {k: 0.0 for k in REGION_KINDS}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0.0) + r.wall
        return {k: v for k, v in out.items() if v > 0.0}

    def decomposition(self) -> dict:
        """The shared predicted-vs-measured comparison shape (also
        implemented by ``SimulationResult.decomposition``)."""
        return {
            "n_workers": self.n_workers,
            "total_seconds": self.total_seconds,
            "busy_seconds": [float(b) for b in self.busy_seconds],
            "idle_seconds": [float(i) for i in self.idle_seconds],
            "sync_seconds": self.sync_seconds,
            "efficiency": self.efficiency,
        }

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        busy = self.busy_seconds
        idle = self.idle_seconds
        lines = [
            f"{self.backend} x{self.n_workers} ({self.distribution}): "
            f"{self.n_regions} regions, wall {self.total_seconds*1e3:.1f} ms, "
            f"sync {self.sync_seconds*1e3:.1f} ms, "
            f"efficiency {self.efficiency:.1%}, "
            f"load balance {self.load_balance:.1%}",
            f"  barriers: {self.n_regions}  commands: {self.n_commands}  "
            f"({self.commands_per_barrier:.2f} commands/barrier)",
        ]
        for w in range(self.n_workers):
            lines.append(
                f"  worker {w}: busy {busy[w]*1e3:8.1f} ms   "
                f"idle {idle[w]*1e3:8.1f} ms"
            )
        kinds = self.kind_seconds()
        if kinds:
            lines.append(
                "  by kind: "
                + "  ".join(f"{k}={v*1e3:.1f}ms" for k, v in sorted(kinds.items()))
            )
        return "\n".join(lines)

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "distribution": self.distribution,
            "meta": self.meta,
            "summary": self.decomposition(),
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, d: dict) -> "RunProfile":
        return cls(
            backend=d["backend"],
            n_workers=int(d["n_workers"]),
            distribution=d.get("distribution", "cyclic"),
            records=[CommandRecord.from_dict(r) for r in d["records"]],
            meta=d.get("meta", {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))


def profile_summary(profile: RunProfile) -> dict:
    """One RunProfile as compact, committable summary stats."""
    kind_counts: dict[str, int] = {}
    for rec in profile.records:
        kind_counts[rec.kind] = kind_counts.get(rec.kind, 0) + 1
    return {
        "backend": profile.backend,
        "n_workers": profile.n_workers,
        "distribution": profile.distribution,
        "n_regions": profile.n_regions,
        "kind_counts": dict(sorted(kind_counts.items())),
        "kind_seconds": {
            k: round(v, 6) for k, v in sorted(profile.kind_seconds().items())
        },
        "total_seconds": round(profile.total_seconds, 6),
        "sync_seconds": round(profile.sync_seconds, 6),
        "busy_seconds": [round(float(b), 6) for b in profile.busy_seconds],
        "idle_seconds": [round(float(i), 6) for i in profile.idle_seconds],
        "efficiency": round(profile.efficiency, 6),
        "load_balance": round(profile.load_balance, 6),
        "meta": dict(profile.meta),
    }


def summarize_profiles(profiles: dict) -> dict:
    """Strategy-name -> RunProfile mapping as one summary document (a few
    dozen numbers: what benchmarks commit instead of per-record dumps)."""
    summary = {
        "version": SUMMARY_VERSION,
        "strategies": {name: profile_summary(p) for name, p in profiles.items()},
    }
    if "old" in profiles and "new" in profiles:
        old, new = profiles["old"], profiles["new"]
        summary["derived"] = {
            "command_ratio": (
                old.n_regions / new.n_regions if new.n_regions else float("inf")
            ),
            "wall_ratio": (
                new.total_seconds / old.total_seconds
                if old.total_seconds > 0 else float("inf")
            ),
            "efficiency_gain": new.efficiency - old.efficiency,
        }
    return summary
