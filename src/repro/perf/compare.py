"""Predicted-vs-measured and strategy-vs-strategy profile comparisons.

The simulator predicts a per-thread busy/idle/sync decomposition from a
captured trace (:func:`repro.simmachine.simulate_trace`); the profiler
measures the same decomposition on the real worker team
(:class:`repro.perf.RunProfile`).  Both expose ``decomposition()`` with
identical keys, so comparing a prediction against a measurement — the
paper's implicit validation step — is one function call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profile import RunProfile

__all__ = ["ProfileComparison", "compare_decompositions", "compare_strategies"]


def _decomposition(obj) -> dict:
    """Accept a RunProfile, a SimulationResult, or a raw decomposition."""
    if isinstance(obj, dict):
        return obj
    return obj.decomposition()


@dataclass
class ProfileComparison:
    """Two busy/idle/sync decompositions side by side.

    ``a`` and ``b`` are decomposition dicts (see
    ``RunProfile.decomposition`` / ``SimulationResult.decomposition``);
    ``labels`` names them in reports (e.g. ``("measured", "predicted")``
    or ``("old", "new")``).
    """

    a: dict
    b: dict
    labels: tuple[str, str]

    @property
    def efficiency_ratio(self) -> float:
        """``b``'s parallel efficiency over ``a``'s."""
        ea = self.a["efficiency"]
        return self.b["efficiency"] / ea if ea > 0 else float("inf")

    @property
    def speedup(self) -> float:
        """``a``'s total wall time over ``b``'s (>1 means ``b`` faster)."""
        tb = self.b["total_seconds"]
        return self.a["total_seconds"] / tb if tb > 0 else float("inf")

    def summary(self) -> str:
        la, lb = self.labels
        width = max(len(la), len(lb))
        lines = [
            f"{'':>{width}}  {'total':>10} {'busy':>10} {'idle':>10} "
            f"{'sync':>10} {'eff':>7}"
        ]
        for label, d in ((la, self.a), (lb, self.b)):
            busy = float(np.sum(d["busy_seconds"]))
            idle = float(np.sum(d["idle_seconds"]))
            lines.append(
                f"{label:>{width}}  {d['total_seconds']*1e3:>8.1f}ms "
                f"{busy*1e3:>8.1f}ms {idle*1e3:>8.1f}ms "
                f"{d['sync_seconds']*1e3:>8.1f}ms {d['efficiency']:>7.1%}"
            )
        lines.append(
            f"{lb} vs {la}: {self.speedup:.2f}x wall, "
            f"{self.efficiency_ratio:.2f}x efficiency"
        )
        return "\n".join(lines)


def compare_decompositions(
    a, b, labels: tuple[str, str] = ("a", "b")
) -> ProfileComparison:
    """Compare any two decomposition carriers (RunProfile or
    SimulationResult or dict) — e.g. measured vs simulator-predicted."""
    return ProfileComparison(_decomposition(a), _decomposition(b), labels)


def compare_strategies(old: RunProfile, new: RunProfile) -> ProfileComparison:
    """oldPAR vs newPAR measured profiles (the paper's headline table)."""
    return compare_decompositions(old, new, labels=("old", "new"))
