"""Runtime profiling of the real worker team: per-region wall and
per-worker busy times, the derived barrier-wait (load-imbalance)
decomposition, and comparison against :mod:`repro.simmachine`
predictions.  Opt-in: pass a :class:`Profiler` to
:class:`~repro.parallel.ParallelPLK` and it keeps the one record the
engine builds per broadcast; without one, nothing is kept."""
from .compare import ProfileComparison, compare_decompositions, compare_strategies
from .profile import CommandRecord, RunProfile, profile_summary, summarize_profiles
from .profiler import Profiler

__all__ = [
    "CommandRecord",
    "ProfileComparison",
    "Profiler",
    "RunProfile",
    "compare_decompositions",
    "compare_strategies",
    "profile_summary",
    "summarize_profiles",
]
