"""Runtime profiling of the real worker team: per-region wall and
per-worker busy times, the derived barrier-wait (load-imbalance)
decomposition, and comparison against :mod:`repro.simmachine`
predictions.  Opt-in: pass a :class:`Profiler` to
:class:`~repro.parallel.ParallelPLK`; the default :class:`NullProfiler`
leaves the broadcast hot path untouched."""
from .compare import ProfileComparison, compare_decompositions, compare_strategies
from .profile import CommandRecord, RunProfile, profile_summary, summarize_profiles
from .profiler import NullProfiler, Profiler

__all__ = [
    "CommandRecord",
    "NullProfiler",
    "ProfileComparison",
    "Profiler",
    "RunProfile",
    "compare_decompositions",
    "compare_strategies",
    "profile_summary",
    "summarize_profiles",
]
