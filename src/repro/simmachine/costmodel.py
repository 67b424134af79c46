"""Per-pattern cost model for the kernel operations (roofline style).

Each kernel op processes its partition's patterns independently; the cost
of one pattern is ``max(flop_time, dram_time)`` — the PLK is memory-bound
on wide data (the paper: "Because RAxML is memory-bound, the memory
bandwidth available to each thread heavily influences execution times")
and compute-bound on narrow, cache-resident partitions.

Flop counts per pattern (s states, K Gamma categories):

=============  =====================================================
``newview``    two propagations (2 x 2Ks^2 MAC flops) + product (Ks)
``sumtable``   two eigenbasis matmuls (2 x 2Ks^2) + product (Ks)
``derivative`` three weighted reductions over (K, s): ~6Ks + exps 4Ks
``evaluate``   one propagation (2Ks^2) + frequency dot (2Ks)
=============  =====================================================

The s^2 scaling is what makes protein partitions (s=20) 25x more
expensive per column than DNA (s=4) — the paper's explanation for the
smaller load-balance effect on the two viral protein datasets.

DRAM traffic per pattern: the CLV rows read/written (8-byte doubles),
discounted by ``CACHE_REUSE`` = 0.5 because consecutive operations on the
same partition hit in cache roughly half the time at the region sizes the
schedules produce (partitions of ~1,000 patterns fit in L2).
"""
from __future__ import annotations

from functools import lru_cache

from .machine import MachineSpec

__all__ = [
    "flops_per_pattern",
    "bytes_per_pattern",
    "seconds_per_pattern",
    "relative_pattern_cost",
]

CACHE_REUSE = 0.5

#: dense row index for vectorized per-(partition, op) cost tables
_OP_INDEX = {"newview": 0, "sumtable": 1, "derivative": 2, "evaluate": 3}


def flops_per_pattern(op: str, states: int, categories: int) -> float:
    """Double-precision flops for one pattern of one kernel op."""
    s, k = states, categories
    if op == "newview":
        return 4.0 * k * s * s + k * s
    if op == "sumtable":
        return 4.0 * k * s * s + k * s
    if op == "derivative":
        return 10.0 * k * s
    if op == "evaluate":
        return 2.0 * k * s * s + 2.0 * k * s
    raise ValueError(f"unknown kernel op {op!r}")


def bytes_per_pattern(op: str, states: int, categories: int) -> float:
    """Effective DRAM bytes moved for one pattern of one kernel op."""
    s, k = states, categories
    doubles = {
        "newview": 3.0 * k * s,      # read two CLVs, write one
        "sumtable": 3.0 * k * s,     # read two CLVs, write the table
        "derivative": 1.0 * k * s,   # stream the sumtable
        "evaluate": 2.0 * k * s,     # read two CLVs
    }
    try:
        return doubles[op] * 8.0 * CACHE_REUSE
    except KeyError:
        raise ValueError(f"unknown kernel op {op!r}") from None


def relative_pattern_cost(states: int, categories: int = 4) -> float:
    """Machine-independent relative cost of one pattern (dimensionless).

    This is the analytic per-pattern weight (``K * s^2``, the dominant
    term of every kernel op above) — the same value
    :func:`repro.parallel.distribution.pattern_weight` returns, re-exported
    here so simulator-side code does not need to import the parallel
    package.

    >>> relative_pattern_cost(4)
    64.0
    >>> relative_pattern_cost(20) / relative_pattern_cost(4)
    25.0
    """
    from ..parallel.distribution import pattern_weight

    return pattern_weight(states, categories)


@lru_cache(maxsize=4096)
def seconds_per_pattern(
    op: str, states: int, categories: int, machine: MachineSpec, n_threads: int
) -> float:
    """Roofline time for one pattern: max of compute and memory time,
    given ``n_threads`` concurrently active threads contending for DRAM."""
    flop_time = flops_per_pattern(op, states, categories) / machine.flops_per_second()
    mem_time = bytes_per_pattern(op, states, categories) / machine.bandwidth_per_thread(
        n_threads
    )
    return max(flop_time, mem_time)
