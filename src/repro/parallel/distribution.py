"""Pattern-to-thread distribution policies (paper Fig. 1 and Section IV).

RAxML assigns the ``m'`` global alignment patterns to T worker threads
*cyclically* (pattern i goes to thread ``i mod T``), "mainly to allow for
better load-balance in phylogenomic datasets that can contain DNA as well
as AA data": interleaving guarantees every thread receives an equal mix of
cheap DNA and 25x-more-expensive protein columns, and every partition's
patterns are spread almost evenly over all threads regardless of where the
partition sits in the alignment.

The alternative *block* policy (thread t owns one contiguous chunk of the
global pattern vector) equalizes raw pattern counts but concentrates each
partition — and each datatype — on few threads, which is catastrophic for
per-partition operations; it exists here as the ablation baseline.

Both policies are *static*: a thread's share of a partition depends only
on that partition's geometry, so each worker slices its patterns one
partition at a time and no global plan exists.  This module also owns
the currency the policies are judged in: :func:`pattern_weight` (the
relative cost of one pattern, ``categories * states**2``) and
:func:`imbalance_ratio` (max over mean thread load), plus the
:class:`PartitionLayout` the service prices jobs over.

Conventions shared by every helper here (units are **counts**, not
seconds):

* ``offset`` — the partition's first global pattern index (>= 0);
* ``length`` — the partition's pattern count ``m'_p`` (>= 0; zero-length
  partitions are valid and yield empty slices / zero counts);
* ``total`` — the global distinct-pattern count ``m'`` (>= 0);
* ``n_threads`` — the team size T (>= 1; T larger than ``total`` is valid
  and simply leaves trailing threads with no patterns).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DISTRIBUTIONS",
    "PartitionLayout",
    "cyclic_partition_counts",
    "block_partition_counts",
    "partition_thread_counts",
    "cyclic_indices",
    "block_indices",
    "imbalance_ratio",
    "pattern_weight",
]

#: Every pattern-distribution policy: RAxML's cyclic default and the
#: block ablation baseline.
DISTRIBUTIONS = ("cyclic", "block")


def _check_geometry(offset: int, length: int, n_threads: int, total: int | None = None) -> None:
    """Shared argument validation: counts must be non-negative, T >= 1."""
    if n_threads < 1:
        raise ValueError("need at least one thread")
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be non-negative")
    if total is not None:
        if total < 0:
            raise ValueError("total pattern count must be non-negative")
        if offset + length > total:
            raise ValueError(
                f"partition [{offset}, {offset + length}) exceeds total {total}"
            )


def cyclic_partition_counts(offset: int, length: int, n_threads: int) -> np.ndarray:
    """Per-thread pattern **counts** for a partition spanning global
    indices ``[offset, offset + length)`` under cyclic distribution
    (pattern at global index g goes to thread ``g % n_threads``).

    Counts differ by at most one across threads; a zero-``length``
    partition yields all zeros.

    >>> cyclic_partition_counts(0, 10, 4).tolist()
    [3, 3, 2, 2]
    >>> cyclic_partition_counts(3, 10, 4).tolist()   # offset rotates the remainder
    [3, 2, 2, 3]
    >>> cyclic_partition_counts(0, 0, 4).tolist()    # empty partition
    [0, 0, 0, 0]
    >>> int(cyclic_partition_counts(0, 3, 16).sum())  # m'_p < T: 13 threads idle
    3
    """
    _check_geometry(offset, length, n_threads)
    t = np.arange(n_threads)
    # #{i in [offset, offset+length) : i % T == t}
    first = (t - offset) % n_threads
    return np.maximum((length - first + n_threads - 1) // n_threads, 0)


def block_partition_counts(
    offset: int, length: int, total: int, n_threads: int
) -> np.ndarray:
    """Per-thread pattern **counts** under block distribution: thread t
    owns the global range ``[t * ceil(total/T), (t+1) * ceil(total/T))``.

    A zero-``length`` partition (or a zero-``total`` alignment) yields all
    zeros; ``n_threads > total`` leaves trailing threads empty.

    >>> block_partition_counts(0, 10, 100, 8).tolist()   # one 13-wide chunk
    [10, 0, 0, 0, 0, 0, 0, 0]
    >>> block_partition_counts(40, 60, 100, 8).tolist()
    [0, 0, 0, 12, 13, 13, 13, 9]
    >>> block_partition_counts(0, 0, 0, 4).tolist()      # empty alignment
    [0, 0, 0, 0]
    >>> block_partition_counts(0, 2, 2, 8).tolist()      # T > total
    [1, 1, 0, 0, 0, 0, 0, 0]
    """
    _check_geometry(offset, length, n_threads, total)
    if total == 0:
        return np.zeros(n_threads, dtype=np.int64)
    chunk = -(-total // n_threads)
    t = np.arange(n_threads)
    lo = np.minimum(t * chunk, total)
    hi = np.minimum(lo + chunk, total)
    return np.maximum(np.minimum(hi, offset + length) - np.maximum(lo, offset), 0)


def partition_thread_counts(
    policy: str, offset: int, length: int, total: int, n_threads: int
) -> np.ndarray:
    """Per-thread pattern **counts** of one partition under a policy name.

    >>> int(partition_thread_counts("cyclic", 0, 10, 100, 4).sum())
    10
    >>> int(partition_thread_counts("block", 0, 10, 100, 4).sum())
    10
    """
    if policy == "cyclic":
        return cyclic_partition_counts(offset, length, n_threads)
    if policy == "block":
        return block_partition_counts(offset, length, total, n_threads)
    raise ValueError(f"unknown distribution {policy!r}; known: {DISTRIBUTIONS}")


def cyclic_indices(offset: int, length: int, n_threads: int, thread: int) -> np.ndarray:
    """Partition-local pattern indices owned by ``thread`` under the
    cyclic policy (used by the real worker team to slice tip data).

    >>> cyclic_indices(0, 10, 4, 1).tolist()
    [1, 5, 9]
    >>> cyclic_indices(3, 10, 4, 0).tolist()   # global index g has g % 4 == 0
    [1, 5, 9]
    >>> cyclic_indices(0, 0, 4, 2).tolist()    # empty partition: empty slice
    []
    """
    _check_geometry(offset, length, n_threads)
    if not 0 <= thread < n_threads:
        raise ValueError("thread id out of range")
    first = (thread - offset) % n_threads
    return np.arange(first, length, n_threads)


def block_indices(
    offset: int, length: int, total: int, n_threads: int, thread: int
) -> np.ndarray:
    """Partition-local pattern indices owned by ``thread`` under the block
    policy.

    >>> block_indices(40, 60, 100, 8, 4).tolist()
    [12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24]
    >>> block_indices(0, 0, 0, 4, 0).tolist()   # empty alignment: empty slice
    []
    """
    _check_geometry(offset, length, n_threads, total)
    if not 0 <= thread < n_threads:
        raise ValueError("thread id out of range")
    if total == 0:
        return np.arange(0)
    chunk = -(-total // n_threads)
    lo = min(thread * chunk, total)
    hi = min(lo + chunk, total)
    start = max(lo - offset, 0)
    stop = max(min(hi - offset, length), 0)
    return np.arange(start, stop)


def pattern_weight(states: int, categories: int = 4) -> float:
    """Relative compute cost of one pattern (dimensionless cost units).

    The PLK inner loops are dominated by the ``states x states``
    propagation per Gamma category, so the weight is
    ``categories * states**2`` — which makes an AA pattern exactly the
    paper's ~25x a DNA pattern:

    >>> pattern_weight(4, 4)
    64.0
    >>> pattern_weight(20, 4) / pattern_weight(4, 4)
    25.0
    """
    if states < 2 or categories < 1:
        raise ValueError("need states >= 2 and categories >= 1")
    return float(categories * states * states)


def imbalance_ratio(loads) -> float:
    """Max over mean thread load (dimensionless; 1.0 = perfect balance).

    A region lasts until its most-loaded thread finishes, so makespan /
    ideal-makespan equals ``max(load) / mean(load)``.  All-idle teams
    count as balanced:

    >>> imbalance_ratio([2.0, 2.0, 2.0, 2.0])
    1.0
    >>> imbalance_ratio([4.0, 0.0, 0.0, 0.0])
    4.0
    >>> imbalance_ratio([0.0, 0.0])
    1.0
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("need at least one thread load")
    mean = float(loads.mean())
    if mean <= 0.0:
        return 1.0
    return float(loads.max()) / mean


@dataclass(frozen=True)
class PartitionLayout:
    """A dataset's partition geometry, what a job is priced over.

    Attributes
    ----------
    lengths:
        Per-partition distinct-pattern counts ``m'_p`` (counts, >= 0).
    states:
        Per-partition state-space sizes (4 for DNA, 20 for AA).
    categories:
        Gamma rate categories K (count; shared by all partitions).

    >>> PartitionLayout((30, 10), (4, 20)).categories
    4
    """

    lengths: tuple[int, ...]
    states: tuple[int, ...]
    categories: int = 4

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.states):
            raise ValueError("need one state count per partition")
        if not self.lengths:
            raise ValueError("empty layout")
        if any(length < 0 for length in self.lengths):
            raise ValueError("pattern counts must be non-negative")
        if any(s < 2 for s in self.states):
            raise ValueError("state counts must be >= 2")
        if self.categories < 1:
            raise ValueError("need at least one rate category")

    @classmethod
    def from_alignment(cls, data, categories: int = 4) -> "PartitionLayout":
        """Layout of a :class:`~repro.plk.partition.PartitionedAlignment`."""
        return cls(
            lengths=tuple(int(d.n_patterns) for d in data.data),
            states=tuple(int(d.states) for d in data.data),
            categories=categories,
        )
