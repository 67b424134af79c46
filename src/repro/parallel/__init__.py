"""Real parallel execution of the PLK: the cyclic and block pattern
distribution policies plus the process-based master/worker team
executing the same schedule the simulator replays."""
from .distribution import (
    DISTRIBUTIONS,
    PartitionLayout,
    block_indices,
    block_partition_counts,
    cyclic_indices,
    cyclic_partition_counts,
    imbalance_ratio,
    partition_thread_counts,
    pattern_weight,
)
from .engine import ParallelPLK, WorkerError
from .shm import WorkerStatsPlane, live_segments
from .worker import WorkerState, slice_partition_data

__all__ = [
    "DISTRIBUTIONS",
    "ParallelPLK",
    "PartitionLayout",
    "WorkerError",
    "WorkerState",
    "WorkerStatsPlane",
    "live_segments",
    "block_indices",
    "block_partition_counts",
    "cyclic_indices",
    "cyclic_partition_counts",
    "imbalance_ratio",
    "partition_thread_counts",
    "pattern_weight",
    "slice_partition_data",
]
