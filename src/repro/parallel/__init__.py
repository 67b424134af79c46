"""Real parallel execution of the PLK: pattern distribution policies
(static and cost-aware), a measured-feedback rebalancer, plus the
process-based master/worker team executing the same schedule the
simulator replays."""
from .distribution import (
    DISTRIBUTIONS,
    STATIC_DISTRIBUTIONS,
    block_indices,
    block_partition_counts,
    cyclic_indices,
    cyclic_partition_counts,
    partition_thread_counts,
)
from .balance import (
    CostModel,
    DistributionPlan,
    PartitionLayout,
    Rebalancer,
    build_plan,
    imbalance_ratio,
    pattern_weight,
)
from .engine import ParallelPLK, WorkerError
from .program import Program
from .shm import WorkerStatsPlane, live_segments
from .worker import WorkerState, slice_partition_data

__all__ = [
    "DISTRIBUTIONS",
    "STATIC_DISTRIBUTIONS",
    "CostModel",
    "DistributionPlan",
    "ParallelPLK",
    "PartitionLayout",
    "Program",
    "Rebalancer",
    "WorkerError",
    "WorkerState",
    "WorkerStatsPlane",
    "live_segments",
    "block_indices",
    "block_partition_counts",
    "build_plan",
    "cyclic_indices",
    "cyclic_partition_counts",
    "imbalance_ratio",
    "partition_thread_counts",
    "pattern_weight",
    "slice_partition_data",
]
