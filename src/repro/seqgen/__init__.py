"""Sequence and dataset simulation (the SeqGen substitute, Section V)."""
from .datasets import (
    PAPER_REALWORLD,
    PAPER_SIMULATED,
    Dataset,
    paper_dataset,
    profiling_workload,
    realworld_standin,
    simulated_dataset,
)
from .bootstrap import bootstrap_replicate, bootstrap_weights, split_support
from .gappy import coverage_fraction, gappy_dataset
from .randomtree import default_taxa, random_topology_with_lengths, yule_tree
from .schemes import scheme_from_lengths, variable_lengths
from .simulate import simulate_alignment, simulate_states

__all__ = [
    "PAPER_REALWORLD",
    "PAPER_SIMULATED",
    "Dataset",
    "bootstrap_replicate",
    "bootstrap_weights",
    "coverage_fraction",
    "default_taxa",
    "gappy_dataset",
    "paper_dataset",
    "profiling_workload",
    "random_topology_with_lengths",
    "realworld_standin",
    "scheme_from_lengths",
    "simulate_alignment",
    "simulate_states",
    "simulated_dataset",
    "split_support",
    "variable_lengths",
    "yule_tree",
]
