"""The paper's test datasets (Section V, "Test Datasets").

Simulated matrix: 12 DNA datasets ``dXX_YYYY`` (XX taxa in {10, 20, 50,
100}, YYYY columns in {5,000, 20,000, 50,000}) generated on random seed
trees, every column unique (m == m').  Each dataset combines with the
uniform partition schemes p1000 / p5000 / p10000 where the partition
length divides into the alignment (e.g. d10_5000 cannot run p10000).

Real-world stand-ins: the paper's three biological alignments are
proprietary collaborations; we generate synthetic alignments with the
*published shape statistics* (taxa, #partitions, total distinct patterns,
min/max partition length, datatype), which are the only properties the
load-balance behaviour depends on (see DESIGN.md substitution table):

* ``r26_21451`` — 26 taxa, viral proteins, 26 partitions, 21,451 patterns,
  partition lengths in [173, 2,695], AA.
* ``r24_16916`` — 24 taxa, viral proteins, 20 partitions, 16,916 patterns,
  partition lengths in [173, 2,695], AA.
* ``r125_19839`` — 125 taxa, mammalian DNA, 34 partitions, 19,839
  patterns, partition lengths in [148, 2,705], DNA.

Per-partition model heterogeneity (different GTR rates, alpha, and a
per-gene rate multiplier) is essential: it is what makes the iterative
optimizers converge after *different* iteration counts per partition,
which is the root cause of the paper's load imbalance.

Caveat: the all-unique-columns construction (the paper's m == m') is a
*performance* benchmark design, not a statistical one — discarding
duplicate columns removes exactly the slow-evolving sites that evidence
rate heterogeneity, so parameter estimates (notably alpha) on these
datasets are biased toward homogeneity.  Use plain
:func:`repro.seqgen.simulate_alignment` data for estimation studies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..plk.alignment import Alignment
from ..plk.datatypes import AA, DNA
from ..plk.models import SubstitutionModel
from ..plk.partition import PartitionedAlignment, PartitionScheme, uniform_scheme
from ..plk.tree import Tree
from .randomtree import random_topology_with_lengths
from .schemes import scheme_from_lengths, variable_lengths
from .simulate import simulate_alignment

__all__ = [
    "Dataset",
    "simulated_dataset",
    "realworld_standin",
    "PAPER_SIMULATED",
    "PAPER_REALWORLD",
    "paper_dataset",
    "profiling_workload",
]

#: The paper's 12 simulated datasets: (taxa, columns).
PAPER_SIMULATED: tuple[tuple[int, int], ...] = tuple(
    (taxa, sites)
    for taxa in (10, 20, 50, 100)
    for sites in (5_000, 20_000, 50_000)
)

#: Published shape statistics of the three real-world alignments:
#: name -> (taxa, partitions, total patterns, min len, max len, datatype).
PAPER_REALWORLD: dict[str, tuple[int, int, int, int, int, str]] = {
    "r26_21451": (26, 26, 21_451, 173, 2_695, "AA"),
    "r24_16916": (24, 20, 16_916, 173, 2_695, "AA"),
    "r125_19839": (125, 34, 19_839, 148, 2_705, "DNA"),
}


@dataclass(frozen=True)
class Dataset:
    """A ready-to-analyze benchmark dataset: alignment + scheme + the true
    generating tree (used as the fixed input tree, as the paper does "on a
    fixed input tree for reproducibility")."""

    name: str
    tree: Tree
    true_lengths: np.ndarray
    alignment: Alignment
    scheme: PartitionScheme
    #: per-partition generating parameters, for reference
    alphas: tuple[float, ...]

    def partitioned(self) -> PartitionedAlignment:
        return PartitionedAlignment(self.alignment, self.scheme)

    @property
    def n_taxa(self) -> int:
        return self.alignment.n_taxa

    @property
    def n_partitions(self) -> int:
        return len(self.scheme)


def _heterogeneous_models(
    n_partitions: int, datatype: str, seed: int
) -> tuple[list[SubstitutionModel], list[float], np.ndarray]:
    """Per-partition generating models, alphas and rate multipliers."""
    rng = np.random.default_rng(seed)
    models: list[SubstitutionModel] = []
    alphas: list[float] = []
    for p in range(n_partitions):
        if datatype == "DNA":
            models.append(SubstitutionModel.random_gtr(seed * 1_000 + p))
        else:
            models.append(SubstitutionModel.synthetic_aa(seed * 1_000 + p))
        alphas.append(float(np.exp(rng.normal(-0.2, 0.5))))  # ~[0.3, 2.5]
    multipliers = np.exp(rng.normal(0.0, 0.35, size=n_partitions))
    return models, alphas, multipliers


def _simulate_partitioned(
    name: str,
    tree: Tree,
    lengths: np.ndarray,
    scheme: PartitionScheme,
    datatype: str,
    seed: int,
    unique_columns: bool,
) -> Dataset:
    models, alphas, multipliers = _heterogeneous_models(len(scheme), datatype, seed)
    rng = np.random.default_rng(seed + 99)
    blocks: list[np.ndarray] = []
    for p, part in enumerate(scheme):
        sub = simulate_alignment(
            tree,
            lengths * multipliers[p],
            models[p],
            alphas[p],
            part.n_sites,
            rng,
            unique_columns=unique_columns,
        )
        blocks.append(sub.matrix)
    matrix = np.concatenate(blocks, axis=1)
    dtype = DNA if datatype == "DNA" else AA
    alignment = Alignment(taxa=tree.taxa, matrix=matrix, datatype=dtype)
    return Dataset(
        name=name,
        tree=tree,
        true_lengths=lengths,
        alignment=alignment,
        scheme=scheme,
        alphas=tuple(alphas),
    )


@lru_cache(maxsize=8)
def simulated_dataset(
    n_taxa: int,
    n_sites: int,
    partition_length: int = 1_000,
    seed: int = 42,
    unique_columns: bool = True,
) -> Dataset:
    """One of the paper's ``dXX_YYYY`` datasets with a ``pZZZZ`` scheme.

    ``simulated_dataset(50, 50_000, 1_000)`` is Figure 3's d50_50000 with
    50 partitions of 1,000 columns each.
    """
    if n_sites % partition_length != 0:
        raise ValueError(
            f"the paper only combines datasets with schemes that divide "
            f"evenly; {partition_length} does not divide {n_sites}"
        )
    rng = np.random.default_rng(seed)
    tree, lengths = random_topology_with_lengths(n_taxa, rng)
    scheme = uniform_scheme(n_sites, partition_length)
    return _simulate_partitioned(
        f"d{n_taxa}_{n_sites}_p{partition_length}",
        tree,
        lengths,
        scheme,
        "DNA",
        seed,
        unique_columns,
    )


@lru_cache(maxsize=4)
def realworld_standin(name: str, seed: int = 7) -> Dataset:
    """Synthetic stand-in for one of the paper's real-world alignments."""
    try:
        taxa, n_parts, total, lo, hi, dtype = PAPER_REALWORLD[name]
    except KeyError:
        raise KeyError(
            f"unknown real-world dataset {name!r}; known: {sorted(PAPER_REALWORLD)}"
        ) from None
    rng = np.random.default_rng(seed)
    part_lengths = variable_lengths(total, n_parts, lo, hi, rng)
    tree, lengths = random_topology_with_lengths(taxa, rng)
    scheme = scheme_from_lengths(part_lengths, dtype)
    return _simulate_partitioned(
        name, tree, lengths, scheme, dtype, seed, unique_columns=True
    )


def profiling_workload(taxa: int, sites: int, partitions: int, seed: int):
    """The small simulated workload the CLI's team commands (``repro
    profile``/``timeline``/``balance``/``top``) and a ``{"kind":
    "simulated"}`` serve dataset run on: one seeded topology, one GTR
    simulation on it, ``partitions`` equal blocks (``sites`` rounded down
    to a multiple), and per-partition ``random_gtr(p)`` models with
    alphas of 1.0.

    Returns ``(data, tree, lengths, models, alphas)``.
    """
    rng = np.random.default_rng(seed)
    tree, lengths = random_topology_with_lengths(taxa, rng)
    part_len = max(sites // partitions, 1)
    sites = part_len * partitions
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(0), 1.0, sites, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(sites, part_len))
    models = [SubstitutionModel.random_gtr(p) for p in range(data.n_partitions)]
    return data, tree, lengths, models, [1.0] * data.n_partitions


def paper_dataset(name: str, seed: int = 42) -> Dataset:
    """Resolve any paper dataset id: ``d50_50000_p1000`` or ``r125_19839``."""
    if name.startswith("r"):
        return realworld_standin(name)
    parts = name.split("_")
    if len(parts) != 3 or not parts[2].startswith("p"):
        raise ValueError(
            "simulated dataset ids look like d50_50000_p1000 "
            f"(got {name!r})"
        )
    return simulated_dataset(
        int(parts[0][1:]), int(parts[1]), int(parts[2][1:]), seed=seed
    )
