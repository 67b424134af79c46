"""The Phylogenetic Likelihood Kernel substrate (paper Section III).

Everything needed to compute the likelihood of a multiple sequence
alignment on an unrooted binary tree under GTR-class models with discrete
Gamma rate heterogeneity: state spaces, alignments and pattern compression,
partition schemes, substitution models and their eigensystems, tree
topology, and the vectorized pruning/evaluation/derivative kernels.
"""
from .alignment import Alignment, compress_columns
from .datatypes import AA, DNA, DataType, get_datatype
from .eigen import EigenSystem
from .frequencies import (
    empirical_frequencies,
    frequency_ratios,
    ratios_to_frequencies,
)
from .gamma import GAMMA_CATEGORIES, discrete_gamma_rates
from .gappy import (
    GappyEngine,
    InducedSubtree,
    induced_subtree,
    taxon_coverage,
    traversal_cost_ratio,
)
from .likelihood import EdgeWorkspace, PartitionLikelihood, PartitionView
from .models import SubstitutionModel, n_exchange_rates
from .newick import parse_newick, write_newick
from .partition import (
    Partition,
    PartitionData,
    PartitionedAlignment,
    PartitionScheme,
    parse_partition_file,
    read_partitioned_alignment,
    uniform_scheme,
)
from .phylip import parse_fasta, parse_phylip, write_fasta, write_phylip
from .repeats import NodeRepeats, repeat_profile, tip_state_codes
from .stacking import PartitionStacks, stack_groups
from .tree import TraversalStep, Tree

__all__ = [
    "AA",
    "Alignment",
    "DNA",
    "DataType",
    "EdgeWorkspace",
    "EigenSystem",
    "GAMMA_CATEGORIES",
    "GappyEngine",
    "InducedSubtree",
    "NodeRepeats",
    "Partition",
    "PartitionData",
    "PartitionLikelihood",
    "PartitionScheme",
    "PartitionStacks",
    "PartitionView",
    "PartitionedAlignment",
    "SubstitutionModel",
    "TraversalStep",
    "Tree",
    "compress_columns",
    "discrete_gamma_rates",
    "empirical_frequencies",
    "frequency_ratios",
    "get_datatype",
    "induced_subtree",
    "n_exchange_rates",
    "parse_fasta",
    "parse_newick",
    "parse_partition_file",
    "parse_phylip",
    "ratios_to_frequencies",
    "read_partitioned_alignment",
    "repeat_profile",
    "stack_groups",
    "taxon_coverage",
    "tip_state_codes",
    "traversal_cost_ratio",
    "uniform_scheme",
    "write_fasta",
    "write_newick",
    "write_phylip",
]
