"""Gappy phylogenomic alignments and induced-subtree likelihoods.

Multi-gene alignments are "gappy": sequence data is not available for
every gene of every organism, so the gene sampling has large holes filled
with alignment gaps (paper Fig. 2; described in detail in the paper's
reference [32], Stamatakis & Ott 2008, Phil. Trans. R. Soc. B).

A taxon whose data is entirely missing in a partition contributes a
conditional vector of all ones — mathematically it can be *pruned exactly*
from that partition's tree, and the surviving degree-2 junctions collapse
by adding branch lengths (P(b1) @ P(b2) == P(b1 + b2) for a shared Q).
With a **per-partition branch length estimate** every partition can
therefore be computed on its own *induced subtree* spanning only the taxa
it covers — this is why the paper "strongly argue[s] in favor of using
per-gene branch length estimates", and the speedup [32] reports as one to
two orders of magnitude on very gappy data.  The paper lists implementing
tree searches under this model as future work; here we implement the
likelihood machinery (exact induced-subtree evaluation plus the cost
accounting), which is what the load-balance analysis needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .likelihood import PartitionLikelihood, PartitionView
from .models import SubstitutionModel
from .partition import PartitionData, PartitionedAlignment
from .tree import Tree

__all__ = [
    "taxon_coverage",
    "InducedSubtree",
    "induced_subtree",
    "GappyEngine",
    "traversal_cost_ratio",
]


def taxon_coverage(data: PartitionedAlignment) -> np.ndarray:
    """(n_partitions, n_taxa) bool: does the taxon have ANY informative
    (non-fully-ambiguous) character in the partition?"""
    out = np.zeros((data.n_partitions, data.n_taxa), dtype=bool)
    for p, block in enumerate(data.data):
        # tip_states: (n_taxa, m, s); a row of all ones == no information
        informative = block.tip_states.sum(axis=2) < block.states
        out[p] = informative.any(axis=1)
    return out


@dataclass(frozen=True)
class InducedSubtree:
    """The subtree a partition's present taxa span.

    Attributes
    ----------
    tree:
        A fresh :class:`Tree` over the present taxa only (their original
        names).
    leaf_map:
        ``{original leaf id -> induced leaf id}``.
    edge_spans:
        For every induced edge id, the tuple of ORIGINAL edge ids it
        replaces (collapsed chains have length > 1); induced branch
        lengths are the sums over these spans.
    """

    tree: Tree
    leaf_map: dict[int, int]
    edge_spans: tuple[tuple[int, ...], ...]

    def project_lengths(self, full_lengths: np.ndarray) -> np.ndarray:
        """Map a full-tree branch-length vector onto the induced tree."""
        return np.array(
            [sum(full_lengths[e] for e in span) for span in self.edge_spans]
        )


def induced_subtree(tree: Tree, keep: set[int]) -> InducedSubtree:
    """The exact induced subtree over the leaf set ``keep`` (>= 3 leaves).

    Prunes absent leaves, then suppresses the resulting degree-2 nodes,
    recording which original edges each induced edge spans.
    """
    if len(keep) < 3:
        raise ValueError("induced subtrees need at least 3 present taxa")
    if not keep <= set(range(tree.n_taxa)):
        raise ValueError("keep must be a set of leaf ids")

    # Work on a mutable adjacency copy: node -> {neighbor: span tuple}.
    adj: dict[int, dict[int, tuple[int, ...]]] = {
        node: {nb: (tree.edge_between(node, nb),) for nb in tree.neighbors(node)}
        for node in range(tree.n_nodes)
    }

    # 1. Iteratively prune leaves not kept (and inner nodes that become
    #    leaves as a result).
    queue = [leaf for leaf in range(tree.n_taxa) if leaf not in keep]
    while queue:
        node = queue.pop()
        if node not in adj or len(adj[node]) != 1:
            continue
        (neighbor,) = adj[node]
        del adj[neighbor][node]
        del adj[node]
        if len(adj[neighbor]) == 1 and neighbor >= tree.n_taxa:
            queue.append(neighbor)

    # 2. Suppress degree-2 inner nodes, concatenating spans.
    for node in [n for n in list(adj) if n >= tree.n_taxa and len(adj[n]) == 2]:
        (a, span_a), (b, span_b) = adj[node].items()
        del adj[node]
        del adj[a][node]
        del adj[b][node]
        adj[a][b] = span_a + span_b
        adj[b][a] = span_b + span_a

    # 3. Rebuild as a fresh Tree over the kept taxa.
    kept_leaves = sorted(keep)
    taxa = tuple(tree.taxa[leaf] for leaf in kept_leaves)
    new_tree = Tree(taxa)
    leaf_map = {old: i for i, old in enumerate(kept_leaves)}
    inner_map: dict[int, int] = {}
    next_inner = new_tree.n_taxa

    def new_id(old: int) -> int:
        nonlocal next_inner
        if old in leaf_map:
            return leaf_map[old]
        if old not in inner_map:
            inner_map[old] = next_inner
            next_inner += 1
        return inner_map[old]

    spans: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    next_edge = 0
    for node, nbrs in adj.items():
        for nb, span in nbrs.items():
            key = frozenset((node, nb))
            if key in seen:
                continue
            seen.add(key)
            new_tree._link(new_id(node), new_id(nb), next_edge)
            spans.append(tuple(span))
            next_edge += 1
    new_tree.validate()
    return InducedSubtree(
        tree=new_tree, leaf_map=leaf_map, edge_spans=tuple(spans)
    )


class GappyEngine:
    """Exact partitioned likelihood over per-partition induced subtrees.

    Every partition computes on the subtree its covered taxa span, with
    its own branch lengths projected from (or optimized independently of)
    the full tree — the computational model of the paper's reference [32]
    that motivates per-partition branch lengths.  Partitions on different
    trees cannot share a likelihood stack, so each is the
    :class:`~repro.plk.likelihood.PartitionView` of a one-member stack.

    Parameters
    ----------
    data:
        Partitioned alignment (possibly with data holes).
    tree:
        The full topology over all taxa.
    models, alphas:
        Per-partition parameters, as in
        :class:`~repro.core.engine.PartitionedEngine`.
    initial_lengths:
        Full-tree lengths; each partition starts from their projection
        onto its induced subtree.
    """

    def __init__(
        self,
        data: PartitionedAlignment,
        tree: Tree,
        models: list[SubstitutionModel] | None = None,
        alphas: list[float] | None = None,
        initial_lengths: np.ndarray | None = None,
        recorder=None,
        categories: int = 4,
    ):
        self.data = data
        self.full_tree = tree
        coverage = taxon_coverage(data)
        if models is None:
            models = [
                SubstitutionModel.jc69()
                if d.partition.datatype.states == 4
                else SubstitutionModel.poisson_aa()
                for d in data.data
            ]
        if alphas is None:
            alphas = [1.0] * data.n_partitions

        self.subtrees: list[InducedSubtree] = []
        self.parts: list[PartitionView] = []
        for p, block in enumerate(data.data):
            present = set(np.flatnonzero(coverage[p]).tolist())
            sub = induced_subtree(tree, present)
            # Re-order the tip rows into the induced tree's leaf numbering.
            order = sorted(present)
            tips = np.ascontiguousarray(block.tip_states[order])
            reduced = PartitionData(
                partition=block.partition,
                tip_states=tips,
                weights=block.weights,
            )
            engine = PartitionView(
                PartitionLikelihood(
                    [reduced],
                    sub.tree,
                    [models[p]],
                    alpha=alphas[p],
                    categories=categories,
                    index=[p],
                    recorder=recorder,
                ),
                0,
            )
            if initial_lengths is not None:
                engine.set_branch_lengths(sub.project_lengths(initial_lengths))
            self.subtrees.append(sub)
            self.parts.append(engine)

    @property
    def n_partitions(self) -> int:
        return len(self.parts)

    def loglikelihood(self) -> float:
        """Total log-likelihood over the induced subtrees (exactly equal
        to the full-tree likelihood at corresponding branch lengths)."""
        return float(sum(p.loglikelihood(0) for p in self.parts))

    def inner_node_counts(self) -> np.ndarray:
        """(P,) inner nodes per induced subtree — the per-partition
        traversal work, vs n - 2 on the full tree."""
        return np.array(
            [sub.tree.n_nodes - sub.tree.n_taxa for sub in self.subtrees]
        )


def traversal_cost_ratio(data: PartitionedAlignment, tree: Tree) -> float:
    """Full-tree over induced-subtree traversal cost for one full
    evaluation: ``sum_p m_p * (n-2)  /  sum_p m_p * inner_p``.

    This is the speedup bound [32] exploits; on very gappy alignments it
    reaches one to two orders of magnitude.
    """
    coverage = taxon_coverage(data)
    full = 0.0
    induced = 0.0
    n_inner_full = tree.n_taxa - 2
    for p, block in enumerate(data.data):
        present = set(np.flatnonzero(coverage[p]).tolist())
        sub = induced_subtree(tree, present)
        full += block.n_patterns * n_inner_full
        induced += block.n_patterns * (sub.tree.n_nodes - sub.tree.n_taxa)
    return full / induced
