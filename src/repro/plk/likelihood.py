"""Per-partition likelihood evaluation on a tree (Felsenstein pruning).

:class:`PartitionLikelihood` owns, for ONE partition: the encoded tip
patterns, the substitution model and its eigensystem, the Gamma rates, a
private branch-length vector, and one conditional likelihood vector (CLV)
per inner node.  Exactly like RAxML it stores a single *oriented* CLV per
inner node — the conditional of the subtree hanging below the node w.r.t.
the current virtual-root placement — and relocating the virtual root or
changing a branch only recomputes the vectors whose orientation or inputs
changed (the paper's "partial traversals").

Multi-partition coordination (joint branch lengths, the oldPAR/newPAR
optimization strategies) lives in :mod:`repro.core.engine`, which drives a
collection of these single-partition engines.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .eigen import EigenSystem
from .gamma import GAMMA_CATEGORIES, discrete_gamma_rates
from .models import SubstitutionModel
from .partition import PartitionData
from .tree import Tree

__all__ = ["PartitionLikelihood", "BranchWorkspace"]


@dataclass
class BranchWorkspace:
    """Precomputed state for Newton-Raphson on one branch of one partition:
    the eigenbasis sumtable plus the total scaling counter of the two
    subtrees meeting at the branch.

    ``epoch`` snapshots the engine's model-parameter epoch at preparation
    time: the sumtable embeds the eigenvectors and implicitly pairs with
    the rates/eigenvalues of that moment, so consuming it after an
    alpha/rates/eigen update would silently mix old and new parameters —
    the engine refuses such stale workspaces (see
    :meth:`PartitionLikelihood.branch_loglikelihood`)."""

    edge: int
    sumtable: np.ndarray
    scale: np.ndarray | None
    n_patterns: int
    epoch: int = 0


class PartitionLikelihood:
    """Likelihood engine for a single partition on a shared tree topology.

    Parameters
    ----------
    data:
        Pattern-compressed tip data for this partition.
    tree:
        The (shared, possibly mutated) topology.  The engine reads it on
        every traversal; after mutating the topology call
        :meth:`invalidate_all` (or targeted :meth:`invalidate_node`).
    model:
        The partition's substitution model.
    alpha:
        Gamma shape parameter.
    categories:
        Number of discrete Gamma categories (4 throughout the paper).
    index:
        The partition's position in its scheme (used by trace recorders).
    recorder:
        Optional kernel-operation listener with ``newview(partition, n)``,
        ``evaluate(partition, n)``, ``sumtable(partition, n)`` and
        ``derivative(partition, n)`` methods (n = pattern count touched).
    """

    def __init__(
        self,
        data: PartitionData,
        tree: Tree,
        model: SubstitutionModel,
        alpha: float = 1.0,
        categories: int = GAMMA_CATEGORIES,
        index: int = 0,
        recorder=None,
    ):
        if model.states != data.states:
            raise ValueError(
                f"model has {model.states} states but partition data has {data.states}"
            )
        self.data = data
        self.tree = tree
        self.index = index
        self.categories = categories
        self.recorder = recorder
        self.branch_lengths = np.full(tree.n_edges, 0.1)
        self._model = model
        self._alpha = float(alpha)
        self._pinv = 0.0
        self._invariant_mask: np.ndarray | None = None  # (m, s), lazy
        self._eigen = EigenSystem.for_model(model)
        self._rates = discrete_gamma_rates(alpha, categories)
        self._rates.setflags(write=False)
        # Counts model-parameter updates (alpha/rates/eigen).  Snapshotted
        # into every BranchWorkspace and checked on use: a sumtable built
        # under old parameters must never be combined with new
        # eigenvalues/rates (silently wrong likelihoods, not errors).
        self._param_epoch = 0
        # Per-inner-node CLV storage.  The signature records exactly which
        # children/edges/orientation a stored CLV was computed from, so
        # topology moves (which change adjacency) and virtual-root motion
        # (which changes orientation) are both detected (RAxML's partial
        # traversal logic).
        self._clv: dict[int, np.ndarray] = {}
        self._scale: dict[int, np.ndarray] = {}
        self._stored_sig: dict[int, tuple[int, int, int, int, int]] = {}
        self._dirty: set[int] = set(range(tree.n_taxa, tree.n_nodes))
        # Transition-matrix cache: edge -> (length, eigensystem, rates, P).
        # Branch lengths change rarely relative to how often P(t) is
        # consumed (every partition touches every edge on a full
        # traversal).  The eigensystem/rates are part of the key BY
        # IDENTITY: parameter setters clear the cache, and the identity
        # check makes a missed clear impossible to exploit (defense in
        # depth against the stale-P bug class).
        self._p_cache: dict[int, tuple[float, EigenSystem, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    @property
    def model(self) -> SubstitutionModel:
        return self._model

    @model.setter
    def model(self, model: SubstitutionModel) -> None:
        if model.states != self.data.states:
            raise ValueError("cannot change the state-space of a partition")
        self._model = model
        self._eigen = EigenSystem.for_model(model)
        self._param_epoch += 1
        self._p_cache.clear()
        self.invalidate_all()

    @property
    def alpha(self) -> float:
        return self._alpha

    @alpha.setter
    def alpha(self, alpha: float) -> None:
        self._alpha = float(alpha)
        self._rates = discrete_gamma_rates(alpha, self.categories)
        self._rates.setflags(write=False)
        self._param_epoch += 1
        self._p_cache.clear()
        self.invalidate_all()

    @property
    def pinv(self) -> float:
        """Proportion of invariable sites (the +I mixture component).

        0.0 (the default) disables the mixture.  Changing it does NOT
        invalidate the conditional vectors: only the root-level mixing
        changes — proposals/optimization of pinv are therefore the
        cheapest parameter moves of all (one evaluation, no traversal).
        Convention: site rate is 0 with probability pinv, else
        Gamma(alpha, alpha) with mean 1 (no renormalization; branch
        lengths absorb the scale, as in MrBayes/PhyML).
        """
        return self._pinv

    @pinv.setter
    def pinv(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("pinv must be in [0, 1)")
        self._pinv = float(value)

    def invariant_probabilities(self) -> np.ndarray:
        """(m,) prior mass of the states compatible with every tip at each
        pattern (0 for variable patterns) — the invariant component's
        per-pattern likelihood."""
        if self._invariant_mask is None:
            self._invariant_mask = (self.data.tip_states > 0.0).all(axis=0)
        return self._invariant_mask @ self._model.frequencies

    @property
    def gamma_rates(self) -> np.ndarray:
        return self._rates

    @property
    def eigen(self) -> EigenSystem:
        return self._eigen

    @property
    def n_patterns(self) -> int:
        return self.data.n_patterns

    def set_branch_length(self, edge: int, value: float) -> None:
        """Change one branch length, invalidating dependent CLVs."""
        self.branch_lengths[edge] = value
        u, v = self.tree.edge_nodes(edge)
        for node in (u, v):
            if not self.tree.is_leaf(node):
                self._dirty.add(node)

    def set_branch_lengths(self, values: np.ndarray) -> None:
        if values.shape != (self.tree.n_edges,):
            raise ValueError("branch-length vector has wrong shape")
        self.branch_lengths[:] = values
        self.invalidate_all()

    # ------------------------------------------------------------------
    # CLV management
    # ------------------------------------------------------------------

    def invalidate_all(self) -> None:
        """Mark every inner CLV stale (model change / bulk topology edit)."""
        self._dirty.update(range(self.tree.n_taxa, self.tree.n_nodes))

    def invalidate_node(self, node: int) -> None:
        """Mark one inner node stale (targeted topology edit)."""
        if not self.tree.is_leaf(node):
            self._dirty.add(node)

    def _p_matrix(self, edge: int) -> np.ndarray:
        t = float(np.clip(self.branch_lengths[edge], kernel.MIN_BRANCH, kernel.MAX_BRANCH))
        hit = self._p_cache.get(edge)
        if (
            hit is not None
            and hit[0] == t
            and hit[1] is self._eigen
            and hit[2] is self._rates
        ):
            return hit[3]
        p = self._eigen.transition_matrices(t, self._rates)
        self._p_cache[edge] = (t, self._eigen, self._rates, p)
        return p

    def _child_clv(self, node: int) -> tuple[np.ndarray, np.ndarray | None]:
        """CLV (or tip matrix) plus scaling counter for a traversal child."""
        if self.tree.is_leaf(node):
            return self.data.tip_states[node], None
        return self._clv[node], self._scale[node]

    def refresh(self, root_edge: int) -> int:
        """Make every CLV needed for the orientation rooted on ``root_edge``
        valid; returns the number of newview operations performed (the
        partial-traversal length)."""
        steps = self.tree.postorder(root_edge)
        recomputed: set[int] = set()
        count = 0
        for step in steps:
            node = step.node
            sig = (step.c1, step.e1, step.c2, step.e2, self._parent_of(step))
            needs = (
                node in self._dirty
                or self._stored_sig.get(node) != sig
                or step.c1 in recomputed
                or step.c2 in recomputed
                or node not in self._clv
            )
            if not needs:
                continue
            clv1, sc1 = self._child_clv(step.c1)
            clv2, sc2 = self._child_clv(step.c2)
            p1 = self._p_matrix(step.e1)
            p2 = self._p_matrix(step.e2)
            clv, scale = kernel.newview(p1, clv1, sc1, p2, clv2, sc2)
            self._clv[node] = clv
            self._scale[node] = scale
            self._stored_sig[node] = sig
            self._dirty.discard(node)
            recomputed.add(node)
            count += 1
        if count and self.recorder is not None:
            self.recorder.newview(self.index, self.n_patterns, count)
        return count

    def _parent_of(self, step) -> int:
        """The neighbor of ``step.node`` that is NOT one of its children in
        this traversal — the stored orientation key."""
        (other,) = [
            nb
            for nb in self.tree.neighbors(step.node)
            if nb not in (step.c1, step.c2)
        ]
        return other

    # ------------------------------------------------------------------
    # Likelihood
    # ------------------------------------------------------------------

    def loglikelihood(self, root_edge: int | None = None) -> float:
        """Per-partition log-likelihood with the virtual root on
        ``root_edge`` (default: edge 0).  Time-reversibility makes the
        result independent of the choice."""
        edge = 0 if root_edge is None else root_edge
        lnl = kernel.weighted_log_sum(self.data.weights, self.site_loglikelihoods(edge))
        if self.recorder is not None:
            self.recorder.evaluate(self.index, self.n_patterns)
        return lnl

    def site_loglikelihoods(self, root_edge: int = 0) -> np.ndarray:
        """Per-pattern log-likelihoods, including the +I mixture; their
        pattern-weighted sum is :meth:`loglikelihood`."""
        self.refresh(root_edge)
        a, b = self.tree.edge_nodes(root_edge)
        clv_a, sc_a = self._child_clv(a)
        clv_b, sc_b = self._child_clv(b)
        site = kernel.root_site_likelihoods(
            self._p_matrix(root_edge), clv_a, clv_b, self._model.frequencies
        )
        scale = kernel.combine_scales(sc_a, sc_b)
        if self._pinv == 0.0:
            return kernel.scaled_log_likelihoods(site, scale)
        return kernel.mix_invariant_loglikelihoods(
            site, scale, self._pinv, self.invariant_probabilities()
        )

    # ------------------------------------------------------------------
    # Branch-length machinery (Newton-Raphson support)
    # ------------------------------------------------------------------

    def prepare_branch(self, edge: int) -> BranchWorkspace:
        """Validate the CLVs flanking ``edge`` and build its sumtable."""
        self.refresh(edge)
        a, b = self.tree.edge_nodes(edge)
        clv_a, sc_a = self._child_clv(a)
        clv_b, sc_b = self._child_clv(b)
        table = kernel.make_sumtable(
            clv_a, clv_b, self._eigen.u, self._eigen.v, self._model.frequencies
        )
        scale = kernel.combine_scales(sc_a, sc_b)
        if self.recorder is not None:
            self.recorder.sumtable(self.index, self.n_patterns)
        return BranchWorkspace(
            edge=edge, sumtable=table, scale=scale, n_patterns=self.n_patterns,
            epoch=self._param_epoch,
        )

    def _check_workspace(self, ws: BranchWorkspace) -> None:
        if ws.epoch != self._param_epoch:
            raise RuntimeError(
                "stale BranchWorkspace: model parameters (alpha/rates/eigen) "
                f"changed after prepare_branch() on edge {ws.edge} — the "
                "sumtable would be combined with mismatched eigenvalues/"
                "rates; re-prepare the branch"
            )

    def branch_loglikelihood(self, ws: BranchWorkspace, z: float) -> float:
        """Log-likelihood as a function of the length of ``ws.edge`` with
        everything else fixed (cheap: no traversal)."""
        self._check_workspace(ws)
        if self.recorder is not None:
            self.recorder.derivative(self.index, self.n_patterns)
        z = float(np.clip(z, kernel.MIN_BRANCH, kernel.MAX_BRANCH))
        if self._pinv == 0.0:
            return kernel.sumtable_loglikelihood(
                ws.sumtable,
                self._eigen.eigenvalues,
                self._rates,
                z,
                self.data.weights,
                ws.scale,
            )
        site = kernel.sumtable_site_likelihoods(
            ws.sumtable, self._eigen.eigenvalues, self._rates, z
        )
        logs = kernel.mix_invariant_loglikelihoods(
            site, ws.scale, self._pinv, self.invariant_probabilities()
        )
        return kernel.weighted_log_sum(self.data.weights, logs)

    def branch_derivatives(self, ws: BranchWorkspace, z: float) -> tuple[float, float]:
        """(dlnL/dz, d2lnL/dz2) at branch length ``z`` from the sumtable —
        the per-iteration work of Newton-Raphson."""
        self._check_workspace(ws)
        if self.recorder is not None:
            self.recorder.derivative(self.index, self.n_patterns)
        z = float(np.clip(z, kernel.MIN_BRANCH, kernel.MAX_BRANCH))
        if self._pinv == 0.0:
            return kernel.branch_derivatives(
                ws.sumtable,
                self._eigen.eigenvalues,
                self._rates,
                z,
                self.data.weights,
                ws.scale,
            )
        return kernel.branch_derivatives_pinv(
            ws.sumtable,
            self._eigen.eigenvalues,
            self._rates,
            z,
            self.data.weights,
            ws.scale,
            self._pinv,
            self.invariant_probabilities(),
        )
