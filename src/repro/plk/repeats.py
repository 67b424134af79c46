"""Site/subtree repeats: the per-node repeat index and its profile.

On real alignments many columns induce *identical subtree states*: below
an inner node v, two sites whose characters agree at every leaf of v's
subtree have — for any branch lengths and any model — exactly the same
conditional likelihood vector at v.  The LvD line of work (PAPERS.md;
Kobert et al.) partitions each node's pattern axis into *repeat classes*
so ``newview`` could run over one representative per class.  The engine
does not do that (at the pattern counts the benchmarks run, the gathers
cost more than they save — EXPERIMENTS.md REPEATS); this module measures
how much such compression could save, for diagnostics and benchmarks.

Class construction is one bottom-up pass:

* at a **tip**, two sites share a class iff their state codes agree —
  codes are bitmasks over the state set, so ambiguity codes (``R``,
  ``N``, gaps, …) and the reduced-tip rows of :mod:`repro.plk.gappy`
  compare correctly for free;
* at an **inner node**, two sites share a class iff their classes agree
  at BOTH children (``key = c1 * n2 + c2`` + one ``np.unique``).

The classes depend only on the topology and the tip data, and class
structure only refines upward: once a node reaches ``n_classes == m``
(every site unique) all its ancestors are saturated too, so the pass
short-circuits to identity without running ``np.unique`` again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeRepeats",
    "tip_state_codes",
    "repeat_profile",
]


def tip_state_codes(tip_states: np.ndarray) -> np.ndarray:
    """(n_taxa, m) integer codes of the tip indicator rows.

    Each code is the bitmask of states with nonzero indicator mass, so
    plain states, every IUPAC ambiguity code and the all-ones gap row map
    to distinct, order-independent integers for both DNA (4 bits) and AA
    (20 bits) alphabets.
    """
    states = tip_states.shape[2]
    bits = (np.int64(1) << np.arange(states, dtype=np.int64))
    return (tip_states > 0.0) @ bits


@dataclass(frozen=True)
class NodeRepeats:
    """The repeat classes of one node's pattern axis.

    Attributes
    ----------
    classes:
        (m,) class id per site (class ids are dense, ``0..n_classes-1``,
        in sorted-key order — deterministic across runs).
    n_classes:
        Number of distinct classes.
    representatives:
        (n_classes,) site index of one representative per class
        (``classes[representatives[j]] == j``).
    """

    classes: np.ndarray
    n_classes: int
    representatives: np.ndarray

    @property
    def m(self) -> int:
        return int(self.classes.shape[0])

    @property
    def saturated(self) -> bool:
        """Every site is its own class — so is every ancestor's."""
        return self.n_classes == self.m

    @property
    def unique_ratio(self) -> float:
        """``n_classes / m`` (1.0 for empty slices: nothing to save)."""
        return self.n_classes / self.m if self.m else 1.0

    @classmethod
    def identity(cls, m: int) -> "NodeRepeats":
        """The saturated index: every site its own class."""
        sites = np.arange(m, dtype=np.int64)
        return cls(classes=sites, n_classes=m, representatives=sites)

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "NodeRepeats":
        """Classes from any per-site integer key vector (tip codes or
        combined child classes)."""
        m = int(keys.shape[0])
        if m == 0:
            return cls.identity(0)
        _, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        return cls(
            classes=inverse.astype(np.int64, copy=False),
            n_classes=int(first.shape[0]),
            representatives=first.astype(np.int64, copy=False),
        )

    @classmethod
    def combine(cls, left: "NodeRepeats", right: "NodeRepeats") -> "NodeRepeats":
        """The parent's classes from its two children's: sites share a
        class iff they share one at both children.  Saturated children
        short-circuit (class structure only refines upward)."""
        if left.saturated or right.saturated:
            return cls.identity(left.m)
        # n1 * n2 <= m^2 fits int64 comfortably for any real alignment.
        keys = left.classes * np.int64(right.n_classes) + right.classes
        return cls.from_keys(keys)


def repeat_profile(tip_states: np.ndarray, tree, root_edge: int = 0) -> dict:
    """Repeat statistics of one partition on one topology.

    Returns ``{"per_node": {node: unique_ratio}, "mean_unique_ratio":
    float, "min_unique_ratio": float, "n_patterns": m}`` over the inner
    nodes in postorder — the figures EXPERIMENTS.md records per dataset.
    """
    codes = tip_state_codes(tip_states)
    reps: dict[int, NodeRepeats] = {}

    def node_rep(node: int) -> NodeRepeats:
        if node not in reps:  # only leaves: postorder indexes inner nodes first
            reps[node] = NodeRepeats.from_keys(codes[node])
        return reps[node]

    per_node = {}
    for step in tree.postorder(root_edge):
        rep = NodeRepeats.combine(node_rep(step.c1), node_rep(step.c2))
        reps[step.node] = rep
        per_node[step.node] = rep.unique_ratio
    ratios = list(per_node.values()) or [1.0]
    return {
        "per_node": per_node,
        "mean_unique_ratio": float(np.mean(ratios)),
        "min_unique_ratio": float(np.min(ratios)),
        "n_patterns": int(tip_states.shape[1]),
    }
