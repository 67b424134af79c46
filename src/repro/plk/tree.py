"""Unrooted binary tree topology.

The PLK operates on unrooted binary trees: the n taxa are leaves, the n-2
inner nodes have degree 3, and there are 2n-3 branches.  The likelihood is
evaluated at a *virtual root* placed on any branch; time-reversibility
makes the score invariant to that placement (a key invariant our property
tests exercise).

Node ids: leaves are ``0 .. n-1`` (index into :attr:`Tree.taxa`), inner
nodes are ``n .. 2n-3``.  Edge ids are ``0 .. 2n-4`` and remain stable
across topology moves (moves reuse the ids of the edges they delete), so
branch-length arrays indexed by edge id survive SPR/NNI rearrangements.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Tree", "TraversalStep"]


class TraversalStep:
    """One pruning step: compute node ``node``'s conditional vector from
    children ``c1``/``c2`` across edges ``e1``/``e2``.

    ``parent`` is the third neighbour, the one the vector points toward
    (for an endpoint of the root edge, the mate across the root), and
    ``sig`` is ``(c1, e1, c2, e2, parent)``: the inputs and orientation a
    stored vector was computed from.  Steps are built once per cached
    traversal, so readers pay plain attribute loads."""

    __slots__ = ("node", "c1", "e1", "c2", "e2", "parent", "sig")

    def __init__(self, node: int, c1: int, e1: int, c2: int, e2: int, parent: int):
        self.node = node
        self.c1 = c1
        self.e1 = e1
        self.c2 = c2
        self.e2 = e2
        self.parent = parent
        self.sig = (c1, e1, c2, e2, parent)


class Tree:
    """A mutable unrooted binary tree.

    Use :meth:`random`, :meth:`from_newick` or
    :func:`repro.seqgen.randomtree.yule_tree` to build instances; mutate
    only through the provided topology operations so invariants hold.
    """

    def __init__(self, taxa: tuple[str, ...]):
        n = len(taxa)
        if n < 3:
            raise ValueError("an unrooted binary tree needs >= 3 taxa")
        if len(set(taxa)) != n:
            raise ValueError("duplicate taxon names")
        self.taxa: tuple[str, ...] = tuple(taxa)
        self.n_taxa: int = n
        self.n_nodes: int = 2 * n - 2
        self.n_edges: int = 2 * n - 3
        # adjacency: node -> {neighbor: edge_id}
        self._adj: list[dict[int, int]] = [dict() for _ in range(self.n_nodes)]
        # edge id -> (u, v); -1 marks a slot temporarily freed mid-move
        self._edge_nodes: list[tuple[int, int]] = [(-1, -1)] * self.n_edges
        # topology version: bumped on every link/unlink; keys the traversal
        # caches shared by all partitions' likelihood engines.
        self._version: int = 0
        self._postorder_cache: dict[int, list["TraversalStep"]] = {}
        self._orientation_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def random(cls, taxa: tuple[str, ...], rng: np.random.Generator) -> "Tree":
        """Uniform-ish random topology by stepwise random addition."""
        tree = cls(taxa)
        n = tree.n_taxa
        # Start with the 3-taxon star around inner node n.
        tree._link(0, n, 0)
        tree._link(1, n, 1)
        tree._link(2, n, 2)
        next_inner = n + 1
        next_edge = 3
        for leaf in range(3, n):
            # Pick a random existing edge and subdivide it with a new inner
            # node to which the new leaf attaches.
            edge = int(rng.integers(0, next_edge))
            u, v = tree._edge_nodes[edge]
            tree._unlink(u, v)
            mid = next_inner
            next_inner += 1
            tree._link(u, mid, edge)
            tree._link(v, mid, next_edge)
            tree._link(leaf, mid, next_edge + 1)
            next_edge += 2
        tree.validate()
        return tree

    def copy(self) -> "Tree":
        dup = Tree.__new__(Tree)
        dup.taxa = self.taxa
        dup.n_taxa = self.n_taxa
        dup.n_nodes = self.n_nodes
        dup.n_edges = self.n_edges
        dup._adj = [dict(d) for d in self._adj]
        dup._edge_nodes = list(self._edge_nodes)
        dup._version = 0
        dup._postorder_cache = {}
        dup._orientation_cache = {}
        return dup

    # ------------------------------------------------------------------
    # Low-level structure
    # ------------------------------------------------------------------

    def _link(self, u: int, v: int, edge_id: int) -> None:
        if v in self._adj[u]:
            raise ValueError(f"nodes {u},{v} already connected")
        self._adj[u][v] = edge_id
        self._adj[v][u] = edge_id
        self._edge_nodes[edge_id] = (u, v)
        self._bump_version()

    def _unlink(self, u: int, v: int) -> int:
        edge_id = self._adj[u].pop(v)
        del self._adj[v][u]
        self._edge_nodes[edge_id] = (-1, -1)
        self._bump_version()
        return edge_id

    def _bump_version(self) -> None:
        self._version += 1
        if self._postorder_cache:
            self._postorder_cache.clear()
        if self._orientation_cache:
            self._orientation_cache.clear()

    def is_leaf(self, node: int) -> bool:
        return node < self.n_taxa

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(self._adj[node])

    def edge_between(self, u: int, v: int) -> int:
        """Edge id connecting two adjacent nodes (KeyError otherwise)."""
        return self._adj[u][v]

    def edge_nodes(self, edge_id: int) -> tuple[int, int]:
        u, v = self._edge_nodes[edge_id]
        if u < 0:
            raise KeyError(f"edge {edge_id} is not present")
        return u, v

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as ``(edge_id, u, v)`` with u < v, ascending id."""
        return [
            (eid, min(u, v), max(u, v))
            for eid, (u, v) in enumerate(self._edge_nodes)
            if u >= 0
        ]

    def validate(self) -> None:
        """Assert binary-tree invariants; raises on violation."""
        for node in range(self.n_nodes):
            deg = self.degree(node)
            expect = 1 if self.is_leaf(node) else 3
            if deg != expect:
                raise AssertionError(f"node {node}: degree {deg}, expected {expect}")
        present = [e for e in self._edge_nodes if e[0] >= 0]
        if len(present) != self.n_edges:
            raise AssertionError(
                f"{len(present)} edges present, expected {self.n_edges}"
            )
        # Connectivity: BFS from node 0 must reach all nodes.
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt in self._adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != self.n_nodes:
            raise AssertionError("tree is disconnected")

    # ------------------------------------------------------------------
    # Orientation and traversal
    # ------------------------------------------------------------------

    def orientation(self, root_edge: int) -> np.ndarray:
        """Parent pointers when the virtual root sits on ``root_edge``.

        Returns ``(n_nodes,)`` int array; the two endpoints of the root
        edge have parent -1 (they look across the root at each other).
        """
        cached = self._orientation_cache.get(root_edge)
        if cached is not None:
            return cached
        parent = np.full(self.n_nodes, -2, dtype=np.int64)
        a, b = self.edge_nodes(root_edge)
        parent[a] = -1
        parent[b] = -1
        stack = [a, b]
        while stack:
            cur = stack.pop()
            for nxt in self._adj[cur]:
                if parent[nxt] == -2 and not (cur in (a, b) and nxt in (a, b)):
                    parent[nxt] = cur
                    stack.append(nxt)
        parent.setflags(write=False)
        self._orientation_cache[root_edge] = parent
        return parent

    def postorder(self, root_edge: int) -> list[TraversalStep]:
        """Full pruning schedule toward the virtual root on ``root_edge``.

        Yields a :class:`TraversalStep` for every *inner* node, children
        before parents, covering both root-edge subtrees.  This is the
        "full tree traversal list" the paper's master thread builds for the
        model-optimization phase.
        """
        cached = self._postorder_cache.get(root_edge)
        if cached is not None:
            return cached
        parent = self.orientation(root_edge)
        a, b = self.edge_nodes(root_edge)
        steps: list[TraversalStep] = []
        stack: list[tuple[int, bool]] = [(b, False), (a, False)]
        seen: set[int] = set()
        while stack:
            node, expanded = stack.pop()
            if self.is_leaf(node):
                continue
            up = int(parent[node])
            if up == -1:
                # Root-edge endpoints: the mate across the root is not a child.
                up = b if node == a else a
            kids = [nb for nb in self._adj[node] if nb != up]
            if len(kids) != 2:
                raise AssertionError(f"inner node {node} has {len(kids)} children")
            if expanded:
                c1, c2 = kids
                steps.append(
                    TraversalStep(
                        node, c1, self._adj[node][c1], c2, self._adj[node][c2], up
                    )
                )
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                stack.extend((kid, False) for kid in kids)
        self._postorder_cache[root_edge] = steps
        return steps

    def leaves_under(self, node: int, parent: int) -> set[int]:
        """Leaf ids in the subtree hanging from ``node`` away from ``parent``."""
        out: set[int] = set()
        stack = [(node, parent)]
        while stack:
            cur, par = stack.pop()
            if self.is_leaf(cur):
                out.add(cur)
                continue
            for nxt in self._adj[cur]:
                if nxt != par:
                    stack.append((nxt, cur))
        return out

    # ------------------------------------------------------------------
    # Splits / comparison
    # ------------------------------------------------------------------

    def splits(self) -> set[frozenset[int]]:
        """Non-trivial bipartitions (as the smaller-side leaf set, with
        ties broken by excluding leaf 0) — the standard topology
        fingerprint for Robinson-Foulds distances."""
        out: set[frozenset[int]] = set()
        for _eid, u, v in self.edges():
            if self.is_leaf(u) or self.is_leaf(v):
                continue
            side = self.leaves_under(u, v)
            if 0 in side:
                side = set(range(self.n_taxa)) - side
            if 1 < len(side) < self.n_taxa - 1:
                out.add(frozenset(side))
        return out

    def _split_lengths(self, lengths: np.ndarray) -> dict[frozenset[int], float]:
        """Map every bipartition (canonical smaller/0-excluded side,
        including the trivial single-leaf splits) to its branch length."""
        out: dict[frozenset[int], float] = {}
        full = frozenset(range(self.n_taxa))
        for eid, u, v in self.edges():
            if self.is_leaf(u):
                side = frozenset({u})
            elif self.is_leaf(v):
                side = frozenset({v})
            else:
                side = frozenset(self.leaves_under(u, v))
            if 0 in side:
                side = full - side
            out[side] = float(lengths[eid])
        return out

    def branch_score_distance(
        self,
        lengths: np.ndarray,
        other: "Tree",
        other_lengths: np.ndarray,
    ) -> float:
        """Kuhner-Felsenstein branch-score distance: the Euclidean norm of
        per-split branch-length differences, with splits present in only
        one tree contributing their full length."""
        if set(self.taxa) != set(other.taxa):
            raise ValueError("trees are over different taxon sets")
        mine = self._split_lengths(lengths)
        remap = {i: self.taxa.index(name) for i, name in enumerate(other.taxa)}
        full = frozenset(range(self.n_taxa))
        theirs: dict[frozenset[int], float] = {}
        for split, length in other._split_lengths(other_lengths).items():
            mapped = frozenset(remap[x] for x in split)
            if 0 in mapped:
                mapped = full - mapped
            theirs[mapped] = length
        total = 0.0
        for split in mine.keys() | theirs.keys():
            diff = mine.get(split, 0.0) - theirs.get(split, 0.0)
            total += diff * diff
        return float(np.sqrt(total))

    def robinson_foulds(self, other: "Tree") -> int:
        """Unweighted RF distance (requires identical taxon sets)."""
        if set(self.taxa) != set(other.taxa):
            raise ValueError("trees are over different taxon sets")
        # Map other's leaf ids into this tree's numbering via names.
        remap = {i: self.taxa.index(name) for i, name in enumerate(other.taxa)}
        mine = self.splits()
        theirs = {
            frozenset(remap[x] for x in split) for split in other.splits()
        }
        theirs = {
            s if 0 not in s else frozenset(range(self.n_taxa)) - s for s in theirs
        }
        return len(mine ^ theirs)
