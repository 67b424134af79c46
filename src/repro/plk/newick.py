"""Newick tree serialization.

Unrooted binary trees are conventionally written with a trifurcating root
``(A,B,(C,D));``.  The parser also accepts a bifurcating (rooted) top level
and silently unroots it by fusing the two root edges into one branch whose
length is the sum of the two (the standard convention).  Polytomies other
than the top-level trifurcation are rejected — the PLK operates strictly
on binary trees.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .tree import Tree

__all__ = ["parse_newick", "write_newick"]


@dataclass
class _ParseNode:
    name: str | None = None
    length: float | None = None
    children: list["_ParseNode"] = field(default_factory=list)


_TOKEN = re.compile(
    r"\s*(?:(?P<punct>[(),;:])|(?P<quoted>'(?:[^']|'')*')|(?P<bare>[^\s(),;:]+))"
)


def _tokenize(text: str):
    text = text.strip()
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"newick: cannot tokenize at offset {pos}: {text[pos:pos+20]!r}")
        pos = match.end()
        if match["punct"]:
            yield match["punct"]
        elif match["quoted"]:
            yield match["quoted"][1:-1].replace("''", "'")
        else:
            yield match["bare"]
    yield ";"  # sentinel for truncated input


def _parse_clade(tokens: list[str], pos: int) -> tuple[_ParseNode, int]:
    node = _ParseNode()
    if tokens[pos] == "(":
        pos += 1
        while True:
            child, pos = _parse_clade(tokens, pos)
            node.children.append(child)
            if tokens[pos] == ",":
                pos += 1
                continue
            if tokens[pos] == ")":
                pos += 1
                break
            raise ValueError(f"newick: expected ',' or ')' at token {pos}")
    if tokens[pos] not in "(),;:":
        node.name = tokens[pos]
        pos += 1
    if tokens[pos] == ":":
        node.length = float(tokens[pos + 1])
        pos += 2
    return node, pos


def parse_newick(text: str) -> tuple[Tree, np.ndarray]:
    """Parse Newick text into a :class:`Tree` and its branch lengths.

    Returns
    -------
    tree:
        The topology; leaf ids follow the order of appearance in the text.
    lengths:
        ``(n_edges,)`` branch lengths indexed by edge id.  Branches with no
        length annotation get 0.1 (a conventional neutral default).  A
        NaN or infinite length raises ``ValueError``; a negative one is
        kept (the kernel clamps every length it uses).
    """
    tokens = list(_tokenize(text))
    root, pos = _parse_clade(tokens, 0)
    if tokens[pos] != ";":
        raise ValueError("newick: trailing garbage after tree")

    # Unroot a bifurcating top level by fusing its two child edges.
    if len(root.children) == 2:
        left, right = root.children
        keep, fold = (left, right) if left.children else (right, left)
        if not keep.children:
            raise ValueError("newick: 2-taxon trees cannot be unrooted")
        extra = fold.length if fold.length is not None else 0.0
        base = keep.length if keep.length is not None else 0.0
        fold.length = (extra + base) if (fold.length is not None or keep.length is not None) else None
        keep.children.append(fold)
        root = keep
        root.length = None
    if len(root.children) != 3:
        raise ValueError(
            f"newick: top level must be bi- or trifurcating, got {len(root.children)}"
        )

    # Collect taxa in order of appearance.
    taxa: list[str] = []

    def collect(node: _ParseNode) -> None:
        if not node.children:
            if not node.name:
                raise ValueError("newick: unnamed leaf")
            taxa.append(node.name)
        for child in node.children:
            collect(child)

    collect(root)
    tree = Tree(tuple(taxa))
    lengths = np.full(tree.n_edges, 0.1)
    leaf_id = {name: i for i, name in enumerate(taxa)}
    counters = {"inner": tree.n_taxa, "edge": 0}

    def build(node: _ParseNode) -> int:
        """Create this clade's apex node in the tree; return its id."""
        if not node.children:
            return leaf_id[node.name]  # type: ignore[index]
        if len(node.children) != 2 and node is not root:
            raise ValueError("newick: internal polytomy; tree must be binary")
        me = counters["inner"]
        counters["inner"] += 1
        for child in node.children:
            kid = build(child)
            eid = counters["edge"]
            counters["edge"] += 1
            tree._link(me, kid, eid)
            if child.length is not None:
                lengths[eid] = child.length
        return me

    build(root)
    if not np.isfinite(lengths).all():
        raise ValueError("newick: branch lengths must be finite")
    tree.validate()
    return tree, lengths


def write_newick(
    tree: Tree, lengths: np.ndarray | None = None, precision: int = 6
) -> str:
    """Serialize a tree (trifurcating top level at the highest-id inner
    node, which makes round-trips deterministic)."""
    if lengths is not None and len(lengths) != tree.n_edges:
        raise ValueError("lengths array does not match edge count")

    def fmt_len(eid: int) -> str:
        if lengths is None:
            return ""
        return f":{lengths[eid]:.{precision}f}"

    def render(node: int, parent: int) -> str:
        if tree.is_leaf(node):
            name = tree.taxa[node]
            quoted = f"'{name}'" if re.search(r"[\s(),;:']", name) else name
            return quoted + fmt_len(tree.edge_between(node, parent))
        kids = [nb for nb in tree.neighbors(node) if nb != parent]
        inner = ",".join(render(k, node) for k in kids)
        tail = fmt_len(tree.edge_between(node, parent)) if parent >= 0 else ""
        return f"({inner})" + tail

    root = tree.n_nodes - 1
    return render(root, -1) + ";"
