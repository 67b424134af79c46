"""Seeded input generator for the benchmark.

Everything the program under test receives is made here, from the
``--seed`` alone, with plain numpy and without importing ``repro``: a
random binary tree with branch lengths, a DNA alignment simulated on it
under JC69 with per-partition rate multipliers and Gamma site rates, and a
RAxML-style partition file.  The program parses the written files through
its public readers, so a change to ``repro``'s own simulators can never
change the benchmark's inputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = ["Shape", "Inputs", "generate", "gtr_parameters", "write"]

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


@dataclass(frozen=True)
class Shape:
    """Input geometry of one workload."""

    taxa: int
    partitions: int
    columns: int  # per partition

    @property
    def sites(self) -> int:
        return self.partitions * self.columns


@dataclass(frozen=True)
class Inputs:
    """Generated input texts (what gets written to disk)."""

    phylip: str
    newick: str
    partitions: str
    shape: Shape


def _balanced_clades(n_taxa: int, rng: np.random.Generator):
    """A rooted binary tree of nested ``(children, length)`` tuples
    (leaves are ``None``) whose shape depends only on ``n_taxa``: halves
    split recursively.  The shape is fixed so that the number of SPR
    candidates, and with it the work per replicate, does not change with
    the seed; the branch lengths and the data do."""

    def clade(n: int):
        if n == 1:
            return (None, float(rng.uniform(0.1, 0.16)))
        half = n // 2
        return ((clade(half), clade(n - half)), float(rng.uniform(0.1, 0.16)))

    return (clade(n_taxa // 2), clade(n_taxa - n_taxa // 2))


def _simulate(root, n_sites, rates, rng) -> list[np.ndarray]:
    """JC69 states per leaf, in left-to-right leaf order."""
    leaves: list[np.ndarray] = []

    def descend(clade, parent_states):
        children, length = clade
        # JC69: P(unchanged) = 1/4 + 3/4 exp(-4/3 r t); a change picks one
        # of the three other bases uniformly.
        stay = 0.25 + 0.75 * np.exp(-4.0 / 3.0 * rates * length)
        move = rng.random(n_sites) >= stay
        shift = rng.integers(1, 4, size=n_sites)
        states = np.where(move, (parent_states + shift) % 4, parent_states)
        if children is None:
            leaves.append(states)
        else:
            for child in children:
                descend(child, states)

    start = rng.integers(0, 4, size=n_sites)
    for clade in root:
        descend(clade, start)
    return leaves


def _distinct_columns(root, n_columns: int, speed: float, rng) -> np.ndarray:
    """``(taxa, n_columns)`` states, every column distinct."""
    kept: dict[bytes, np.ndarray] = {}
    while len(kept) < n_columns:
        rates = speed * rng.gamma(4.0, 0.25, size=n_columns)
        for column in np.stack(_simulate(root, n_columns, rates, rng), axis=1):
            kept.setdefault(column.tobytes(), column)
            if len(kept) == n_columns:
                break
    return np.stack(list(kept.values()), axis=1)


def _newick(root) -> str:
    counter = iter(range(10**6))

    def render(clade) -> str:
        children, length = clade
        if children is None:
            label = f"t{next(counter):02d}"
        else:
            label = "(" + ",".join(render(c) for c in children) + ")"
        return f"{label}:{length:.6f}"

    return "(" + ",".join(render(c) for c in root) + ");"


def generate(shape: Shape, seed: int) -> Inputs:
    """The inputs for one ``(shape, seed)``; the same pair gives the same
    texts byte for byte."""
    rng = np.random.default_rng([seed, shape.taxa, shape.partitions, shape.columns])
    root = _balanced_clades(shape.taxa, rng)
    # Per-partition speed (genes evolve at different rates) times a
    # Gamma(4) rate per site.  A simulated column equal to one already kept
    # in its partition is dropped and more are drawn, so every partition of
    # every seed has exactly ``columns`` distinct patterns: the kernel work
    # per unit does not depend on the seed.
    part_speed = rng.uniform(0.9, 1.1, size=shape.partitions)
    leaves = np.concatenate(
        [_distinct_columns(root, shape.columns, speed, rng) for speed in part_speed], axis=1)
    # Leaf names follow newick appearance order, so the alignment rows and
    # the parsed tree's leaf ids agree.
    rows = [f"t{i:02d} " + _BASES[s].tobytes().decode() for i, s in enumerate(leaves)]
    phylip = f"{shape.taxa} {shape.sites}\n" + "\n".join(rows) + "\n"
    parts = "\n".join(
        f"DNA, p{p} = {p * shape.columns + 1}-{(p + 1) * shape.columns}"
        for p in range(shape.partitions)
    )
    return Inputs(phylip=phylip, newick=_newick(root), partitions=parts + "\n", shape=shape)


def gtr_parameters(shape: Shape, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-partition GTR ``(exchange rates (6,), base frequencies (4,))``
    for workloads that fix their models instead of fitting them."""
    rng = np.random.default_rng([seed, shape.partitions, 6])
    return [
        (rng.uniform(0.5, 4.0, size=6), rng.dirichlet(np.full(4, 20.0)))
        for _ in range(shape.partitions)
    ]


def write(inputs: Inputs, directory: str) -> dict:
    """Write the three files; returns their paths keyed like a ``files``
    dataset spec of ``repro.serve``."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "alignment": os.path.join(directory, "alignment.phy"),
        "tree": os.path.join(directory, "tree.nwk"),
        "partitions": os.path.join(directory, "partitions.txt"),
    }
    for key, text in (("alignment", inputs.phylip), ("tree", inputs.newick),
                      ("partitions", inputs.partitions)):
        with open(paths[key], "w") as fh:
            fh.write(text)
    return paths
