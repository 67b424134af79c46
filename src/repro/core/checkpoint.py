"""Analysis checkpointing: serialize an engine's optimized state.

Long partitioned analyses (the paper's 2.25-million-CPU-hour scale) need
restartability.  A checkpoint captures everything the optimizers have
learned — topology, per-partition branch lengths, substitution models,
alpha, pinv, proportional scalers, the Gamma category count — as plain JSON, and can rebuild an
equivalent engine against the same alignment later.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..plk.models import SubstitutionModel
from ..plk.newick import write_newick
from ..plk.partition import PartitionedAlignment
from .engine import PartitionedEngine

__all__ = ["engine_to_checkpoint", "engine_from_checkpoint", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1


def engine_to_checkpoint(engine: PartitionedEngine) -> dict[str, Any]:
    """Snapshot an engine's state as a JSON-serializable dict."""
    lengths = engine.branch_lengths()  # (E, P)
    return {
        "format_version": FORMAT_VERSION,
        "branch_mode": engine.branch_mode,
        "categories": engine.categories,
        # the explicit edge list preserves node/edge numbering exactly;
        # the Newick string is included for human inspection only
        "edges": [[eid, u, v] for eid, u, v in engine.tree.edges()],
        "tree": write_newick(engine.tree, precision=12),
        "taxa": list(engine.tree.taxa),
        "scalers": engine.scalers.tolist(),
        "global_lengths": engine.global_lengths.tolist(),
        "partitions": [
            {
                "name": engine.data.scheme[p].name,
                "datatype": part.data.partition.datatype.name,
                "alpha": part.alpha,
                "pinv": part.pinv,
                "rates": part.model.rates.tolist(),
                "frequencies": part.model.frequencies.tolist(),
                "branch_lengths": lengths[:, p].tolist(),
            }
            for p, part in enumerate(engine.parts)
        ],
    }


def engine_from_checkpoint(
    data: PartitionedAlignment, state: dict[str, Any]
) -> PartitionedEngine:
    """Rebuild an engine from a checkpoint against the same alignment.

    Validates structural compatibility (taxa, partition count/names) and
    restores every optimized parameter; likelihood arrays are recomputed
    lazily on first evaluation.
    """
    if state.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {state.get('format_version')!r}"
        )
    if len(state["partitions"]) != data.n_partitions:
        raise ValueError(
            f"checkpoint has {len(state['partitions'])} partitions, "
            f"alignment has {data.n_partitions}"
        )
    for entry, part in zip(state["partitions"], data.scheme):
        if entry["name"] != part.name:
            raise ValueError(
                f"partition name mismatch: {entry['name']!r} vs {part.name!r}"
            )

    if tuple(state["taxa"]) != tuple(data.taxa):
        raise ValueError("checkpoint taxa do not match the alignment's")
    from ..plk.tree import Tree

    tree = Tree(tuple(state["taxa"]))
    for eid, u, v in state["edges"]:
        tree._link(int(u), int(v), int(eid))
    tree.validate()

    models = []
    alphas = []
    for entry, block in zip(state["partitions"], data.data):
        models.append(
            SubstitutionModel(
                block.partition.datatype,
                np.asarray(entry["rates"], dtype=np.float64),
                np.asarray(entry["frequencies"], dtype=np.float64),
            )
        )
        alphas.append(float(entry["alpha"]))

    engine = PartitionedEngine(
        data,
        tree,
        models=models,
        alphas=alphas,
        branch_mode=state["branch_mode"],
        # Files written before the category count was stored used 4.
        categories=int(state.get("categories", 4)),
    )
    engine._global_lengths[:] = np.asarray(state["global_lengths"])
    if state["branch_mode"] == "proportional":
        for p, s in enumerate(state["scalers"]):
            engine.set_scaler(p, float(s))
        engine.set_all_branch_lengths(np.asarray(state["global_lengths"]))
    else:
        for p, entry in enumerate(state["partitions"]):
            engine.parts[p].set_branch_lengths(
                np.asarray(entry["branch_lengths"], dtype=np.float64)
            )
    for p, entry in enumerate(state["partitions"]):
        if entry.get("pinv", 0.0):
            engine.parts[p].pinv = float(entry["pinv"])
    return engine


def save_checkpoint(engine: PartitionedEngine, path) -> None:
    """Write a checkpoint file (JSON)."""
    with open(path, "w") as fh:
        json.dump(engine_to_checkpoint(engine), fh, indent=1)


def load_checkpoint(data: PartitionedAlignment, path) -> PartitionedEngine:
    """Rebuild an engine from a checkpoint file."""
    with open(path) as fh:
        return engine_from_checkpoint(data, json.load(fh))
