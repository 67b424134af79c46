"""Cross-request caching of analysis contexts.

Building a request's working set is the expensive part of a one-shot
run: simulate/parse the alignment, pattern-compress it, eigendecompose
every model.  The service keys all of that by the *dataset fingerprint*
(a SHA-1 over the canonical-JSON dataset spec) and reuses it across
requests and tenants:

* the :class:`AnalysisContext` holds the alignment, tree, initial
  parameters and layout; the warm-team pool keys teams by the same
  fingerprint, so a context cache hit usually becomes a pool hit too;
* model eigensystems go through the process-wide
  :meth:`repro.plk.eigen.EigenSystem.for_model` memo — as long as the
  context (and its model objects) stays cached, every engine built from
  it, including forked worker children, shares one decomposition.

Eviction is LRU under a byte budget (``max_bytes``): contexts are
dropped least-recently-used-first once tip/weight storage exceeds the
budget.  Dropping a context does not tear down a warm team that is
still using it — the pool holds its own references — it only forces the
next request for that dataset to rebuild.
"""
from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

__all__ = ["AnalysisContext", "ServeCache", "fingerprint"]


def fingerprint(spec: dict) -> str:
    """Canonical fingerprint of a dataset spec: SHA-1 over sorted-key
    JSON, so semantically identical specs hash identically regardless of
    key order."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


@dataclass
class AnalysisContext:
    """Everything needed to build an engine for one dataset, plus the
    layout the cost model prices jobs against."""

    key: str
    spec: dict
    data: object  # PartitionedAlignment
    tree: object  # Tree
    lengths: np.ndarray
    models: list
    alphas: list[float]
    layout: object  # PartitionLayout
    nbytes: int = 0
    hits: int = field(default=0)

    @property
    def n_partitions(self) -> int:
        return self.data.n_partitions


def _read(spec: dict) -> tuple:
    """``(data, tree, lengths, models, alphas)`` of a dataset spec."""
    from pathlib import Path

    from ..plk import SubstitutionModel, parse_newick, read_partitioned_alignment
    from ..seqgen import profiling_workload

    kind = spec.get("kind", "simulated")
    if kind == "simulated":
        return profiling_workload(
            int(spec.get("taxa", 8)), int(spec.get("sites", 400)),
            int(spec.get("partitions", 4)), int(spec.get("seed", 42)),
        )
    if kind == "files":
        tree, lengths = parse_newick(Path(spec["tree"]).read_text())
        data = read_partitioned_alignment(
            spec["alignment"], spec.get("partitions"), tree.taxa
        )
        models = [SubstitutionModel.random_gtr(p) for p in range(data.n_partitions)]
        return data, tree, lengths, models, [1.0] * data.n_partitions
    raise ValueError(
        f"unknown dataset kind {kind!r} (expected one of ['files', 'simulated'])"
    )


def build_context(spec: dict) -> AnalysisContext:
    """Build an :class:`AnalysisContext` from a dataset spec dict.

    ``spec["kind"]`` selects the reader: ``"simulated"`` (taxa, sites,
    partitions, seed — :func:`repro.seqgen.profiling_workload`, the CLI's
    team workload) or ``"files"`` (alignment, tree, optional partitions
    paths — :func:`repro.plk.read_partitioned_alignment`, rows matched to
    the tree's leaves by taxon name; a differing taxon set raises
    ``ValueError``).
    """
    from ..parallel.distribution import PartitionLayout
    from ..plk.eigen import EigenSystem

    data, tree, lengths, models, alphas = _read(spec)
    ctx = AnalysisContext(
        key=fingerprint(spec),
        spec=spec,
        data=data,
        tree=tree,
        lengths=lengths,
        models=models,
        alphas=alphas,
        layout=PartitionLayout.from_alignment(data),
        nbytes=sum(p.tip_states.nbytes + p.weights.nbytes for p in data.data),
    )
    # Warm the process-wide eigensystem memo now, off any engine's
    # critical path; subsequent PartitionLikelihood builds (and forked
    # children) reuse these decompositions by model identity.
    for model in ctx.models:
        EigenSystem.for_model(model)
    return ctx


class ServeCache:
    """LRU context cache under a byte budget (memory-pressure eviction).

    ``max_bytes=None`` means unbounded.  All methods are thread-safe;
    concurrent misses for the same key may both build, last insert wins
    (builds are deterministic per spec, so either result is correct).
    """

    def __init__(self, max_bytes: int | None = None):
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, AnalysisContext]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, spec: dict) -> AnalysisContext:
        key = fingerprint(spec)
        with self._lock:
            ctx = self._entries.get(key)
            if ctx is not None:
                self._entries.move_to_end(key)
                ctx.hits += 1
                self.hits += 1
                return ctx
            self.misses += 1
        ctx = build_context(spec)  # build outside the lock (slow)
        with self._lock:
            self._entries[key] = ctx
            self._entries.move_to_end(key)
            self._evict_locked()
        return ctx

    def _evict_locked(self) -> None:
        if self.max_bytes is None:
            return
        while len(self._entries) > 1 and self.total_bytes() > self.max_bytes:
            self._entries.popitem(last=False)
            self.evictions += 1

    def total_bytes(self) -> int:
        return sum(c.nbytes for c in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, spec: dict) -> bool:
        return fingerprint(spec) in self._entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes(),
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
