"""Which partitions share one likelihood stack, and the stacks of a scheme.

A kernel call costs a fixed dispatch (argument checks, temporaries, the
BLAS call set-up) plus work proportional to the patterns it covers.  At
the few hundred patterns per partition of a typical gene the dispatch is
most of the call, so :class:`~repro.plk.likelihood.PartitionLikelihood`
runs every op over a padded ``(P, K, m, s)`` stack of partitions in ONE
call.  Padding is not free: every member is computed at the widest
member's width.  The rule here prices both in the cost units of
:func:`repro.parallel.distribution.pattern_weight`:

* partitions are stacked by state count (a stack has one ``s``);
* within one state count they are taken in descending width, and a
  partition joins the current stack only if the padding it adds
  (``(W - w) * pattern_weight(s)`` for a stack of width ``W``) costs less
  than the one dispatch per op it saves (:data:`DISPATCH_PATTERNS` DNA
  patterns of work, measured in EXPERIMENTS.md STACK).

Equal widths always form one stack — every uniform ``pXXXX`` scheme:

>>> stack_groups([120, 120, 120, 120], [4, 4, 4, 4])
[[0, 1, 2, 3]]

DNA and AA never share a stack, and a narrow AA partition (25x the cost
per pattern) pays for far less padding than a DNA one:

>>> stack_groups([300, 120, 300, 280], [4, 20, 4, 20])
[[0, 2], [1], [3]]

The 34 genes of the r125_19839 stand-in (148 to 2,705 patterns) fall
into four stacks — (members, widest, narrowest) — instead of 34 calls
per op:

>>> import numpy as np
>>> from repro.seqgen.datasets import variable_lengths
>>> widths = variable_lengths(19_839, 34, 148, 2_705, np.random.default_rng(7))
>>> groups = stack_groups(widths, [4] * 34)
>>> [(len(g), int(max(widths[g])), int(min(widths[g]))) for g in groups]
[(24, 497, 148), (4, 2054, 1443), (5, 1169, 727), (1, 2705, 2705)]
"""
from __future__ import annotations

import numpy as np

from .likelihood import EdgeWorkspace, PartitionLikelihood, PartitionView, check_column
from .models import SubstitutionModel
from .partition import PartitionData
from .tree import Tree

__all__ = ["DISPATCH_PATTERNS", "stack_groups", "PartitionStacks"]

#: One kernel dispatch priced in DNA patterns of work (EXPERIMENTS.md
#: STACK: 23-26 us fixed cost per call against ~41 ns per DNA pattern
#: and op, measured over full traversals: 560-650 patterns).
DISPATCH_PATTERNS = 650


def stack_groups(widths, states, categories: int = 4) -> list[list[int]]:
    """Partition indices grouped into stacks (each group ascending; groups
    ordered by their first member)."""
    from ..parallel.distribution import pattern_weight

    widths = [int(w) for w in widths]
    states = [int(s) for s in states]
    if len(widths) != len(states):
        raise ValueError("need one state count per width")
    dispatch = DISPATCH_PATTERNS * pattern_weight(4, categories)
    groups: list[list[int]] = []
    for s in sorted(set(states)):
        weight = pattern_weight(s, categories)
        members = sorted((i for i, x in enumerate(states) if x == s), key=lambda i: -widths[i])
        current: list[int] = []
        for i in members:
            if current and (widths[current[0]] - widths[i]) * weight < dispatch:
                current.append(i)
            else:
                current = [i]
                groups.append(current)
    return sorted((sorted(g) for g in groups), key=lambda g: g[0])


def _columns(parts: np.ndarray):
    """Partition indices as an index into the columns of an ``(E, P)``
    array: a slice (a view, where a fancy index would copy) when they are
    consecutive."""
    lo, hi = int(parts[0]), int(parts[-1]) + 1
    return slice(lo, hi) if hi - lo == len(parts) else parts


class PartitionStacks:
    """The partitions of one scheme on one tree, held as stacks.

    Vector methods take an ``active`` set over *partitions* (None = all,
    a boolean mask or a sequence of indices), split it per stack, make
    one call per stack with active members and scatter the per-member
    results into ``(P,)`` arrays (zero outside the active set).
    ``parts[p]`` is partition p's :class:`PartitionView`.
    """

    def __init__(
        self,
        datas: list[PartitionData],
        tree: Tree,
        models: list[SubstitutionModel],
        alphas: list[float],
        categories: int = 4,
        recorder=None,
    ):
        self.n_partitions = len(datas)
        groups = stack_groups(
            [d.n_patterns for d in datas], [d.states for d in datas], categories
        )
        self.stacks = [
            PartitionLikelihood(
                [datas[i] for i in g], tree, [models[i] for i in g],
                alpha=[alphas[i] for i in g], categories=categories, index=g,
                recorder=recorder,
            )
            for g in groups
        ]
        self._members = [np.asarray(g, dtype=np.int64) for g in groups]
        self._columns = [_columns(m) for m in self._members]
        self.parts: list[PartitionView] = [None] * self.n_partitions  # type: ignore[list-item]
        for stack, members in zip(self.stacks, self._members):
            for slot, p in enumerate(members.tolist()):
                self.parts[p] = PartitionView(stack, slot)

    def _split(self, active):
        """``(stack index, stack, member active set, partition indices)``
        for every stack with at least one active member."""
        if active is None:
            for k, (stack, members) in enumerate(zip(self.stacks, self._members)):
                yield k, stack, None, members
            return
        flags = np.asarray(active)
        if flags.dtype != bool:
            index = flags.astype(np.int64)
            flags = np.zeros(self.n_partitions, dtype=bool)
            flags[index] = True
        for k, (stack, members) in enumerate(zip(self.stacks, self._members)):
            sub = flags[members]
            if sub.all():
                yield k, stack, None, members
            elif sub.any():
                yield k, stack, sub, members[sub]

    # -- likelihood ---------------------------------------------------------

    def loglikelihoods(self, root_edge: int = 0, active=None) -> np.ndarray:
        out = np.zeros(self.n_partitions)
        for _, stack, sub, parts in self._split(active):
            out[parts] = stack.loglikelihoods(root_edge, sub)
        return out

    def regraft_loglikelihoods(self, prune_edge: int, targets) -> np.ndarray:
        """``(T, P)`` lazy-SPR log-likelihoods of regrafting the subtree on
        ``prune_edge`` into each target edge (one call per stack; see
        :meth:`~repro.plk.likelihood.PartitionLikelihood.regraft_loglikelihoods`)."""
        out = np.zeros((len(targets), self.n_partitions))
        for stack, members in zip(self.stacks, self._members):
            out[:, members] = stack.regraft_loglikelihoods(prune_edge, targets)
        return out

    def prepare_edges(self, edges, active=None) -> list[EdgeWorkspace | None]:
        """One edge-stacked workspace per stack (None where no member is
        active)."""
        out: list[EdgeWorkspace | None] = [None] * len(self.stacks)
        for k, stack, sub, _ in self._split(active):
            out[k] = stack.prepare_edges(edges, sub)
        return out

    def _edge_stacks(self, workspaces, active):
        """``(stack, workspace, columns, lane mask)`` per stack with an
        active lane: ``columns`` index the workspace's partitions in an
        ``(E, P)`` array; ``active`` is an ``(E, P)`` mask over partitions
        (None: every prepared lane), the lane mask None for all lanes."""
        for stack, members, columns, ws in zip(
            self.stacks, self._members, self._columns, workspaces
        ):
            if ws is None:
                continue
            parts = columns if len(ws.slots) == stack.n_slots else _columns(members[ws.slots])
            lanes = None if active is None else active[:, parts]
            if lanes is not None:
                if not lanes.any():
                    continue
                if lanes.all():
                    lanes = None
            yield stack, ws, parts, lanes

    def _whole(self, workspaces) -> EdgeWorkspace | None:
        """The workspace of the one stack when it holds every partition:
        its ``(E, A)`` lanes are then the ``(E, P)`` ones, so a round on
        it needs no split and no scatter (None otherwise)."""
        ws = workspaces[0]
        if len(workspaces) == 1 and ws is not None and len(ws.slots) == self.n_partitions:
            return ws
        return None

    def edge_derivatives(self, workspaces, z: np.ndarray, active=None):
        """(d1, d2), each ``(E, P)``, at the ``(E, P)`` lengths ``z`` for
        the lanes of the ``(E, P)`` mask ``active`` (default: every
        prepared lane); 0 elsewhere."""
        ws = self._whole(workspaces)
        if ws is not None:
            return self.stacks[0].edge_derivatives(ws, z, active)
        d1 = np.zeros(z.shape)
        d2 = np.zeros(z.shape)
        for stack, ws, parts, lanes in self._edge_stacks(workspaces, active):
            d1[:, parts], d2[:, parts] = stack.edge_derivatives(ws, z[:, parts], lanes)
        return d1, d2

    def edge_loglikelihoods(self, workspaces, z: np.ndarray, active=None) -> np.ndarray:
        """``(E, P)`` log-likelihoods at the ``(E, P)`` lengths ``z``, each
        a function of its own edge's length alone."""
        ws = self._whole(workspaces)
        if ws is not None:
            return self.stacks[0].edge_loglikelihoods(ws, z, active)
        out = np.zeros(z.shape)
        for stack, ws, parts, lanes in self._edge_stacks(workspaces, active):
            out[:, parts] = stack.edge_loglikelihoods(ws, z[:, parts], lanes)
        return out

    # -- parameters -----------------------------------------------------------

    def branch_lengths(self) -> np.ndarray:
        """(n_edges, n_partitions) matrix of current lengths."""
        out = np.empty((self.stacks[0].tree.n_edges, self.n_partitions))
        for stack, members in zip(self.stacks, self._members):
            out[:, members] = stack.lengths
        return out

    def gather(self, name: str) -> np.ndarray:
        """``(P,)`` per-member parameter array ``name`` (``"alphas"`` or
        ``"pinvs"``) gathered from every stack."""
        out = np.empty(self.n_partitions)
        for stack, members in zip(self.stacks, self._members):
            out[members] = getattr(stack, name)
        return out

    def set_branch_length(self, edge: int, values, active=None) -> None:
        """Set ``edge``'s length: a scalar for every active partition, or
        a ``(P,)`` vector read at the active partitions."""
        values = np.asarray(values, dtype=np.float64)
        for _, stack, sub, parts in self._split(active):
            stack.set_branch_length(edge, values if values.ndim == 0 else values[parts], sub)

    def set_branch_lengths(self, lengths: np.ndarray, active=None, edges=None) -> None:
        """Replace whole length vectors: ``(n_edges,)`` shared, or
        ``(n_edges, P)`` one column per partition; with ``edges``, only
        those rows (``lengths`` has one row per listed edge)."""
        lengths = np.asarray(lengths, dtype=np.float64)
        for _, stack, sub, parts in self._split(active):
            stack.set_branch_lengths(
                lengths if lengths.ndim == 1 else lengths[:, parts], sub, edges
            )

    def set_alphas(self, values: np.ndarray, active=None) -> None:
        values = np.asarray(values, dtype=np.float64)
        for _, stack, sub, parts in self._split(active):
            stack.set_alphas(values[parts], sub)

    def set_pinvs(self, values: np.ndarray, active=None) -> None:
        values = np.asarray(values, dtype=np.float64)
        for _, stack, sub, parts in self._split(active):
            stack.set_pinvs(values[parts], sub)

    def column(self, kind: str, index: int, active=None) -> np.ndarray:
        """``(P,)`` model-parameter column ``index`` of ``kind`` (see
        :data:`~repro.plk.likelihood.COLUMN_KINDS`) of the active
        partitions, 1.0 elsewhere."""
        out = np.ones(self.n_partitions)
        for _, stack, sub, parts in self._split(active):
            out[parts] = stack.column(kind, index, sub)
        return out

    def set_column(self, kind: str, index: int, values, active=None) -> None:
        """Write column ``index`` of ``kind`` as ``values[p]`` for every
        active partition p: one batched ``eigh`` per stack, no model
        object.  Every stack's values are checked before any is written."""
        values = np.asarray(values, dtype=np.float64)
        split = list(self._split(active))
        for _, stack, _, parts in split:
            check_column(kind, index, stack.states, values[parts])
        for _, stack, sub, parts in split:
            stack.set_column(kind, index, values[parts], sub)

    def invalidate(self, nodes=None) -> None:
        """Invalidate the given inner nodes (or all) in every partition."""
        for stack in self.stacks:
            if nodes is None:
                stack.invalidate_all()
            else:
                for node in nodes:
                    stack.invalidate_node(node)
