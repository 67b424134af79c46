"""Partition-stack likelihood evaluation on a tree (Felsenstein pruning).

:class:`PartitionLikelihood` is the likelihood of a **stack** of
partitions that share one tree, one state count and one Gamma category
count.  The stack holds, per inner node, ONE conditional likelihood vector
(CLV) of shape ``(P, K, m, s)`` and one scaling counter ``(P, m)``, where
``m`` is the widest member's pattern count: narrower members are padded
with all-ones tip rows at weight 0, so a padded column contributes exactly
0 to every reduction and a zero-width member is all padding.  Every kernel
op then runs as ONE numpy call over the partition axis — the paper's
newPAR (all partitions between two barriers) carried into the kernel:
oldPAR and newPAR become the same calls with different ``active`` sets.

Exactly like RAxML the stack stores a single *oriented* CLV per inner node
and member — the conditional of the subtree hanging below the node w.r.t.
the current virtual-root placement — and relocating the virtual root or
changing a branch only recomputes the vectors whose orientation or inputs
changed (the paper's "partial traversals").  Validity is tracked per
(node, member), so a member is recomputed exactly when a one-partition
engine would recompute it, and the recorded operation counts are those of
one engine per partition.

Active sets: every method takes the members to compute — ``None`` (all,
no copy), one slot index (a slice view; the kernel runs unbatched, which
is the oldPAR case at 50,000 columns), or any other subset as a boolean
mask or index list (gathered, computed, scattered back).

The stack's methods return one value per active member.  Per-partition
access — the attributes and scalar results of a one-partition engine —
goes through :class:`PartitionView`.  Which partitions share a stack is
decided by :mod:`repro.plk.stacking`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .eigen import EigenSystem, decompose
from .frequencies import frequency_ratios, ratios_to_frequencies
from .gamma import GAMMA_CATEGORIES, discrete_gamma_rates
from .models import SubstitutionModel, n_exchange_rates, q_matrices
from .partition import PartitionData
from .tree import Tree

__all__ = ["PartitionLikelihood", "PartitionView", "EdgeWorkspace", "COLUMN_KINDS"]

#: The model-parameter columns :meth:`PartitionLikelihood.set_column`
#: writes: one exchangeability (an index into ``SubstitutionModel.rates``)
#: or one stationary-frequency ratio against the last state (an index
#: into :func:`~repro.plk.frequencies.frequency_ratios`).
COLUMN_KINDS = ("rate", "freq_ratio")


def _check_positive(values, name: str) -> None:
    """Raise ``ValueError`` unless every value is finite and positive
    (checked on the whole vector; NaN fails both comparisons)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and not (values.min() > 0.0 and values.max() < np.inf):
        raise ValueError(f"{name} must be finite and > 0")


def check_column(kind: str, index: int, states: int, values=()) -> None:
    """Raise ``ValueError`` unless a stack of ``states``-state members has
    column ``index`` of ``kind`` and every value is finite and positive."""
    widths = {"rate": n_exchange_rates(states), "freq_ratio": states - 1}
    if kind not in widths:
        raise ValueError(f"unknown model column {kind!r}; known: {COLUMN_KINDS}")
    if not 0 <= index < widths[kind]:
        raise ValueError(f"{kind} column {index} out of range")
    _check_positive(values, kind)


@dataclass
class EdgeWorkspace:
    """Precomputed state for Newton-Raphson on the listed ``edges`` of the
    stack members in ``slots``.  Everything a round needs besides the
    lengths is fixed here, so one round over every ``(edge, member)``
    lane is an exp, one GEMM and one weighted matmul
    (:func:`~repro.plk.kernel.table_slopes`,
    :func:`~repro.plk.kernel.slope_derivatives`).  One edge is the case
    E = 1.

    * ``table`` — ``(E, A, m, K*s)``: row e is the eigenbasis sumtable of
      ``edges[e]`` in the Newton layout
      (:func:`~repro.plk.kernel.branch_table`);
    * ``coef`` — ``r_k lambda_j``, ``(A, K*s)``, and ``powers`` —
      ``[1, c, c^2] / K``, ``(A, K*s, 3)`` (the derivative basis before its
      exponential; they depend on the member's parameters, not on the
      edge);
    * ``weights`` — the pattern weights ``(A, m)``; ``live_weights`` the
      same, or ``(E, A, m)`` with each edge's dead (``ZERO_SCALE``)
      patterns zeroed;
    * ``scale`` — ``(E, A, m)``: the total scaling counter of the two
      subtrees meeting at each edge.

    ``epoch`` snapshots the members' model-parameter epochs at preparation
    time: the sumtable embeds the eigenvectors and implicitly pairs with
    the rates/eigenvalues of that moment, so consuming it after an
    alpha/rates/eigen update would silently mix old and new parameters —
    the stack refuses such stale workspaces (see
    :meth:`PartitionLikelihood.edge_derivatives`).  ``generation`` is
    the stack's parameter generation the epochs were last found current
    at: while it is unchanged the per-member comparison is skipped."""

    edges: list[int]
    table: np.ndarray
    coef: np.ndarray
    powers: np.ndarray
    weights: np.ndarray
    live_weights: np.ndarray
    scale: np.ndarray
    epoch: np.ndarray
    generation: int
    slots: np.ndarray
    mask: int


class PartitionLikelihood:
    """Likelihood of a stack of partitions on a shared tree topology.

    Parameters
    ----------
    data:
        Pattern-compressed tip data of the members, all with the same
        state count.
    tree:
        The (shared, possibly mutated) topology.  The stack reads it on
        every traversal; after mutating the topology call
        :meth:`invalidate_all` (or targeted :meth:`invalidate_node`).
    model:
        The substitution models, one per member.
    alpha:
        Gamma shape parameter(s): one for all members, or one per member.
    categories:
        Number of discrete Gamma categories (4 throughout the paper).
    index:
        The members' positions in their scheme (used by trace recorders;
        default ``0 .. P-1``).
    recorder:
        Optional kernel-operation listener with ``newview(partition, n,
        count)``, ``evaluate(partition, n)``, ``sumtable(partition, n)``
        and ``derivative(partition, n)`` methods (n = pattern count
        touched), called once per active member and op.
    """

    def __init__(
        self,
        data: list[PartitionData],
        tree: Tree,
        model: list[SubstitutionModel],
        alpha: float | list[float] = 1.0,
        categories: int = GAMMA_CATEGORIES,
        index: list[int] | None = None,
        recorder=None,
    ):
        self.datas = tuple(data)
        n = len(self.datas)
        if n == 0:
            raise ValueError("a stack needs at least one partition")
        models = list(model)
        alphas = np.broadcast_to(np.asarray(alpha, dtype=np.float64), (n,))
        self.indices = tuple(range(n) if index is None else (int(i) for i in index))
        if len(models) != n or len(self.indices) != n:
            raise ValueError("need one model and one index per stack member")
        states = self.datas[0].states
        for d, m in zip(self.datas, models):
            if m.states != d.states:
                raise ValueError(
                    f"model has {m.states} states but partition data has {d.states}"
                )
            if d.states != states:
                raise ValueError("stack members must share one state count")
        self.tree = tree
        self.categories = categories
        self.recorder = recorder
        self.states = states
        self.n_slots = n
        self.widths = np.array([d.n_patterns for d in self.datas], dtype=np.int64)
        self.width = int(self.widths.max())
        self._full = (1 << n) - 1

        # Padded tips (n_taxa, P, m, s) and weights (P, m): all-ones rows
        # at weight 0 beyond each member's width.
        m = self.width
        self._tips = np.ones((tree.n_taxa, n, m, states))
        self._weights = np.zeros((n, m))
        for i, d in enumerate(self.datas):
            self._tips[:, i, : d.n_patterns] = d.tip_states
            self._weights[i, : d.n_patterns] = d.weights
        self._invariant_mask: np.ndarray | None = None  # (P, m, s), lazy

        # Per-member parameters, stacked for the kernel.  The model
        # parameters live in _exchange (P, s(s-1)/2) and _frequencies
        # (P, s); _models/_eigens cache the read-side objects per member
        # (None after a column write, rebuilt from the arrays when read).
        self.lengths = np.full((tree.n_edges, n), 0.1)
        self._datatypes = [m.datatype for m in models]
        self._exchange = np.array([m.rates for m in models])
        self._frequencies = np.array([m.frequencies for m in models])
        self._models: list[SubstitutionModel | None] = list(models)
        self._eigens: list[EigenSystem | None] = EigenSystem.for_models(models)
        _check_positive(alphas, "alpha")
        self.alphas = np.array(alphas)
        self.pinvs = np.zeros(n)
        self.rates = discrete_gamma_rates(self.alphas, categories)
        self._eigenvalues = np.empty((n, states))
        self._u = np.empty((n, states, states))
        self._v = np.empty((n, states, states))
        # P(t)^T[l, i] = sum_j exp(lambda_j r t) V[j, l] U[i, j]: the
        # products V[j, l] U[i, j] as (P, s, s*s), one GEMM operand.
        self._pt_basis = np.empty((n, states, states * states))
        self._load_eigens(slice(None), self._eigens)
        # Counts model-parameter updates (alpha/rates/eigen) per member.
        # Snapshotted into every EdgeWorkspace and checked on use: a
        # sumtable built under old parameters must never be combined with
        # new eigenvalues/rates (silently wrong likelihoods, not errors).
        # The generation counts updates of the whole stack, so a check
        # finds an untouched stack without comparing per member.
        self._epoch = np.zeros(n, dtype=np.int64)
        self._generation = 0
        self._pinv_any = False

        # Per-inner-node CLV storage (np.empty: pages are touched only
        # when a member is first computed).  _valid maps a traversal
        # signature (children, edges, orientation) to the bitmask of
        # members whose stored CLV was computed from exactly that
        # signature; clearing a member's bits marks it dirty.  Topology
        # moves (which change adjacency) and virtual-root motion (which
        # changes orientation) are both detected (RAxML's partial
        # traversal logic).
        inner = range(tree.n_taxa, tree.n_nodes)
        self._clv = {node: np.empty((n, categories, m, states)) for node in inner}
        self._scale = {node: np.zeros((n, m), dtype=np.int32) for node in inner}
        self._valid: dict[int, dict[tuple, int]] = {node: {} for node in inner}
        # Transition-matrix cache: P(t)^T (the layout the propagation
        # matmul reads) per (member, edge), valid for the (length,
        # parameter epoch) it was computed at.  Keyed on the length itself,
        # so a direct write to ``lengths`` can never be served a stale
        # P(t).  (np.empty: pages are touched when first computed.)
        self._pmat = np.empty((n, tree.n_edges, categories, states, states))
        self._p_length = np.full((tree.n_edges, n), np.nan)
        self._p_epoch = np.full((tree.n_edges, n), -1, dtype=np.int64)
        self._n_taxa = tree.n_taxa
        self._subsets: dict[int, np.ndarray] = {}
        # Outside (pre-order) CLVs of the lazy SPR scorer, one per node,
        # allocated by the first regraft_loglikelihoods call.  Entry x
        # holds the conditional of everything but x's subtree, at x's
        # parent, in the tree pruned at the last prune edge scored.
        # _changes counts invalidations (every topology, length or
        # parameter change clears inner CLV bits through _invalidate);
        # the outside bits are per (node, member) and hold while
        # (prune edge, _changes) is the key they were computed under.
        self._changes = 0
        self._outside: np.ndarray | None = None
        self._outside_scale: np.ndarray | None = None
        self._outside_key: tuple[int, int] | None = None
        self._outside_bits: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Active sets
    # ------------------------------------------------------------------

    def _mask(self, active) -> int:
        """Bitmask of the members selected by ``active`` (None = all, an
        int slot, a boolean mask or a sequence of slots)."""
        if active is None:
            return self._full
        if isinstance(active, (int, np.integer)):
            if not 0 <= active < self.n_slots:
                raise IndexError(f"slot {active} out of range")
            return 1 << int(active)
        flags = np.asarray(active)
        if flags.dtype != bool:
            slots = flags.astype(np.int64)
            flags = np.zeros(self.n_slots, dtype=bool)
            flags[slots] = True
        elif flags.shape != (self.n_slots,):
            raise ValueError("boolean active set must have one flag per member")
        return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")

    def _slots(self, mask: int) -> np.ndarray:
        """Ascending member indices of ``mask`` (cached per mask)."""
        slots = self._subsets.get(mask)
        if slots is None:
            slots = np.array(
                [i for i in range(mask.bit_length()) if mask >> i & 1], dtype=np.int64
            )
            self._subsets[mask] = slots
        return slots

    def _select(self, mask: int):
        """Index for the members of ``mask``: one int (a view without the
        member axis — the kernel runs unbatched), ``slice(None)`` (all, no
        copy) or an index array (gather/scatter; empty for no member)."""
        if mask and mask & (mask - 1) == 0:
            return mask.bit_length() - 1
        if mask == self._full:
            return slice(None)
        return self._slots(mask)

    def _record(self, op: str, mask: int) -> None:
        if self.recorder is None:
            return
        emit = getattr(self.recorder, op)
        for i in self._slots(mask).tolist():
            emit(self.indices[i], int(self.widths[i]))

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    def _load(self, slots, eigenvalues, u, v) -> None:
        """Write the decompositions of ``slots`` into the stacked kernel
        arrays."""
        self._eigenvalues[slots] = eigenvalues
        self._u[slots] = u
        self._v[slots] = v
        self._pt_basis[slots] = (
            v[:, :, :, np.newaxis] * np.swapaxes(u, -1, -2)[:, :, np.newaxis, :]
        ).reshape(len(u), self.states, -1)

    def _load_eigens(self, slots, eigens) -> None:
        self._load(slots, *(np.stack([getattr(e, name) for e in eigens])
                            for name in ("eigenvalues", "u", "v")))

    def _parameters_changed(self, mask: int) -> None:
        self._epoch[self._slots(mask)] += 1
        self._generation += 1
        self._invalidate(range(self.tree.n_taxa, self.tree.n_nodes), mask)

    def set_models(self, models, active=None) -> None:
        """Replace the substitution models of the active members (one
        model per active member, ascending).  The eigensystems come from
        the process-wide memo (:meth:`EigenSystem.for_models`), the new
        ones from one batched decomposition."""
        mask = self._mask(active)
        slots = self._slots(mask)
        models = list(models)
        if len(models) != len(slots):
            raise ValueError("need one model per active member")
        if any(model.states != self.states for model in models):
            raise ValueError("cannot change the state-space of a partition")
        eigens = EigenSystem.for_models(models)
        self._exchange[slots] = [model.rates for model in models]
        self._frequencies[slots] = [model.frequencies for model in models]
        self._load_eigens(slots, eigens)
        for i, model, eigen in zip(slots.tolist(), models, eigens):
            self._datatypes[i] = model.datatype
            self._models[i] = model
            self._eigens[i] = eigen
        self._parameters_changed(mask)

    def column(self, kind: str, index: int, active=None) -> np.ndarray:
        """Column ``index`` of ``kind`` (see :data:`COLUMN_KINDS`) for the
        active members, one value per member."""
        check_column(kind, index, self.states)
        slots = self._slots(self._mask(active))
        if kind == "rate":
            return self._exchange[slots, index]
        return frequency_ratios(self._frequencies[slots])[:, index]

    def set_column(self, kind: str, index: int, values, active=None) -> None:
        """Write column ``index`` of ``kind`` — one exchangeability
        (``"rate"``) or one frequency ratio against the last state
        (``"freq_ratio"``) — as ``values``, one per active member
        (ascending), and decompose the written members' Q matrices in one
        batched ``eigh``.  No model object is built: :attr:`models` and
        :attr:`eigens` rebuild a written member when it is next read.

        The arrays end up bit for bit as :meth:`set_models` leaves them
        with each member's ``with_rate`` / ``with_frequencies`` model:
        like that model's constructor, the write renormalises the
        members' frequencies.  A value that is not finite and positive,
        an unknown kind or an index out of range raises ``ValueError``
        before anything is written."""
        mask = self._mask(active)
        slots = self._slots(mask)
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), slots.shape)
        check_column(kind, index, self.states, values)
        freqs = self._frequencies[slots]
        if kind == "rate":
            self._exchange[slots, index] = values
        else:
            ratios = frequency_ratios(freqs)
            ratios[:, index] = values
            freqs = ratios_to_frequencies(ratios)
        freqs = freqs / freqs.sum(axis=1, keepdims=True)
        self._frequencies[slots] = freqs
        self._load(slots, *decompose(q_matrices(self._exchange[slots], freqs), freqs))
        for i in slots.tolist():
            self._models[i] = self._eigens[i] = None
        self._parameters_changed(mask)

    def _model(self, slot: int) -> SubstitutionModel:
        """Member ``slot``'s substitution model (built from the stacked
        arrays on the first read after a column write)."""
        model = self._models[slot]
        if model is None:
            model = SubstitutionModel.frozen(
                self._datatypes[slot], self._exchange[slot], self._frequencies[slot]
            )
            self._models[slot] = model
        return model

    def _eigen(self, slot: int) -> EigenSystem:
        """Member ``slot``'s eigensystem (read-only copies of the stacked
        arrays, built on the first read after a column write)."""
        eigen = self._eigens[slot]
        if eigen is None:
            arrays = [np.array(a[slot]) for a in (self._eigenvalues, self._u, self._v)]
            for arr in arrays:
                arr.setflags(write=False)
            eigen = EigenSystem(*arrays, frequencies=self._model(slot).frequencies)
            self._eigens[slot] = eigen
        return eigen

    @property
    def models(self) -> list[SubstitutionModel]:
        """Every member's model (write through :meth:`set_models` or
        :meth:`set_column`)."""
        return [self._model(i) for i in range(self.n_slots)]

    @property
    def eigens(self) -> list[EigenSystem]:
        """Every member's eigensystem."""
        return [self._eigen(i) for i in range(self.n_slots)]

    def set_alphas(self, values, active=None) -> None:
        """Set the Gamma shapes of the active members (a scalar, or one
        value per active member): one rate computation for all of them.
        Raises ``ValueError`` for a non-finite or non-positive shape."""
        mask = self._mask(active)
        slots = self._slots(mask)
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), slots.shape)
        _check_positive(values, "alpha")
        self.alphas[slots] = values
        self.rates[slots] = discrete_gamma_rates(values, self.categories)
        self._parameters_changed(mask)

    def set_pinvs(self, values, active=None) -> None:
        """Set the invariable-site proportions of the active members.
        Only the root-level mixing changes: no CLV is invalidated."""
        values = np.asarray(values, dtype=np.float64)
        if ((values < 0.0) | (values >= 1.0)).any():
            raise ValueError("pinv must be in [0, 1)")
        self.pinvs[self._slots(self._mask(active))] = values
        self._pinv_any = bool(self.pinvs.any())

    def invariant_probabilities(self, active=None) -> np.ndarray:
        """Padded ``(m,)`` (one member) or ``(A, m)`` invariant masses."""
        return self._invariant_probabilities(self._select(self._mask(active)))

    def _invariant_probabilities(self, sel) -> np.ndarray:
        if self._invariant_mask is None:
            self._invariant_mask = (self._tips > 0.0).all(axis=0)
        freqs = self._frequencies[sel]
        if isinstance(sel, int):
            return self._invariant_mask[sel] @ freqs
        return np.matmul(self._invariant_mask[sel], freqs[..., np.newaxis])[..., 0]

    # ------------------------------------------------------------------
    # Branch lengths and CLV management
    # ------------------------------------------------------------------

    def set_branch_length(self, edge: int, value, active=None) -> None:
        """Change one branch length (a scalar, or one value per active
        member), invalidating dependent CLVs of those members."""
        mask = self._mask(active)
        self.lengths[edge, self._slots(mask)] = value
        self._invalidate(
            [n for n in self.tree.edge_nodes(edge) if not self.tree.is_leaf(n)], mask
        )

    def set_branch_lengths(self, values: np.ndarray, active=None, edges=None) -> None:
        """Replace whole length vectors: ``(n_edges,)`` for every active
        member, or ``(n_edges, A)`` with one column per active member.
        With ``edges`` only those rows are written (``values`` then has
        one row per listed edge) and only the CLVs at their ends are
        invalidated."""
        values = np.asarray(values, dtype=np.float64)
        if edges is None:
            rows = np.arange(self.tree.n_edges)
            nodes = range(self.tree.n_taxa, self.tree.n_nodes)
        else:
            rows = np.asarray(edges, dtype=np.int64)
            nodes = {n for e in rows.tolist() for n in self.tree.edge_nodes(e)
                     if not self.tree.is_leaf(n)}
        if values.shape[0] != len(rows) or values.ndim > 2:
            raise ValueError("branch-length vector has wrong shape")
        mask = self._mask(active)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        self.lengths[np.ix_(rows, self._slots(mask))] = values
        self._invalidate(nodes, mask)

    def invalidate_all(self, active=None) -> None:
        """Mark every inner CLV stale (model change / bulk topology edit)."""
        self._invalidate(range(self.tree.n_taxa, self.tree.n_nodes), self._mask(active))

    def invalidate_node(self, node: int, active=None) -> None:
        """Mark one inner node stale (targeted topology edit)."""
        if not self.tree.is_leaf(node):
            self._invalidate([node], self._mask(active))

    def _invalidate(self, nodes, mask: int) -> None:
        self._changes += 1
        keep = ~mask
        for node in nodes:
            valid = self._valid[node]
            if valid:
                self._valid[node] = {
                    sig: bits & keep for sig, bits in valid.items() if bits & keep
                }

    def _transition(self, edge: int, sel) -> np.ndarray:
        """P(t)^T of ``edge`` for the selected members.  A hit is two byte
        comparisons of the edge's whole row of (length, parameter epoch)
        keys against those the cache was computed at."""
        if (
            self.lengths[edge].tobytes() != self._p_length[edge].tobytes()
            or self._epoch.tobytes() != self._p_epoch[edge].tobytes()
        ):
            self._update_transitions([edge])
        return self._pmat[sel, edge]

    def _update_transitions(self, edges) -> None:
        """Bring the P(t)^T of ``edges`` up to date.  Only the block of
        edges and members that hold a moved (length, epoch) key is
        recomputed: one exp and one GEMM per member, with its stale edges
        and the categories as rows."""
        edges = np.asarray(edges)
        lengths = self.lengths[edges]                               # (E', P)
        stale = (self._p_length[edges] != lengths) | (self._p_epoch[edges] != self._epoch)
        rows = stale.any(1)
        if not rows.any():
            return
        edges, lengths, cols = edges[rows], lengths[rows], stale.any(0)
        if cols.all():
            members, block, keys = slice(None), (slice(None), edges), edges
        else:
            members = np.flatnonzero(cols)
            block, keys = np.ix_(members, edges), np.ix_(edges, members)
            lengths = lengths[:, members]
        self._pmat[block] = np.swapaxes(self._transitions_at(lengths, members), 0, 1)
        self._p_length[keys] = lengths
        self._p_epoch[keys] = self._epoch[members]

    def _transitions_at(self, lengths: np.ndarray, sel) -> np.ndarray:
        """``(L, A, K, s, s)`` P(t)^T at the ``(L, A)`` lengths of the
        members ``sel`` (a slice or index array), uncached: one exp and
        one GEMM per member, with the lengths and categories as rows."""
        t = np.minimum(np.maximum(lengths, kernel.MIN_BRANCH), kernel.MAX_BRANCH).T
        expl = np.exp(
            (t[:, :, np.newaxis] * self.rates[sel][:, np.newaxis, :])[..., np.newaxis]
            * self._eigenvalues[sel][:, np.newaxis, np.newaxis, :]
        )                                                           # (A, L, K, s)
        n, e, k, s = expl.shape
        pt = np.matmul(expl.reshape(n, e * k, s), self._pt_basis[sel])
        return np.swapaxes(pt.reshape(n, e, k, s, s), 0, 1)

    def _child(self, node: int, sel) -> tuple[np.ndarray, np.ndarray | None]:
        """CLV (or tip matrix) plus scaling counter of the selected members."""
        if node < self._n_taxa:
            return self._tips[node][sel], None
        return self._clv[node][sel], self._scale[node][sel]

    def refresh(self, root_edge: int, active=None) -> int:
        """Make every CLV of the active members needed for the orientation
        rooted on ``root_edge`` valid; returns the number of newview
        operations performed (the partial-traversal length)."""
        return self._refresh(root_edge, self._mask(active))

    def _refresh(self, root_edge: int, mask: int) -> int:
        # Which members each step recomputes follows from the validity
        # bits alone, so the whole schedule is known before any kernel
        # call, and the P(t) of every edge it crosses is brought up to
        # date in one batch.
        recomputed: dict[int, int] = {}
        todo = []
        for step in self.tree.postorder(root_edge):
            need = (
                (mask & ~self._valid[step.node].get(step.sig, 0))
                | recomputed.get(step.c1, 0)
                | recomputed.get(step.c2, 0)
            )
            if need:
                recomputed[step.node] = need
                todo.append((step, need))
        if not todo:
            return 0
        self._update_transitions([e for step, _ in todo for e in (step.e1, step.e2)])
        counts = None if self.recorder is None else np.zeros(self.n_slots, dtype=np.int64)
        for step, need in todo:
            sel = self._select(need)
            self._newview(step, sel)
            valid = self._valid[step.node]
            sig = step.sig
            for other in [s for s in valid if s != sig and valid[s] & need]:
                bits = valid[other] & ~need
                if bits:
                    valid[other] = bits
                else:
                    del valid[other]
            valid[sig] = valid.get(sig, 0) | need
            if counts is not None:
                counts[sel] += 1
        if counts is not None:
            for i in np.flatnonzero(counts).tolist():
                self.recorder.newview(self.indices[i], int(self.widths[i]), int(counts[i]))
        return len(todo)

    def _newview(self, step, sel) -> None:
        node = step.node
        clv = self._clv[node]
        clv1, sc1 = self._child(step.c1, sel)
        clv2, sc2 = self._child(step.c2, sel)
        p1 = self._pmat[sel, step.e1]
        p2 = self._pmat[sel, step.e2]
        if isinstance(sel, np.ndarray):
            clv[sel], self._scale[node][sel] = kernel.newview(
                p1, clv1, sc1, p2, clv2, sc2, transposed=True
            )
        else:
            _, self._scale[node][sel] = kernel.newview(
                p1, clv1, sc1, p2, clv2, sc2, out=clv[sel], transposed=True
            )

    # ------------------------------------------------------------------
    # Likelihood
    # ------------------------------------------------------------------

    def _mixed(self, sel, plain, with_pinv):
        """Dispatch on the +I mixture: ``plain()`` where pinv == 0,
        ``with_pinv(pinv, inv_prob)`` elsewhere (both, merged per member,
        when the selection mixes the two)."""
        if not self._pinv_any:
            return plain()
        pinv = self.pinvs[sel]
        has = pinv > 0.0
        if not has.any():
            return plain()
        mixed = with_pinv(pinv, self._invariant_probabilities(sel))
        if has.all():
            return mixed
        base = plain()
        if isinstance(mixed, tuple):
            return tuple(np.where(has, a, b) for a, b in zip(mixed, base))
        return np.where(has[:, np.newaxis], mixed, base)

    def _root_logs(self, root_edge: int, sel) -> np.ndarray:
        a, b = self.tree.edge_nodes(root_edge)
        clv_a, sc_a = self._child(a, sel)
        clv_b, sc_b = self._child(b, sel)
        site = kernel.root_site_likelihoods(
            self._transition(root_edge, sel), clv_a, clv_b, self._frequencies[sel],
            transposed=True,
        )
        scale = kernel.combine_scales(sc_a, sc_b)
        return self._mixed(
            sel,
            lambda: kernel.scaled_log_likelihoods(site, scale),
            lambda pinv, inv: kernel.mix_invariant_loglikelihoods(site, scale, pinv, inv),
        )

    def loglikelihoods(self, root_edge: int = 0, active=None) -> np.ndarray:
        """Per-member log-likelihoods of the active members (ascending)
        with the virtual root on ``root_edge``: one partial traversal and
        one score reduction over the whole active stack."""
        mask = self._mask(active)
        self._refresh(root_edge, mask)
        sel = self._select(mask)
        lnl = kernel.weighted_log_sum(self._weights[sel], self._root_logs(root_edge, sel))
        self._record("evaluate", mask)
        return np.atleast_1d(lnl)

    def site_loglikelihoods(self, root_edge: int = 0, slot: int = 0) -> np.ndarray:
        """Per-pattern log-likelihoods of one member, including the +I
        mixture; their pattern-weighted sum is its log-likelihood."""
        mask = self._mask(slot)
        self._refresh(root_edge, mask)
        return self._root_logs(root_edge, self._select(mask))[: self.widths[slot]]

    # ------------------------------------------------------------------
    # Lazy SPR: every regraft of one prune edge in one call
    # ------------------------------------------------------------------

    def _members(self, mask: int):
        """:meth:`_select` with the member axis kept (one member is a
        one-long slice)."""
        sel = self._select(mask)
        return slice(sel, sel + 1) if isinstance(sel, int) else sel

    def regraft_loglikelihoods(self, prune_edge: int, targets, active=None) -> np.ndarray:
        """``(T, A)`` log-likelihoods of regrafting the subtree that hangs
        on ``prune_edge`` into each edge of ``targets`` (edges of the
        pruned tree, e.g. :func:`~repro.search.moves.spr_targets`), at
        RAxML's lazy lengths: the target edge split in half, the pruned
        edge keeping its length, the two edges the prune fuses summed.

        One post-order pass (the CLVs oriented toward ``prune_edge``) and
        one pre-order pass over the pruned tree (the outside CLVs, only as
        far as the targets reach) give both directional CLVs of every
        target edge; the targets are then scored in ONE kernel call over
        a ``(targets, members)`` axis.  The tree is not modified."""
        mask = self._mask(active)
        sel = self._members(mask)
        tree = self.tree
        s, a = tree.edge_nodes(prune_edge)
        if tree.is_leaf(a):
            s, a = a, s
        self._refresh(prune_edge, mask)
        parent = tree.orientation(prune_edge)
        children = [x if parent[x] == y else y for x, y in map(tree.edge_nodes, targets)]
        computed = self._refresh_outside(prune_edge, a, parent, children, mask)

        lengths = self.lengths[:, sel]
        half = self._transitions_at(lengths[list(targets)] / 2.0, sel)  # (T, A, K, s, s)
        shape = half.shape[:-2] + (self.width, self.states)
        down = np.empty(shape)
        down_scale = np.zeros(shape[:2] + (self.width,), dtype=np.int32)
        for i, x in enumerate(children):
            if x < self._n_taxa:
                down[i] = self._tips[x][sel][:, np.newaxis]
            else:
                down[i] = self._clv[x][sel]
                down_scale[i] = self._scale[x][sel]
        index = (children, sel) if isinstance(sel, slice) else np.ix_(children, sel)
        insert, scale = kernel.newview(
            half, down, down_scale, half, self._outside[index], self._outside_scale[index],
            transposed=True,
        )
        sub, sub_scale = self._child(s, sel)
        site = kernel.root_site_likelihoods(
            self._transition(prune_edge, sel), insert, sub, self._frequencies[sel],
            transposed=True,
        )
        scale = kernel.combine_scales(scale, sub_scale)
        logs = self._mixed(
            sel,
            lambda: kernel.scaled_log_likelihoods(site, scale),
            lambda pinv, inv: kernel.mix_invariant_loglikelihoods(site, scale, pinv, inv),
        )
        if self.recorder is not None:
            for i in self._slots(mask).tolist():
                n, p = int(self.widths[i]), self.indices[i]
                self.recorder.newview(p, n, computed[i] + len(children))
                for _ in children:
                    self.recorder.evaluate(p, n)
        return kernel.weighted_log_sum(self._weights[sel], logs)

    def _refresh_outside(self, prune_edge: int, a: int, parent, children, mask: int) -> np.ndarray:
        """Make the outside CLV of every node in ``children`` (and of its
        ancestors up to the fused edge) valid for the members of ``mask``
        in the tree pruned at ``prune_edge`` (junction ``a``, dissolved;
        ``parent`` is the orientation toward ``prune_edge``).  Returns
        the per-member number of outside CLVs computed."""
        tree = self.tree
        if self._outside is None:
            n, k, m, s = self.n_slots, self.categories, self.width, self.states
            self._outside = np.empty((tree.n_nodes, n, k, m, s))
            self._outside_scale = np.zeros((tree.n_nodes, n, m), dtype=np.int32)
        key = (prune_edge, self._changes)
        if self._outside_key != key:
            self._outside_key = key
            self._outside_bits = {}
        b, c = (nb for nb in tree.neighbors(a) if parent[nb] == a)
        order: list[int] = []  # ancestors first
        seen = {b, c}
        for child in children:
            if child in (b, c):
                raise ValueError(f"a target of prune edge {prune_edge} is next to its junction")
            chain = []
            node = child
            while node not in seen:
                if parent[node] < 0:
                    raise ValueError(f"a target of prune edge {prune_edge} is in its subtree")
                seen.add(node)
                chain.append(node)
                node = int(parent[node])
            order.extend(reversed(chain))

        counts = np.zeros(self.n_slots, dtype=np.int64)
        bits = self._outside_bits
        for x in order:
            need = mask & ~bits.get(x, 0)
            if not need:
                continue
            sel = self._members(need)
            y = int(parent[x])
            up = int(parent[y])
            sib = next(nb for nb in tree.neighbors(y) if nb != x and nb != up)
            if up == a:
                # The prune fuses (a, b) and (a, c) into one edge b-c.
                mate = c if y == b else b
                fused = self.lengths[tree.edge_between(a, b), sel] + self.lengths[
                    tree.edge_between(a, c), sel]
                p_up = self._transitions_at(fused[np.newaxis], sel)[0]
                up_clv, up_scale = self._child(mate, sel)
            else:
                p_up = self._transition(tree.edge_between(y, up), sel)
                up_clv, up_scale = self._outside[y][sel], self._outside_scale[y][sel]
            sib_clv, sib_scale = self._child(sib, sel)
            self._outside[x][sel], self._outside_scale[x][sel] = kernel.newview(
                self._transition(tree.edge_between(y, sib), sel), sib_clv, sib_scale,
                p_up, up_clv, up_scale, transposed=True,
            )
            bits[x] = bits.get(x, 0) | need
            counts[sel] += 1
        return counts

    # ------------------------------------------------------------------
    # Branch-length machinery (Newton-Raphson support)
    # ------------------------------------------------------------------

    def _check_current(self, ws: EdgeWorkspace) -> None:
        """Refuse a workspace whose members' model parameters changed
        since it was prepared."""
        if ws.generation != self._generation:
            if not np.array_equal(self._epoch[ws.slots], ws.epoch):
                raise RuntimeError(
                    "stale EdgeWorkspace: model parameters (alpha/rates/eigen) "
                    f"changed after it was prepared on edges {ws.edges} "
                    "— the sumtable would be combined with mismatched "
                    "eigenvalues/rates; re-prepare the branch"
                )
            ws.generation = self._generation

    def prepare_edges(self, edges, active=None) -> EdgeWorkspace:
        """One :class:`EdgeWorkspace` for ``edges`` and the active
        members.  The edges are visited in the given order, each after
        re-rooting the CLVs on it (listed in
        :func:`~repro.core.strategies.smoothing_edge_order`, every visit
        costs O(1) newviews) and its sumtable becomes its row of the
        stacked table.  One member is computed unbatched on views (as
        every traversal is); its arrays get their member axis after."""
        mask = self._mask(active)
        slots = self._slots(mask)
        sel = self._select(mask)
        lead = (np.newaxis,) if isinstance(sel, int) else ()  # the member axis
        edges = [int(e) for e in edges]
        params = self._u[sel], self._v[sel], self._frequencies[sel]
        if len(edges) == 1:
            table, scale = self._edge_row(edges[0], mask, sel, params)
            table = table[(np.newaxis,) + lead]
            # A copy: later traversals update the stored counters in place.
            scale = np.array(scale, ndmin=3)
        else:
            table = np.empty((len(edges), len(slots), self.width, self.categories * self.states))
            scale = np.empty(table.shape[:3], dtype=np.int32)
            for i, edge in enumerate(edges):
                _, scale[i] = self._edge_row(edge, mask, sel, params, table[i])
        coef, powers = kernel.branch_coefficients(self._eigenvalues[sel], self.rates[sel])
        weights = self._weights[sel][lead]
        dead = kernel.zero_pattern_mask(scale)
        live = np.where(dead, 0.0, weights) if dead.any() else weights
        return EdgeWorkspace(
            edges=edges, table=table, coef=coef[lead], powers=powers[lead],
            weights=weights, live_weights=live, scale=scale,
            epoch=self._epoch[slots].copy(), generation=self._generation,
            slots=slots, mask=mask,
        )

    def _edge_row(self, edge: int, mask: int, sel, params, out=None):
        """``(sumtable, total scaling counter)`` of ``edge`` for the
        members ``sel``, after re-rooting their CLVs on it; ``params`` are
        their ``(u, v, frequencies)``, ``out`` receives the table."""
        self._refresh(edge, mask)
        a, b = self.tree.edge_nodes(edge)
        clv_a, sc_a = self._child(a, sel)
        clv_b, sc_b = self._child(b, sel)
        self._record("sumtable", mask)
        table = kernel.branch_table(clv_a, clv_b, *params, out=out)
        return table, kernel.combine_scales(sc_a, sc_b)

    def _edge_lanes(self, ws: EdgeWorkspace, z, active):
        """The arrays a round over the ``(E, A)`` lane mask ``active``
        (None: every lane) of ``ws`` computes on:
        ``(lanes, sel, table, coef, powers, z, weights, live, scale)``.

        * One active lane (one edge of one member — every oldPAR round):
          basic-index views, an int slot and a float length, so the
          kernel runs unbatched and nothing is copied; ``lanes`` is its
          ``(edge, member)`` index.
        * More than half the lanes active: the whole block on the
          workspace's own arrays (``lanes`` is None; the others are
          zeroed after).
        * Otherwise the active lanes are gathered into one leading lane
          axis (``lanes`` holds their edge and member indices), so a
          round never copies more than half the table.

        ``sel`` indexes each lane's member parameters."""
        self._check_current(ws)
        n_edges, n_members = ws.table.shape[:2]
        n_lanes = n_edges * n_members if active is None else np.count_nonzero(active)
        if n_lanes == 1:
            e, a = (0, 0) if active is None else divmod(int(active.argmax()), n_members)
            live = ws.live_weights[a] if ws.live_weights.ndim == 2 else ws.live_weights[e, a]
            z = min(max(float(z[e, a]), kernel.MIN_BRANCH), kernel.MAX_BRANCH)
            return ((e, a), int(ws.slots[a]), ws.table[e, a], ws.coef[a], ws.powers[a], z,
                    ws.weights[a], live, ws.scale[e, a])
        z = np.minimum(np.maximum(np.asarray(z, dtype=np.float64), kernel.MIN_BRANCH),
                       kernel.MAX_BRANCH)
        if active is None or 2 * n_lanes > active.size:
            return (None, ws.slots, ws.table, ws.coef, ws.powers, z, ws.weights,
                    ws.live_weights, ws.scale)
        e, a = lanes = np.nonzero(active)
        live = ws.live_weights[a] if ws.live_weights.ndim == 2 else ws.live_weights[e, a]
        return (lanes, ws.slots[a], ws.table[e, a], ws.coef[a], ws.powers[a], z[e, a],
                ws.weights[a], live, ws.scale[e, a])

    def _record_lanes(self, op: str, ws: EdgeWorkspace, active) -> None:
        if self.recorder is None:
            return
        if active is None:
            for _ in range(len(ws.edges)):
                self._record(op, ws.mask)
            return
        emit = getattr(self.recorder, op)
        for i in ws.slots[np.nonzero(active)[1]].tolist():
            emit(self.indices[i], int(self.widths[i]))

    @staticmethod
    def _scatter(lanes, active, shape, *values):
        """Results as ``(E, A)`` arrays, 0 outside ``active``."""
        if lanes is None:
            if active is None:
                return values
            return tuple(np.where(active, v, 0.0) for v in values)
        out = []
        for v in values:
            full = np.zeros(shape)
            full[lanes] = v
            out.append(full)
        return tuple(out)

    def edge_derivatives(self, ws: EdgeWorkspace, z, active=None):
        """(dlnL/dz, d2lnL/dz2), each ``(E, A)``: every active lane's
        derivatives at its length in ``z`` (``(E, A)``) — one Newton
        round over every listed edge in one kernel call."""
        lanes, sel, table, coef, powers, zz, weights, live, scale = self._edge_lanes(
            ws, z, active
        )
        slopes = kernel.table_slopes(table, coef, powers, zz)
        d1, d2 = self._mixed(
            sel,
            lambda: kernel.slope_derivatives(slopes, live, weights, scale),
            lambda pinv, inv: kernel.slope_derivatives_pinv(slopes, weights, scale, pinv, inv),
        )
        self._record_lanes("derivative", ws, active)
        return self._scatter(lanes, active, ws.table.shape[:2], d1, d2)

    def edge_loglikelihoods(self, ws: EdgeWorkspace, z, active=None) -> np.ndarray:
        """``(E, A)`` log-likelihoods as functions of each listed edge's
        length alone, at the lengths ``z`` (0 outside ``active``)."""
        lanes, sel, table, coef, _, zz, weights, _, scale = self._edge_lanes(ws, z, active)
        site = kernel.table_site_likelihoods(table, coef, zz, self.categories)
        logs = self._mixed(
            sel,
            lambda: kernel.scaled_log_likelihoods(site, scale),
            lambda pinv, inv: kernel.mix_invariant_loglikelihoods(site, scale, pinv, inv),
        )
        lnl = kernel.weighted_log_sum(weights, logs)
        self._record_lanes("derivative", ws, active)
        return self._scatter(lanes, active, ws.table.shape[:2], lnl)[0]


class PartitionView:
    """One partition of a :class:`PartitionLikelihood` stack, with the
    attributes, methods and scalar results of a one-partition engine.
    Every call runs on the stack with this member as the active set.  A
    partition on a tree of its own is the view of a one-member stack:
    ``PartitionView(PartitionLikelihood([data], tree, [model]), 0)``."""

    def __init__(self, stack: PartitionLikelihood, slot: int):
        self._stack = stack
        self._slot = slot

    @property
    def data(self) -> PartitionData:
        return self._stack.datas[self._slot]

    @property
    def index(self) -> int:
        return self._stack.indices[self._slot]

    @property
    def n_patterns(self) -> int:
        return int(self._stack.widths[self._slot])

    @property
    def model(self) -> SubstitutionModel:
        return self._stack._model(self._slot)

    @model.setter
    def model(self, model: SubstitutionModel) -> None:
        self._stack.set_models([model], self._slot)

    @property
    def alpha(self) -> float:
        return float(self._stack.alphas[self._slot])

    @alpha.setter
    def alpha(self, alpha: float) -> None:
        self._stack.set_alphas(alpha, self._slot)

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
        return float(self._stack.pinvs[self._slot])

    @pinv.setter
    def pinv(self, value: float) -> None:
        self._stack.set_pinvs(value, self._slot)

    @property
    def gamma_rates(self) -> np.ndarray:
        return self._stack.rates[self._slot]

    @property
    def eigen(self) -> EigenSystem:
        return self._stack._eigen(self._slot)

    @property
    def branch_lengths(self) -> np.ndarray:
        """This member's ``(n_edges,)`` lengths (a view into the stack)."""
        return self._stack.lengths[:, self._slot]

    def invariant_probabilities(self) -> np.ndarray:
        """(m,) prior mass of the states compatible with every tip at each
        pattern (0 for variable patterns) — the invariant component's
        per-pattern likelihood."""
        return self._stack.invariant_probabilities(self._slot)[: self.n_patterns]

    @property
    def categories(self) -> int:
        return self._stack.categories

    @property
    def tree(self) -> Tree:
        return self._stack.tree

    def set_branch_length(self, edge: int, value: float) -> None:
        self._stack.set_branch_length(edge, value, self._slot)

    def set_branch_lengths(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.shape != (self._stack.tree.n_edges,):
            raise ValueError("branch-length vector has wrong shape")
        self._stack.set_branch_lengths(values, self._slot)

    def invalidate_all(self) -> None:
        self._stack.invalidate_all(self._slot)

    def invalidate_node(self, node: int) -> None:
        self._stack.invalidate_node(node, self._slot)

    def refresh(self, root_edge: int) -> int:
        return self._stack.refresh(root_edge, self._slot)

    def loglikelihood(self, root_edge: int | None = None) -> float:
        edge = 0 if root_edge is None else root_edge
        return float(self._stack.loglikelihoods(edge, self._slot)[0])

    def site_loglikelihoods(self, root_edge: int = 0) -> np.ndarray:
        return self._stack.site_loglikelihoods(root_edge, self._slot)

    def prepare_branch(self, edge: int) -> EdgeWorkspace:
        """The one-edge workspace of ``edge`` for this member."""
        return self._stack.prepare_edges([edge], self._slot)

    def branch_loglikelihood(self, ws: EdgeWorkspace, z: float) -> float:
        """Log-likelihood at length ``z`` of the edge of ``ws`` (from
        :meth:`prepare_branch`)."""
        return float(self._stack.edge_loglikelihoods(ws, np.full((1, 1), z))[0, 0])

    def branch_derivatives(self, ws: EdgeWorkspace, z: float) -> tuple[float, float]:
        """(dlnL/dz, d2lnL/dz2) at length ``z`` of the edge of ``ws``."""
        d1, d2 = self._stack.edge_derivatives(ws, np.full((1, 1), z))
        return float(d1[0, 0]), float(d2[0, 0])
