"""Stacked partitions equal one partition at a time.

Every kernel op over a padded ``(P, ...)`` stack, and every
:class:`~repro.plk.likelihood.PartitionLikelihood` method over a stack of
partitions, must give each member's one-partition result to 1e-12
relative, and record the same per-(partition, op) work.  Covered: unequal
widths (padding), a zero-width member, a dead (``ZERO_SCALE``) pattern,
deep-tree rescaling, ``pinv > 0``, DNA and AA in one engine (two stacks),
and active sets of one partition, a strided subset and all partitions.
A model-parameter column write leaves a stack as the matching whole-model
write does.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PartitionedEngine, TraceRecorder
from repro.parallel import WorkerState, slice_partition_data
from repro.plk import (
    Alignment,
    EigenSystem,
    PartitionData,
    PartitionedAlignment,
    PartitionLikelihood,
    PartitionView,
    SubstitutionModel,
    discrete_gamma_rates,
    frequency_ratios,
    kernel,
    n_exchange_rates,
    parse_partition_file,
    ratios_to_frequencies,
)
from repro.plk.stacking import stack_groups
from repro.seqgen import random_topology_with_lengths, simulate_alignment

RTOL = 1e-12


def close(a, b):
    """Equal to RTOL; -inf (an impossible partition) must match exactly."""
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=0.0)


def _same_model(a, b):
    """Bitwise equal models: a stack holds no model object, so a read-back
    model is a new object over the stack's arrays."""
    assert a.datatype == b.datatype
    np.testing.assert_array_equal(a.rates, b.rates)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)


# ---------------------------------------------------------------------------
# Kernel primitives
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def padded():
    """Three DNA members of widths 23, 9 and 0, padded to 23 columns the
    way a stack pads them (all-ones tips, zero weights)."""
    rng = np.random.default_rng(3)
    widths = [23, 9, 0]
    m, k = 23, 4
    models = [SubstitutionModel.random_gtr(i) for i in range(3)]
    eigens = [EigenSystem.from_model(model) for model in models]
    rates = np.stack([discrete_gamma_rates(a, k) for a in (0.4, 1.0, 2.5)])
    clv = np.ones((3, k, m, 4))
    tip = np.ones((3, m, 4))
    weights = np.zeros((3, m))
    for i, w in enumerate(widths):
        clv[i, :, :w] = rng.random((k, w, 4))
        tip[i, :w] = np.eye(4)[rng.integers(0, 4, w)]
        weights[i, :w] = rng.integers(1, 4, w)
    clv[0, :, 5, :] = 0.0  # a dead pattern in member 0
    p = np.stack([e.transition_matrices(t, r) for e, t, r in zip(eigens, (0.1, 0.3, 0.05), rates)])
    return dict(widths=widths, models=models, eigens=eigens, rates=rates,
                clv=clv, tip=tip, weights=weights, p=p)


class TestKernelStacked:
    def test_newview_evaluate(self, padded):
        d = padded
        out, scale = kernel.newview(d["p"], d["clv"], None, d["p"], d["tip"], None)
        freqs = np.stack([m.frequencies for m in d["models"]])
        lnl = kernel.evaluate(d["p"], out, scale, d["tip"], None, freqs, d["weights"])
        assert lnl.shape == (3,)
        for i, w in enumerate(d["widths"]):
            o1, s1 = kernel.newview(d["p"][i], d["clv"][i, :, :w], None,
                                    d["p"][i], d["tip"][i, :w], None)
            close(out[i, :, :w], o1)
            np.testing.assert_array_equal(scale[i, :w], s1)
            ref = kernel.evaluate(d["p"][i], o1, s1, d["tip"][i, :w], None,
                                  freqs[i], d["weights"][i, :w])
            close(lnl[i], ref)
        assert np.isneginf(lnl[0]) and lnl[2] == 0.0

    def test_rescaling_matches(self, padded):
        d = padded
        tiny = d["clv"] * kernel.SCALE_THRESHOLD
        out, scale = kernel.newview(d["p"], tiny, None, d["p"], d["clv"], None)
        assert scale[:2].max() >= 1
        for i, w in enumerate(d["widths"]):
            o1, s1 = kernel.newview(d["p"][i], tiny[i, :, :w], None,
                                    d["p"][i], d["clv"][i, :, :w], None)
            close(out[i, :, :w], o1)
            np.testing.assert_array_equal(scale[i, :w], s1)

    @pytest.mark.parametrize("pinv", [0.0, 0.2])
    def test_sumtable_derivatives(self, padded, pinv):
        d = padded
        u = np.stack([e.u for e in d["eigens"]])
        v = np.stack([e.v for e in d["eigens"]])
        lam = np.stack([e.eigenvalues for e in d["eigens"]])
        freqs = np.stack([m.frequencies for m in d["models"]])
        table = kernel.make_sumtable(d["clv"], d["tip"], u, v, freqs)
        z = np.array([0.05, 0.4, 1.1])
        scale = np.zeros((3, 23), dtype=np.int32)
        scale[0, 5] = kernel.ZERO_SCALE
        inv = np.where(np.arange(23) % 3 == 0, 0.25, 0.0) * np.ones((3, 1))
        if pinv:
            d1, d2 = kernel.branch_derivatives_pinv(
                table, lam, d["rates"], z, d["weights"], scale, np.full(3, pinv), inv)
        else:
            d1, d2 = kernel.branch_derivatives(table, lam, d["rates"], z, d["weights"], scale)
        lnl = kernel.sumtable_loglikelihood(table, lam, d["rates"], z, d["weights"], scale)
        for i, w in enumerate(d["widths"]):
            t1 = kernel.make_sumtable(d["clv"][i, :, :w], d["tip"][i, :w], u[i], v[i], freqs[i])
            close(table[i, :, :w], t1)
            args = (t1, lam[i], d["rates"][i], z[i], d["weights"][i, :w], scale[i, :w])
            if pinv:
                r1, r2 = kernel.branch_derivatives_pinv(*args, pinv, inv[i, :w])
            else:
                r1, r2 = kernel.branch_derivatives(*args)
            close([d1[i], d2[i]], [r1, r2])
            ref = kernel.sumtable_loglikelihood(*args)
            close(lnl[i], ref)

    def test_unbatched_shapes_kept(self, padded):
        d = padded
        d1, d2 = kernel.branch_derivatives(
            kernel.make_sumtable(d["clv"][1], d["tip"][1], d["eigens"][1].u,
                                 d["eigens"][1].v, d["models"][1].frequencies),
            d["eigens"][1].eigenvalues, d["rates"][1], 0.3, d["weights"][1])
        assert isinstance(d1, float) and isinstance(d2, float)


# ---------------------------------------------------------------------------
# PartitionLikelihood stacks
# ---------------------------------------------------------------------------


def _mixed_dataset(n_taxa=7, mean_length=0.15, seed=9):
    """Three DNA partitions of unequal width and one AA partition."""
    rng = np.random.default_rng(seed)
    tree, lengths = random_topology_with_lengths(n_taxa, rng, mean_length=mean_length)
    dna = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(1), 0.7, 90, rng)
    aa = simulate_alignment(tree, lengths, SubstitutionModel.synthetic_aa(2), 1.0, 20, rng)
    aln = Alignment(tree.taxa, np.concatenate([dna.matrix, aa.matrix], axis=1))
    scheme = parse_partition_file(
        "DNA, a = 1-50\nDNA, b = 51-80\nDNA, c = 81-90\nAA, d = 91-110"
    )
    data = PartitionedAlignment(aln, scheme)
    models = [SubstitutionModel.random_gtr(10 + p) for p in range(3)]
    models.append(SubstitutionModel.synthetic_aa(7))
    return tree, lengths, data, models, [0.5, 1.3, 0.8, 2.0]


def _with_dead_pattern(block: PartitionData) -> PartitionData:
    tips = block.tip_states.copy()
    tips[0, 2, :] = 0.0  # no state fits taxon 0 at pattern 2
    return PartitionData(block.partition, tips, block.weights)


def _zero_width(block: PartitionData) -> PartitionData:
    return PartitionData(block.partition, block.tip_states[:, :0], block.weights[:0])


class _Singles:
    """The reference: one one-partition stack per partition."""

    def __init__(self, blocks, tree, models, alphas, lengths, recorder):
        self.parts = [
            PartitionView(
                PartitionLikelihood([b], tree, [m], alpha=a, index=[i], recorder=recorder), 0
            )
            for i, (b, m, a) in enumerate(zip(blocks, models, alphas))
        ]
        for part in self.parts:
            part.set_branch_lengths(lengths)


def _region_items(recorder):
    return [sorted((it.partition, it.op, it.patterns, it.count) for it in r.items)
            for r in recorder.trace.regions]


ACTIVE_SETS = {"one": [1], "strided": [0, 2], "all": None}


@pytest.fixture(scope="module")
def dataset():
    return _mixed_dataset()


def _dna_blocks(data):
    blocks = list(data.data[:3])
    blocks[1] = _with_dead_pattern(blocks[1])
    return blocks + [_zero_width(blocks[2])]


class TestStackMethods:
    """A four-member DNA stack (widths 50-ish, 30-ish, 10-ish and 0, one
    dead pattern) against four one-member stacks."""

    def _pair(self, dataset, pinv=(0.0, 0.0, 0.0, 0.0)):
        tree, lengths, data, models, alphas = dataset
        blocks = _dna_blocks(data)
        models = models[:3] + [models[2]]
        alphas = alphas[:3] + [alphas[2]]
        rec_s, rec_1 = TraceRecorder(), TraceRecorder()
        stack = PartitionLikelihood(blocks, tree, models, alpha=alphas,
                                    index=[0, 1, 2, 3], recorder=rec_s)
        stack.set_branch_lengths(lengths)
        stack.set_pinvs(np.array(pinv))
        singles = _Singles(blocks, tree, models, alphas, lengths, rec_1)
        for part, value in zip(singles.parts, pinv):
            part.pinv = value
        return stack, singles, rec_s, rec_1

    @staticmethod
    def _slots(active):
        return [0, 1, 2, 3] if active is None else active

    @pytest.mark.parametrize("pinv", [(0.0,) * 4, (0.2, 0.0, 0.35, 0.1)])
    @pytest.mark.parametrize("which", list(ACTIVE_SETS))
    def test_loglikelihoods_and_branch_ops(self, dataset, which, pinv):
        active = ACTIVE_SETS[which]
        stack, singles, rec_s, rec_1 = self._pair(dataset, pinv)
        slots = self._slots(active)
        z = np.array([0.07, 0.2, 0.5, 0.9])[slots]
        for edge in (0, 4, stack.tree.n_edges - 1):
            rec_s.begin_region("r")
            got = stack.loglikelihoods(edge, active)
            ws = stack.prepare_edges([edge], active)
            d1, d2 = stack.edge_derivatives(ws, z[np.newaxis])
            blnl = stack.edge_loglikelihoods(ws, z[np.newaxis])[0]
            rec_s.end_region()
            rec_1.begin_region("r")
            for i, slot in enumerate(slots):
                part = singles.parts[slot]
                close(got[i], part.loglikelihood(edge))
                ws1 = part.prepare_branch(edge)
                r1, r2 = part.branch_derivatives(ws1, z[i])
                close([d1[0, i], d2[0, i]], [r1, r2])
                close(blnl[i], part.branch_loglikelihood(ws1, z[i]))
            rec_1.end_region()
        assert _region_items(rec_s) == _region_items(rec_1)

    def test_dead_and_zero_width_members(self, dataset):
        stack, singles, _, _ = self._pair(dataset)
        lnl = stack.loglikelihoods(0)
        assert np.isneginf(lnl[1])
        assert lnl[3] == 0.0 and singles.parts[3].loglikelihood(0) == 0.0
        ws = stack.prepare_edges([2])
        d1, d2 = stack.edge_derivatives(ws, np.full((1, 4), 0.1))
        assert np.isfinite(d1).all() and d1[0, 3] == 0.0 and d2[0, 3] == 0.0

    def test_site_loglikelihoods_and_refresh_counts(self, dataset):
        stack, singles, _, _ = self._pair(dataset)
        for slot, part in enumerate(singles.parts):
            close(stack.site_loglikelihoods(3, slot), part.site_loglikelihoods(3))
        # after a length change in one member only that member recomputes
        stack.refresh(0)
        stack.set_branch_length(2, 0.33, 1)
        singles.parts[1].set_branch_length(2, 0.33)
        assert stack.refresh(0, [0, 2, 3]) == 0
        assert stack.refresh(0) == singles.parts[1].refresh(0) > 0

    def test_parameter_updates_per_member(self, dataset):
        stack, singles, _, _ = self._pair(dataset)
        stack.loglikelihoods(0)
        stack.set_alphas([0.3, 3.0], [0, 2])
        stack.set_models([SubstitutionModel.random_gtr(99)], 1)
        singles.parts[0].alpha = 0.3
        singles.parts[2].alpha = 3.0
        singles.parts[1].model = SubstitutionModel.random_gtr(99)
        want = [p.loglikelihood(5) for p in singles.parts]
        got = stack.loglikelihoods(5)
        close(got[[0, 2, 3]], np.array(want)[[0, 2, 3]])
        assert np.isneginf(got[1]) and np.isneginf(want[1])

    @pytest.mark.parametrize("root", [4, 0])
    @pytest.mark.parametrize("slots", [[0], [0, 2]], ids=["one", "strided"])
    def test_reverted_member_length_reaches_whole_stack(self, dataset, slots, root):
        """A rejected trial: some members' length of edge 4 is changed,
        evaluated on those members alone, and put back.  The whole stack
        must then read the restored length's P(t), at the trial edge as
        root and through a traversal."""
        stack, singles, _, _ = self._pair(dataset)
        stack.loglikelihoods(root)
        old = stack.lengths[4, slots].copy()
        stack.set_branch_length(4, 1.7, slots)
        stack.loglikelihoods(4, slots)
        stack.set_branch_length(4, old, slots)
        close(stack.loglikelihoods(root), [p.loglikelihood(root) for p in singles.parts])

    def test_stale_workspace_refused_per_member(self, dataset):
        stack, _, _, _ = self._pair(dataset)
        ws = stack.prepare_edges([1], [0, 2])
        stack.set_alphas(0.7, 3)  # another member: workspace still valid
        stack.edge_derivatives(ws, np.full((1, 2), 0.1))
        stack.set_alphas(0.7, 2)
        with pytest.raises(RuntimeError, match="stale"):
            stack.edge_derivatives(ws, np.full((1, 2), 0.1))


class TestDeepScaling:
    def test_stack_matches_singles_under_rescaling(self):
        """160 taxa with long branches: many patterns carry nonzero
        scaling counters at the root."""
        rng = np.random.default_rng(14)
        tree, lengths = random_topology_with_lengths(160, rng, mean_length=0.5)
        aln = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(6), 0.5, 60, rng)
        data = PartitionedAlignment(
            aln, parse_partition_file("DNA, a = 1-30\nDNA, b = 31-50\nDNA, c = 51-60"))
        blocks = list(data.data)
        models = [SubstitutionModel.random_gtr(p) for p in range(3)]
        stack = PartitionLikelihood(blocks, tree, models, alpha=[0.5, 0.6, 0.4],
                                    index=[0, 1, 2])
        stack.set_branch_lengths(lengths)
        assert stack.prepare_edges([0]).scale.max() > 0
        singles = _Singles(blocks, tree, models, [0.5, 0.6, 0.4], lengths, None)
        for edge in (0, 17, tree.n_edges - 1):
            close(stack.loglikelihoods(edge), [p.loglikelihood(edge) for p in singles.parts])


class TestEngineStacks:
    def test_dna_and_aa_form_two_stacks(self, dataset):
        tree, lengths, data, models, alphas = dataset
        engine = PartitionedEngine(data, tree.copy(), models=models, alphas=alphas,
                                   initial_lengths=lengths)
        assert [s.n_slots for s in engine.stacks] == [3, 1]
        assert stack_groups(data.pattern_counts(), engine.states()) == [[0, 1, 2], [3]]
        singles = _Singles(list(data.data), tree, models, alphas, lengths, None)
        for which, active in ACTIVE_SETS.items():
            want = np.zeros(4)
            for p in ([0, 1, 2, 3] if active is None else active):
                want[p] = singles.parts[p].loglikelihood(0)
            close(engine.loglikelihoods(0, active), want)
        z = np.array([[0.1, 0.2, 0.3, 0.4]])
        _, (d1, d2) = engine.run("nr", [
            ("prepare_edges", [3], None),
            ("deriv_edges", z, np.array([[True, False, False, True]])),
        ])
        for p in (0, 3):
            part = singles.parts[p]
            close([d1[0, p], d2[0, p]], part.branch_derivatives(part.prepare_branch(3), z[0, p]))
        assert d1[0, 1] == d1[0, 2] == 0.0

    def test_views_keep_per_partition_attributes(self, dataset):
        tree, lengths, data, models, alphas = dataset
        engine = PartitionedEngine(data, tree.copy(), models=models, alphas=alphas,
                                   initial_lengths=lengths)
        view = engine.parts[2]
        assert view.n_patterns == data.data[2].n_patterns
        assert view.alpha == alphas[2]
        _same_model(view.model, models[2])
        view.set_branch_length(1, 0.42)
        assert engine.branch_lengths()[1, 2] == 0.42
        assert engine.branch_lengths()[1, 1] == lengths[1]

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.0])
    def test_bad_pinv_raises_before_any_stack_is_written(self, dataset, bad):
        """DNA and AA partitions in one engine: a bad value for the AA
        partition leaves the DNA stack unwritten too."""
        tree, lengths, data, models, alphas = dataset
        engine = PartitionedEngine(data, tree.copy(), models=models, alphas=alphas,
                                   initial_lengths=lengths)
        values = np.full(engine.n_partitions, 0.1)
        values[-1] = bad
        with pytest.raises(ValueError, match="pinv"):
            engine.set_pinvs(values)
        with pytest.raises(ValueError, match="pinv"):
            engine.parts[0].pinv = bad
        np.testing.assert_array_equal(engine.pinvs(), np.zeros(engine.n_partitions))

    def test_worker_with_no_patterns_returns_zeros(self, dataset):
        tree, lengths, data, models, alphas = dataset
        state = WorkerState.from_slices(
            [_zero_width(b) for b in slice_partition_data(data, 2, 0)],
            tree.copy(), models, alphas, lengths,
        )
        assert state.execute(("lnl", 0)) == 0.0
        np.testing.assert_array_equal(state.execute(("lnl_parts", 0, [0, 3])), np.zeros(4))
        state.execute(("prepare_edges", [1], [0, 1, 2, 3]))
        lanes = np.array([[False, True, False, True]])
        d1, d2 = state.execute(("deriv_edges", np.full((1, 4), 0.2), lanes))
        np.testing.assert_array_equal(d1, np.zeros((1, 4)))
        np.testing.assert_array_equal(d2, np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# Model-parameter column writes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def column_data(dataset):
    """Blocks, models and lengths of a four-member DNA stack (the
    :class:`TestStackMethods` members) and of a three-member AA stack."""
    tree, lengths, data, models, alphas = dataset
    rng = np.random.default_rng(31)
    aln = simulate_alignment(tree, lengths, SubstitutionModel.synthetic_aa(2), 1.0, 45, rng)
    aa = PartitionedAlignment(
        aln, parse_partition_file("AA, a = 1-20\nAA, b = 21-35\nAA, c = 36-45"))
    return {
        4: (_dna_blocks(data), models[:3] + [models[2]], alphas),
        20: (list(aa.data), [SubstitutionModel.synthetic_aa(3 + p) for p in range(3)],
             alphas[:3]),
    }, tree, lengths


STACK_ARRAYS = ("_exchange", "_frequencies", "_eigenvalues", "_u", "_v", "_pt_basis", "_epoch")


def _column_stack(column_data, states):
    members, tree, lengths = column_data
    blocks, models, alphas = members[states]
    stack = PartitionLikelihood(blocks, tree, models, alpha=alphas)
    stack.set_branch_lengths(lengths)
    return stack


def _with_column(model, kind, index, value):
    """The whole model a column write stands for."""
    if kind == "rate":
        return model.with_rate(index, value)
    ratios = frequency_ratios(model.frequencies)
    ratios[index] = value
    return model.with_frequencies(ratios_to_frequencies(ratios))


@st.composite
def column_writes(draw):
    """(states, kind, index, active slots, values) of one column write."""
    states = draw(st.sampled_from([4, 20]))
    n = 4 if states == 4 else 3
    kind = draw(st.sampled_from(["rate", "freq_ratio"]))
    width = n_exchange_rates(states) if kind == "rate" else states - 1
    index = draw(st.integers(0, width - 1))
    slots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    values = draw(st.lists(st.floats(0.02, 50.0), min_size=len(slots), max_size=len(slots)))
    return states, kind, index, sorted(slots), np.array(values)


class TestColumnWrites:
    """``set_column`` against ``set_models`` with each member's
    ``with_rate`` / ``with_frequencies`` model: bit for bit on DNA, to
    1e-12 on AA."""

    @staticmethod
    def _same(a, b, states):
        if states == 4:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=RTOL, atol=0.0)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(write=column_writes())
    def test_equals_whole_model_write(self, column_data, write):
        states, kind, index, slots, values = write
        got, want = _column_stack(column_data, states), _column_stack(column_data, states)
        got.loglikelihoods(0)
        workspace = got.prepare_edges([1], slots)
        got.set_column(kind, index, values, slots)
        want.set_models(
            [_with_column(want.models[i], kind, index, v) for i, v in zip(slots, values)], slots
        )
        for name in STACK_ARRAYS:
            self._same(getattr(got, name), getattr(want, name), states)
        self._same(got.loglikelihoods(0), want.loglikelihoods(0), states)
        self._same(got.column(kind, index, slots), want.column(kind, index, slots), states)
        np.testing.assert_allclose(got.column(kind, index, slots), values, rtol=1e-12)
        for i in range(got.n_slots):
            for attr in ("rates", "frequencies"):
                self._same(getattr(got.models[i], attr), getattr(want.models[i], attr), states)
            for attr in ("eigenvalues", "u", "v", "frequencies"):
                self._same(getattr(got.eigens[i], attr), getattr(want.eigens[i], attr), states)
                self._same(getattr(PartitionView(got, i).eigen, attr),
                           getattr(want.eigens[i], attr), states)
        with pytest.raises(RuntimeError, match="stale"):
            got.edge_derivatives(workspace, np.full((1, len(slots)), 0.1))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(write=column_writes(), bad=st.sampled_from([0.0, -1.0, np.nan, np.inf]),
           where=st.integers(0, 3))
    def test_bad_value_raises_and_leaves_stack(self, column_data, write, bad, where):
        states, kind, index, slots, values = write
        stack = _column_stack(column_data, states)
        values[where % len(values)] = bad
        before = {name: getattr(stack, name).copy() for name in STACK_ARRAYS}
        models = stack.models
        with pytest.raises(ValueError, match="finite and > 0"):
            stack.set_column(kind, index, values, slots)
        for name, array in before.items():
            np.testing.assert_array_equal(getattr(stack, name), array)
        for a, b in zip(stack.models, models):
            _same_model(a, b)

    def test_unknown_kind_and_index_refused(self, column_data):
        stack = _column_stack(column_data, 4)
        for kind, index in (("alpha", 0), ("rate", 6), ("freq_ratio", 3), ("rate", -1)):
            with pytest.raises(ValueError):
                stack.set_column(kind, index, np.ones(4))

    def test_engine_checks_every_stack_before_writing(self, dataset):
        """DNA and AA partitions in one engine: a bad AA value leaves the
        DNA stack unwritten too."""
        tree, lengths, data, models, alphas = dataset
        engine = PartitionedEngine(data, tree.copy(), models=models, alphas=alphas,
                                   initial_lengths=lengths)
        before = engine.exchangeabilities(0)
        with pytest.raises(ValueError):
            engine.set_exchangeabilities(0, np.array([2.0, 2.0, 2.0, np.nan]))
        np.testing.assert_array_equal(engine.exchangeabilities(0), before)
        _same_model(engine.parts[0].model, models[0])
        engine.run("write", [engine.frequency_ratio_step(0, np.array([2.0, 0.0, 0.0, 3.0]),
                                                         [0, 3])])
        np.testing.assert_allclose(engine.frequency_ratios(0)[[0, 3]], [2.0, 3.0], rtol=1e-12)
        _same_model(engine.parts[1].model, models[1])
