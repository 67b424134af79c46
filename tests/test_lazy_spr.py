"""Lazy SPR scores on one axis equal a fresh engine on the moved tree.

``("lnl_regrafts", prune_edge, targets)`` scores every regraft of the
subtree on ``prune_edge`` in one call per stack, from the CLVs oriented
toward the prune edge and the outside (pre-order) CLVs of the pruned
tree.  Each ``(target, partition)`` score must equal the log-likelihood a
fresh :class:`~repro.core.engine.PartitionedEngine` computes on the tree
after :func:`~repro.search.moves.spr_move`, at RAxML's lazy lengths: the
target edge split in half, the pruned edge kept, the two edges the prune
fuses summed.  Covered: random 5-12-taxon trees, DNA and AA members (two
stacks), +I, a dead (``ZERO_SCALE``) pattern, a zero-width member, per-
partition lengths, and worker slices that sum to the whole.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartitionedEngine
from repro.parallel import WorkerState, slice_partition_data
from repro.plk import (
    Alignment,
    PartitionData,
    PartitionedAlignment,
    SubstitutionModel,
    parse_partition_file,
)
from repro.search import spr_move, spr_targets
from repro.seqgen import random_topology_with_lengths, simulate_alignment

RTOL = 1e-9
PINVS = np.array([0.2, 0.0, 0.0, 0.1])


class _Blocks:
    """What :class:`PartitionedEngine` reads of a partitioned alignment,
    over hand-made blocks (a zero-width member has no scheme)."""

    def __init__(self, blocks):
        self.data = list(blocks)
        self.n_partitions = len(self.data)


def _dataset(seed: int, n_taxa: int):
    """Blocks a (DNA, one dead pattern at weight 0), b (DNA), a zero-width
    DNA member and c (AA); models, alphas and per-partition lengths."""
    rng = np.random.default_rng(seed)
    tree, lengths = random_topology_with_lengths(n_taxa, rng, mean_length=0.12)
    dna = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(seed), 0.8, 50, rng)
    aa = simulate_alignment(tree, lengths, SubstitutionModel.synthetic_aa(seed), 1.0, 12, rng)
    aln = Alignment(tree.taxa, np.concatenate([dna.matrix, aa.matrix], axis=1))
    data = PartitionedAlignment(
        aln, parse_partition_file("DNA, a = 1-35\nDNA, b = 36-50\nAA, c = 51-62"))
    a, b, c = data.data
    tips = a.tip_states.copy()
    tips[0, 1, :] = 0.0  # no state fits taxon 0 at pattern 1
    weights = a.weights.copy()
    weights[1] = 0.0
    blocks = [PartitionData(a.partition, tips, weights), b,
              PartitionData(b.partition, b.tip_states[:, :0], b.weights[:0]), c]
    models = [SubstitutionModel.random_gtr(seed + 1), SubstitutionModel.random_gtr(seed + 2),
              SubstitutionModel.random_gtr(seed + 3), SubstitutionModel.synthetic_aa(seed + 4)]
    alphas = [0.6, 1.4, 1.0, 0.9]
    per_part = lengths[:, np.newaxis] * rng.uniform(0.5, 1.5, (len(lengths), 4))
    return tree, blocks, models, alphas, per_part


def _engine(blocks, tree, models, alphas, lengths):
    engine = PartitionedEngine(_Blocks(blocks), tree, models=models, alphas=alphas)
    engine.run("write", [("set_bl_edges", None, lengths, None)])
    engine.set_pinvs(PINVS)
    return engine


def _fresh_lazy(blocks, tree, models, alphas, lengths, prune, target) -> np.ndarray:
    """``(P,)`` lnLs of a fresh engine on the moved tree at lazy lengths."""
    moved = tree.copy()
    e_ab, e_ac, _ = spr_move(moved, prune, target).changed_edges
    lazy = lengths.copy()
    lazy[e_ab] = lengths[e_ab] + lengths[e_ac]
    lazy[target] = lazy[e_ac] = lengths[target] / 2.0
    return _engine(blocks, moved, models, alphas, lazy).partition_loglikelihoods()


def _prunes(tree, radius):
    for prune in range(tree.n_edges):
        try:
            targets = spr_targets(tree, prune, radius)
        except ValueError:
            continue
        if targets:
            yield prune, targets


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), n_taxa=st.integers(5, 12))
def test_every_lazy_score_equals_a_fresh_engine(seed, n_taxa):
    tree, blocks, models, alphas, lengths = _dataset(seed, n_taxa)
    engine = _engine(blocks, tree.copy(), models, alphas, lengths)
    for prune, targets in _prunes(engine.tree, radius=3):
        (scores,) = engine.run("spr_lazy", [("lnl_regrafts", prune, targets)])
        assert scores.shape == (len(targets), 4)
        for row, target in zip(scores, targets):
            ref = _fresh_lazy(blocks, engine.tree, models, alphas, lengths, prune, target)
            np.testing.assert_allclose(row, ref, rtol=RTOL, atol=1e-12)
        assert (scores[:, 2] == 0.0).all()  # the zero-width member


def test_worker_slices_sum_to_the_whole():
    """Per-worker partial scores over the cyclic slices (short members
    leave some workers zero patterns) reduce to the one-process ones."""
    tree, _, models, alphas, lengths = _dataset(3, 9)
    rng = np.random.default_rng(3)
    dna = simulate_alignment(tree, lengths[:, 0], SubstitutionModel.random_gtr(0), 1.0, 40, rng)
    aa = simulate_alignment(tree, lengths[:, 0], SubstitutionModel.synthetic_aa(1), 1.0, 3, rng)
    data = PartitionedAlignment(
        Alignment(tree.taxa, np.concatenate([dna.matrix, aa.matrix], axis=1)),
        parse_partition_file("DNA, a = 1-30\nDNA, b = 31-40\nAA, c = 41-43"))
    models, alphas, lengths = models[:2] + models[3:], alphas[:3], lengths[:, :3]
    whole = PartitionedEngine(data, tree.copy(), models=models, alphas=alphas)
    whole.run("write", [("set_bl_edges", None, lengths, None)])
    workers = [WorkerState.from_slices(slice_partition_data(data, 4, w), tree.copy(),
                                       models, alphas, lengths) for w in range(4)]
    for prune, targets in _prunes(tree, radius=4):
        cmd = ("lnl_regrafts", prune, targets)
        (ref,) = whole.run("spr_lazy", [cmd])
        total = sum(worker.execute(cmd) for worker in workers)
        np.testing.assert_allclose(total, ref, rtol=1e-12)


class TestOutsideBuffer:
    @pytest.fixture
    def engine(self):
        tree, blocks, models, alphas, lengths = _dataset(11, 8)
        return _engine(blocks, tree, models, alphas, lengths), (blocks, models, alphas)

    def test_allocated_by_the_first_scoring_call(self, engine):
        engine, _ = engine
        assert all(stack._outside is None for stack in engine.stacks)
        prune, targets = next(_prunes(engine.tree, radius=2))
        engine.run("spr_lazy", [("lnl_regrafts", prune, targets)])
        assert all(stack._outside is not None for stack in engine.stacks)

    def test_reused_until_an_invalidation(self, engine):
        """A second call on the same prune edge recomputes no outside
        CLV; after a length change the scores follow the new length."""
        from repro.core import TraceRecorder

        engine, (blocks, models, alphas) = engine
        prune, targets = max(_prunes(engine.tree, radius=5), key=lambda x: len(x[1]))
        cmd = ("lnl_regrafts", prune, targets)
        engine.run("spr_lazy", [cmd])
        engine.recorder = recorder = TraceRecorder()
        (first,) = engine.run("spr_lazy", [cmd])
        newviews = {it.partition: it.count for it in recorder.trace.regions[-1].items
                    if it.op == "newview"}
        assert set(newviews.values()) == {len(targets)}  # the insertion vectors only
        far = targets[-1]
        engine.set_branch_length(far, 0.37)
        (second,) = engine.run("spr_lazy", [cmd])
        lengths = engine.branch_lengths()
        for row, target in zip(second, targets):
            ref = _fresh_lazy(blocks, engine.tree, models, alphas, lengths, prune, target)
            np.testing.assert_allclose(row, ref, rtol=RTOL, atol=1e-12)
        assert not np.allclose(first, second)

    def test_rejects_targets_off_the_pruned_tree(self, engine):
        engine, _ = engine
        tree = engine.tree
        prune, _ = next(_prunes(tree, radius=2))
        s, a = tree.edge_nodes(prune)
        if tree.is_leaf(a):
            s, a = a, s
        adjacent = next(tree.edge_between(a, nb) for nb in tree.neighbors(a) if nb != s)
        with pytest.raises(ValueError, match="junction"):
            engine.run("spr_lazy", [("lnl_regrafts", prune, [adjacent])])
        with pytest.raises(ValueError, match="subtree"):
            engine.run("spr_lazy", [("lnl_regrafts", prune, [prune])])
