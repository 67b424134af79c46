"""Hill-climbing search tests: monotonicity, strategy equivalence,
topology recovery."""
import numpy as np
import pytest

from repro.core import PartitionedEngine, TraceRecorder
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.search import nni_round, spr_round, tree_search
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def search_setup():
    """A 8-taxon, 2-partition dataset with a known generating tree and a
    deliberately wrong starting tree (one SPR away)."""
    rng = np.random.default_rng(21)
    tree, lengths = random_topology_with_lengths(8, rng, mean_length=0.08)
    model = SubstitutionModel.random_gtr(2)
    aln = simulate_alignment(tree, lengths, model, 1.0, 1200, rng)
    data = PartitionedAlignment(aln, uniform_scheme(1200, 600))
    return tree, lengths, data


def wrong_start(tree, far=False):
    """Perturb the true topology by one SPR (nearby by default)."""
    from repro.search import spr_move, spr_targets

    start = tree.copy()
    for prune, u, v in start.edges():
        if start.is_leaf(u) and start.is_leaf(v):
            continue
        targets = spr_targets(start, prune, radius=3)
        if targets:
            spr_move(start, prune, targets[-1] if far else targets[0])
            break
    return start


class TestSPRRound:
    def test_likelihood_never_decreases(self, search_setup):
        tree, lengths, data = search_setup
        start = wrong_start(tree)
        engine = PartitionedEngine(data, start, initial_lengths=lengths)
        before = engine.loglikelihood()
        after, accepted, evaluated = spr_round(engine, "new", radius=3)
        assert after >= before - 1e-9
        assert evaluated > 0

    def test_recovers_true_topology(self, search_setup):
        tree, lengths, data = search_setup
        start = wrong_start(tree)
        assert start.robinson_foulds(tree) > 0
        engine = PartitionedEngine(data, start, initial_lengths=lengths)
        spr_round(engine, "new", radius=3)
        assert start.robinson_foulds(tree) == 0

    def test_old_and_new_find_same_moves(self, search_setup):
        tree, lengths, data = search_setup
        results = {}
        for strategy in ("old", "new"):
            start = wrong_start(tree)
            engine = PartitionedEngine(data, start, initial_lengths=lengths)
            lnl, acc, ev = spr_round(engine, strategy, radius=3)
            results[strategy] = (round(lnl, 4), acc, ev, start.splits())
        assert results["old"] == results["new"]

    def test_max_candidates_cap(self, search_setup):
        tree, lengths, data = search_setup
        start = wrong_start(tree)
        engine = PartitionedEngine(data, start, initial_lengths=lengths)
        _, _, evaluated = spr_round(engine, "new", radius=3, max_candidates=5)
        assert evaluated <= 5


class TestNNIRound:
    def test_likelihood_never_decreases(self, search_setup):
        tree, lengths, data = search_setup
        start = wrong_start(tree)
        engine = PartitionedEngine(data, start, initial_lengths=lengths)
        before = engine.loglikelihood()
        after, _, evaluated = nni_round(engine, "new")
        assert after >= before - 1e-9
        assert evaluated > 0


class TestTreeSearch:
    def test_full_search_improves(self, search_setup):
        tree, lengths, data = search_setup
        start = wrong_start(tree)
        engine = PartitionedEngine(data, start, initial_lengths=lengths)
        initial = engine.loglikelihood()
        result = tree_search(engine, "new", radius=3, max_rounds=2)
        assert result.loglikelihood > initial
        assert result.history == sorted(result.history) or all(
            b - a > -1e-6 for a, b in zip(result.history, result.history[1:])
        )

    def test_tree_left_valid(self, search_setup):
        tree, lengths, data = search_setup
        start = wrong_start(tree)
        engine = PartitionedEngine(data, start, initial_lengths=lengths)
        tree_search(engine, "new", radius=2, max_rounds=1, max_candidates=20)
        start.validate()

    def test_bad_moves_arg(self, search_setup):
        """The search is SPR only: ``moves=`` (and ``spr_round``'s
        ``accept=``) are gone."""
        tree, lengths, data = search_setup
        engine = PartitionedEngine(data, tree.copy(), initial_lengths=lengths)
        with pytest.raises(TypeError):
            tree_search(engine, moves="tbr")
        with pytest.raises(TypeError):
            spr_round(engine, "new", accept="best")

    def test_trace_capture_during_search(self, search_setup):
        """Searches emit well-formed region traces."""
        tree, lengths, data = search_setup
        rec = TraceRecorder()
        engine = PartitionedEngine(
            data, wrong_start(tree), initial_lengths=lengths, recorder=rec
        )
        tree_search(engine, "new", radius=2, max_rounds=1, max_candidates=10)
        trace = rec.finalize(engine.pattern_counts(), engine.states())
        assert trace.n_regions > 0
        assert all(region.items for region in trace.regions)


class TestReturnedLikelihoodIsTheEngines:
    """A sweep's returned lnL must be the engine's lnL afterwards: a
    rejected move has to leave every length it optimized as it found it
    (NNI once kept the central edge's new lengths)."""

    @pytest.fixture(scope="class", params=[0, 1, 2, 3])
    def parsimony_setup(self, request):
        from repro.search import stepwise_addition_tree

        rng = np.random.default_rng(request.param)
        tree, lengths = random_topology_with_lengths(8, rng, mean_length=0.1)
        aln = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(1), 1.0, 160, rng)
        data = PartitionedAlignment(aln, uniform_scheme(160, 80))
        start = stepwise_addition_tree(aln, np.random.default_rng(request.param))
        return data, start

    def test_nni_round(self, parsimony_setup):
        data, start = parsimony_setup
        engine = PartitionedEngine(data, start.copy())
        lnl, _, _ = nni_round(engine, "new")
        assert engine.loglikelihood() == pytest.approx(lnl, rel=1e-9)

    @pytest.mark.parametrize("strategy", ["new", "tree"])
    def test_spr_round(self, parsimony_setup, strategy):
        data, start = parsimony_setup
        engine = PartitionedEngine(data, start.copy())
        lnl, _, _ = spr_round(engine, strategy, radius=2)
        assert engine.loglikelihood() == pytest.approx(lnl, rel=1e-9)
