"""Likelihood-engine tests, including an independent brute-force oracle.

The oracle enumerates all internal-node state assignments of a quartet
tree and sums their probabilities directly from P(t) matrices — a from-
first-principles implementation sharing no code with the pruning kernel.
"""
import numpy as np
import pytest

from repro.plk import (
    Alignment,
    EigenSystem,
    PartitionLikelihood,
    PartitionView,
    PartitionedAlignment,
    SubstitutionModel,
    Tree,
    discrete_gamma_rates,
    uniform_scheme,
)
from repro.plk.partition import Partition, PartitionScheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment


def make_engine(alignment, tree, lengths, model=None, alpha=0.9):
    scheme = uniform_scheme(alignment.n_sites, alignment.n_sites, alignment.datatype)
    data = PartitionedAlignment(alignment, scheme)
    stack = PartitionLikelihood(
        [data.data[0]], tree, [model or SubstitutionModel.random_gtr(1)], alpha=alpha
    )
    engine = PartitionView(stack, 0)
    engine.set_branch_lengths(lengths)
    return engine


def brute_force_quartet_loglik(alignment, tree, lengths, model, alpha, categories=4):
    """Enumerate internal states of ((a,b),(c,d)) directly."""
    eig = EigenSystem.from_model(model)
    rates = discrete_gamma_rates(alpha, categories)
    tips = alignment.encode_tips()  # (4, m, states)
    pi = model.frequencies
    s = model.states
    m = alignment.n_sites
    # leaves 0,1 attach to node 4; leaves 2,3 to node 5; edge 4 joins 4-5.
    e = {
        leaf: tree.edge_between(leaf, tree.neighbors(leaf)[0]) for leaf in range(4)
    }
    e45 = tree.edge_between(4, 5)
    total = np.zeros(m)
    for k, r in enumerate(rates):
        p = {key: eig.transition_matrix(lengths[eid], r) for key, eid in e.items()}
        p45 = eig.transition_matrix(lengths[e45], r)
        site = np.zeros(m)
        for s4 in range(s):
            for s5 in range(s):
                term = (
                    pi[s4]
                    * (p[0][s4] @ tips[0].T)
                    * (p[1][s4] @ tips[1].T)
                    * p45[s4, s5]
                    * (p[2][s5] @ tips[2].T)
                    * (p[3][s5] @ tips[3].T)
                )
                site += term
        total += site / categories
    return float(np.log(total).sum())


class TestBruteForceOracle:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_quartet_gtr_gamma(self, quartet_tree, tiny_alignment, alpha):
        model = SubstitutionModel.random_gtr(9)
        lengths = np.array([0.11, 0.23, 0.05, 0.4, 0.17])
        engine = make_engine(tiny_alignment, quartet_tree, lengths, model, alpha)
        expected = brute_force_quartet_loglik(
            tiny_alignment, quartet_tree, lengths, model, alpha
        )
        assert engine.loglikelihood() == pytest.approx(expected, abs=1e-9)

    def test_quartet_jc(self, quartet_tree, tiny_alignment):
        model = SubstitutionModel.jc69()
        lengths = np.full(5, 0.2)
        engine = make_engine(tiny_alignment, quartet_tree, lengths, model, 1.0)
        expected = brute_force_quartet_loglik(
            tiny_alignment, quartet_tree, lengths, model, 1.0
        )
        assert engine.loglikelihood() == pytest.approx(expected, abs=1e-9)

    def test_single_pattern_partition(self, quartet_tree):
        aln = Alignment.from_sequences({"a": "A", "b": "C", "c": "G", "d": "R"})
        model = SubstitutionModel.random_gtr(3)
        lengths = np.array([0.3, 0.05, 0.2, 0.6, 0.1])
        engine = make_engine(aln, quartet_tree, lengths, model, 0.7)
        assert engine.n_patterns == 1
        expected = brute_force_quartet_loglik(aln, quartet_tree, lengths, model, 0.7)
        for edge in range(quartet_tree.n_edges):
            assert engine.loglikelihood(edge) == pytest.approx(expected, abs=1e-9)


class TestRootInvariance:
    def test_all_root_placements_agree(self, small_tree, small_alignment):
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths)
        values = [engine.loglikelihood(edge) for edge in range(tree.n_edges)]
        np.testing.assert_allclose(values, values[0], atol=1e-8)

    def test_invariance_with_scaling(self):
        """Deep star-ish tree with short branches triggers the scaling
        machinery; invariance must survive it."""
        rng = np.random.default_rng(8)
        tree, lengths = random_topology_with_lengths(40, rng, mean_length=0.02)
        model = SubstitutionModel.random_gtr(2)
        aln = simulate_alignment(tree, lengths, model, 0.1, 50, rng)
        engine = make_engine(aln, tree, lengths, model, alpha=0.1)
        values = [engine.loglikelihood(e) for e in (0, 10, 30, tree.n_edges - 1)]
        np.testing.assert_allclose(values, values[0], atol=1e-7)


class TestDeepScaling:
    """160 taxa with long branches: about half the patterns carry
    nonzero scaling counters at the root, and some are invariant."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(14)
        tree, lengths = random_topology_with_lengths(160, rng, mean_length=0.5)
        model = SubstitutionModel.random_gtr(6)
        aln = simulate_alignment(tree, lengths, model, 0.5, 200, rng)
        return aln, tree, lengths, model

    def test_invariant_mixture(self, workload):
        """+I mixes in the unscaled domain: the mixed per-pattern values
        follow from the pinv=0 ones and the invariant masses, and stay
        root-invariant."""
        aln, tree, lengths, model = workload
        engine = make_engine(aln, tree, lengths, model, alpha=0.5)
        assert engine.prepare_branch(0).scale.max() > 0
        gamma = engine.site_loglikelihoods(0)
        inv = engine.invariant_probabilities()
        assert (inv > 0).any()
        engine.pinv = 0.25
        with np.errstate(divide="ignore"):
            expected = np.logaddexp(
                np.log(0.75) + gamma, np.log(0.25) + np.log(inv)
            )
        np.testing.assert_allclose(engine.site_loglikelihoods(0), expected,
                                   rtol=1e-12)
        values = [engine.loglikelihood(e) for e in (0, 10, tree.n_edges - 1)]
        np.testing.assert_allclose(values, values[0], atol=1e-7)

    def test_branch_machinery(self, workload):
        """The sumtable path reproduces the full evaluation and its
        derivatives under heavy scaling."""
        aln, tree, lengths, model = workload
        engine = make_engine(aln, tree, lengths, model, alpha=0.5)
        assert engine.prepare_branch(0).scale.max() > 0
        for edge in (0, 5, tree.n_edges - 1):
            ws = engine.prepare_branch(edge)
            assert engine.branch_loglikelihood(ws, lengths[edge]) == pytest.approx(
                engine.loglikelihood(edge), abs=1e-7
            )
            f = lambda z: engine.branch_loglikelihood(ws, z)
            for z in (0.02, 0.3):
                d1, d2 = engine.branch_derivatives(ws, z)
                h = 1e-6
                assert d1 == pytest.approx((f(z + h) - f(z - h)) / (2 * h),
                                           rel=1e-4, abs=1e-3)
                h = 1e-4
                assert d2 == pytest.approx(
                    (f(z + h) - 2 * f(z) + f(z - h)) / h**2, rel=1e-3, abs=1e-1
                )


class TestPatternCompression:
    def test_compressed_equals_uncompressed(self, small_tree):
        tree, lengths = small_tree
        rng = np.random.default_rng(12)
        model = SubstitutionModel.random_gtr(4)
        aln = simulate_alignment(tree, lengths, model, 1.0, 400, rng)
        # duplicate some columns explicitly
        mat = np.concatenate([aln.matrix, aln.matrix[:, :150]], axis=1)
        dup = Alignment(aln.taxa, mat, aln.datatype)
        engine = make_engine(dup, tree, lengths, model)
        # manual weighting: lnl(dup) should equal lnl over distinct patterns
        # with weights (this is internal to PartitionedAlignment, which
        # compresses), so build an uncompressed reference by hand:
        patterns, weights, _ = dup.compress()
        assert patterns.n_sites < dup.n_sites
        lnl_patterns = make_engine(patterns, tree, lengths, model)
        site_lnl = lnl_patterns.site_loglikelihoods()
        assert engine.loglikelihood() == pytest.approx(
            float(weights @ site_lnl), abs=1e-8
        )


class TestIncrementalUpdates:
    def test_branch_change_matches_fresh_engine(self, small_tree, small_alignment):
        tree, lengths = small_tree
        model = SubstitutionModel.random_gtr(6)
        engine = make_engine(small_alignment, tree, lengths, model)
        engine.loglikelihood()  # populate CLVs
        new_lengths = lengths.copy()
        new_lengths[3] *= 2.5
        engine.set_branch_length(3, new_lengths[3])
        incremental = engine.loglikelihood()
        fresh = make_engine(small_alignment, tree, new_lengths, model)
        assert incremental == pytest.approx(fresh.loglikelihood(), abs=1e-9)

    def test_alpha_change_matches_fresh_engine(self, small_tree, small_alignment):
        tree, lengths = small_tree
        model = SubstitutionModel.random_gtr(6)
        engine = make_engine(small_alignment, tree, lengths, model, alpha=1.0)
        engine.loglikelihood()
        engine.alpha = 0.3
        fresh = make_engine(small_alignment, tree, lengths, model, alpha=0.3)
        assert engine.loglikelihood() == pytest.approx(fresh.loglikelihood(), abs=1e-9)

    def test_model_change_matches_fresh_engine(self, small_tree, small_alignment):
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths, SubstitutionModel.jc69())
        engine.loglikelihood()
        new_model = SubstitutionModel.random_gtr(42)
        engine.model = new_model
        fresh = make_engine(small_alignment, tree, lengths, new_model)
        assert engine.loglikelihood() == pytest.approx(fresh.loglikelihood(), abs=1e-9)

    def test_refresh_count_partial(self, small_tree, small_alignment):
        """After one branch change, only the affected path recomputes."""
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths)
        engine.loglikelihood(0)
        full = engine.refresh(0)
        assert full == 0  # everything valid
        engine.set_branch_length(2, 0.33)
        partial = engine.refresh(0)
        assert 1 <= partial <= tree.n_taxa - 2

    def test_datatype_mismatch_rejected(self, small_tree, small_alignment):
        tree, lengths = small_tree
        with pytest.raises(ValueError, match="states"):
            make_engine(
                small_alignment, tree, lengths, SubstitutionModel.poisson_aa()
            )


class TestBranchWorkspace:
    def test_workspace_loglik_consistent_across_edges(self, small_tree, small_alignment):
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths)
        ref = engine.loglikelihood()
        for edge in range(0, tree.n_edges, 3):
            ws = engine.prepare_branch(edge)
            assert engine.branch_loglikelihood(ws, lengths[edge]) == pytest.approx(
                ref, abs=1e-8
            )

    def test_derivative_zero_at_optimum(self, small_tree, small_alignment):
        """After optimizing a branch, its gradient vanishes."""
        from repro.optimize import newton_optimize

        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths)
        ws = engine.prepare_branch(1)
        z, iters, conv = newton_optimize(
            lambda z: engine.branch_derivatives(ws, z), lengths[1]
        )
        assert conv
        d1, d2 = engine.branch_derivatives(ws, z)
        assert abs(d1) < 1e-2
        assert d2 < 0  # maximum, not saddle

    def test_gamma_rates_property(self, small_tree, small_alignment):
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths, alpha=0.5)
        assert engine.gamma_rates.mean() == pytest.approx(1.0)
        assert engine.n_patterns > 0


class TestWorkspaceStaleness:
    """Regression tests for the stale-workspace bug: a BranchWorkspace
    prepared before a model-parameter change silently mixed the OLD
    sumtable with the NEW rates/eigensystem, producing a wrong-but-
    plausible likelihood.  Pre-fix, the alpha case below returned a
    finite lnl ~7.6 units off instead of raising."""

    def test_alpha_change_invalidates_workspace(self, small_tree, small_alignment):
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths, alpha=1.0)
        ws = engine.prepare_branch(2)
        fresh_lnl = engine.branch_loglikelihood(ws, lengths[2])
        assert np.isfinite(fresh_lnl)  # usable while parameters stand still
        engine.alpha = 0.3  # rates change; branch length held fixed
        with pytest.raises(RuntimeError, match="stale"):
            engine.branch_loglikelihood(ws, lengths[2])
        with pytest.raises(RuntimeError, match="stale"):
            engine.branch_derivatives(ws, lengths[2])
        # re-preparing after the change gives the correct value
        ws2 = engine.prepare_branch(2)
        expected = make_engine(
            small_alignment, tree, lengths, alpha=0.3
        ).loglikelihood()
        assert engine.branch_loglikelihood(ws2, lengths[2]) == pytest.approx(
            expected, abs=1e-8
        )

    def test_model_change_invalidates_workspace(self, small_tree, small_alignment):
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths,
                             SubstitutionModel.jc69())
        ws = engine.prepare_branch(1)
        engine.model = SubstitutionModel.random_gtr(42)
        with pytest.raises(RuntimeError, match="stale"):
            engine.branch_derivatives(ws, lengths[1])

    def test_branch_length_changes_do_not_invalidate(self, small_tree, small_alignment):
        """The whole point of a sumtable: it is valid for ANY length of
        its own edge, so length updates must not trip the guard."""
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths)
        ws = engine.prepare_branch(4)
        engine.set_branch_length(4, 0.42)
        assert np.isfinite(engine.branch_loglikelihood(ws, 0.42))

    def test_p_cache_keyed_on_parameters(self, small_tree, small_alignment):
        """Warm engine after a model change == cold engine: the per-edge
        P(t) cache must never serve matrices from the old eigensystem."""
        tree, lengths = small_tree
        engine = make_engine(small_alignment, tree, lengths,
                             SubstitutionModel.jc69())
        engine.loglikelihood()  # warm every cache
        new_model = SubstitutionModel.random_gtr(123)
        engine.model = new_model
        warm = engine.loglikelihood()
        cold = make_engine(small_alignment, tree, lengths, new_model)
        assert warm == pytest.approx(cold.loglikelihood(), abs=1e-9)
