"""Proportion-of-invariable-sites (+I) model tests."""
import numpy as np
import pytest

from repro.core import PartitionedEngine, optimize_pinv
from repro.plk import (
    Alignment,
    PartitionedAlignment,
    PartitionLikelihood,
    PartitionView,
    SubstitutionModel,
    uniform_scheme,
)
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def mixed_data():
    """70% Gamma-variable sites + 30% strictly invariant sites."""
    rng = np.random.default_rng(7)
    tree, lengths = random_topology_with_lengths(8, rng)
    model = SubstitutionModel.random_gtr(5)
    variable = simulate_alignment(tree, lengths, model, 1.0, 1_400, rng)
    frozen = simulate_alignment(
        tree, np.full(tree.n_edges, 1e-8), model, 1.0, 600, rng
    )
    aln = Alignment(
        tree.taxa, np.concatenate([variable.matrix, frozen.matrix], axis=1)
    )
    data = PartitionedAlignment(aln, uniform_scheme(2_000, 2_000))
    return data, tree, lengths, model


def make_engine(data, tree, lengths, model, pinv=0.0):
    part = PartitionView(PartitionLikelihood([data.data[0]], tree, [model], alpha=1.0), 0)
    part.set_branch_lengths(lengths)
    part.pinv = pinv
    return part


class TestModel:
    def test_pinv_zero_is_plain_gamma(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = make_engine(data, tree, lengths, model)
        base = engine.loglikelihood(0)
        engine.pinv = 0.0
        assert engine.loglikelihood(0) == base

    def test_pinv_bounds(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = make_engine(data, tree, lengths, model)
        with pytest.raises(ValueError):
            engine.pinv = 1.0
        with pytest.raises(ValueError):
            engine.pinv = -0.1

    def test_invariant_probabilities(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = make_engine(data, tree, lengths, model)
        inv = engine.invariant_probabilities()
        assert inv.shape == (engine.n_patterns,)
        assert (inv >= 0).all() and (inv <= 1.0 + 1e-12).all()
        # variable patterns have zero invariant mass; some patterns must
        # be invariant in this dataset
        assert (inv == 0).any() and (inv > 0).any()

    def test_pinv_improves_fit_on_mixture_data(self, mixed_data):
        data, tree, lengths, model = mixed_data
        plain = make_engine(data, tree, lengths, model, pinv=0.0)
        mixed = make_engine(data, tree, lengths, model, pinv=0.3)
        assert mixed.loglikelihood(0) > plain.loglikelihood(0)

    def test_root_invariance_with_pinv(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = make_engine(data, tree, lengths, model, pinv=0.25)
        values = [engine.loglikelihood(e) for e in (0, 3, tree.n_edges - 1)]
        np.testing.assert_allclose(values, values[0], atol=1e-8)

    @pytest.mark.parametrize("pinv", [0.0, 0.3])
    def test_site_loglikelihoods_sum_to_loglikelihood(self, pinv):
        """The per-pattern values carry the +I mixture: their weighted
        sum IS the partition log-likelihood, at every root placement."""
        rng = np.random.default_rng(3)
        tree, lengths = random_topology_with_lengths(6, rng)
        model = SubstitutionModel.random_gtr(4)
        aln = simulate_alignment(tree, lengths, model, 1.0, 300, rng)
        data = PartitionedAlignment(aln, uniform_scheme(300, 300))
        engine = make_engine(data, tree, lengths, model, pinv=pinv)
        weights = engine.data.weights
        for edge in (0, tree.n_edges - 1):
            logs = engine.site_loglikelihoods(edge)
            assert weights @ logs == engine.loglikelihood(edge)

    def test_pinv_does_not_invalidate_clvs(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = make_engine(data, tree, lengths, model)
        engine.loglikelihood(0)
        engine.pinv = 0.2
        assert engine.refresh(0) == 0  # nothing recomputed


class TestBranchMachinery:
    def test_workspace_lnl_matches_full(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = make_engine(data, tree, lengths, model, pinv=0.3)
        ref = engine.loglikelihood(2)
        ws = engine.prepare_branch(2)
        assert engine.branch_loglikelihood(ws, lengths[2]) == pytest.approx(
            ref, abs=1e-8
        )

    def test_derivatives_match_finite_differences(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = make_engine(data, tree, lengths, model, pinv=0.3)
        ws = engine.prepare_branch(4)
        z = 0.17
        d1, d2 = engine.branch_derivatives(ws, z)
        f = lambda zz: engine.branch_loglikelihood(ws, zz)
        h = 1e-6
        assert d1 == pytest.approx((f(z + h) - f(z - h)) / (2 * h), rel=1e-4)
        h = 1e-4
        assert d2 == pytest.approx(
            (f(z + h) - 2 * f(z) + f(z - h)) / h**2, rel=1e-3
        )


class TestOptimization:
    def test_recovers_invariant_fraction(self, mixed_data):
        data, tree, lengths, model = mixed_data
        for strategy in ("old", "new"):
            engine = PartitionedEngine(
                data, tree.copy(), models=[model], initial_lengths=lengths
            )
            optimize_pinv(engine, strategy)
            assert engine.parts[0].pinv == pytest.approx(0.3, abs=0.07)

    def test_improves_likelihood(self, mixed_data):
        data, tree, lengths, model = mixed_data
        engine = PartitionedEngine(
            data, tree.copy(), models=[model], initial_lengths=lengths
        )
        before = engine.loglikelihood()
        optimize_pinv(engine, "new")
        assert engine.loglikelihood() > before

    def test_near_zero_on_saturated_data(self):
        """All-variable data (long branches): pinv optimizes to ~0."""
        rng = np.random.default_rng(9)
        tree, lengths = random_topology_with_lengths(6, rng)
        model = SubstitutionModel.random_gtr(1)
        aln = simulate_alignment(tree, lengths * 5.0, model, 5.0, 800, rng)
        data = PartitionedAlignment(aln, uniform_scheme(800, 800))
        engine = PartitionedEngine(
            data, tree.copy(), models=[model], initial_lengths=lengths * 5.0
        )
        optimize_pinv(engine, "new")
        assert engine.parts[0].pinv < 0.05
