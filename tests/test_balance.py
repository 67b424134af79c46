"""Cost-aware load balancing: cost model, distribution plans, rebalancer.

Covers the plan invariants every policy must satisfy (each partition's
patterns are assigned exactly once), the analytic and calibrated cost
models, the cost-aware policies beating cyclic on adversarial mixed-data
layouts, the measured-feedback Rebalancer loop, and the integration with
the real parallel backends and the simulator.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartitionedEngine, TraceRecorder
from repro.parallel import (
    DISTRIBUTIONS,
    CostModel,
    DistributionPlan,
    ParallelPLK,
    PartitionLayout,
    Rebalancer,
    build_plan,
    imbalance_ratio,
    partition_thread_counts,
    pattern_weight,
    slice_partition_data,
)
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

#: An adversarial mixed-data geometry for the static policies: every AA
#: partition has length 1 and starts at a global index divisible by 4, so
#: cyclic distribution with T=4 stacks ALL the expensive patterns on
#: thread 0 while the cost-aware policies spread them.
ADVERSARIAL = PartitionLayout(
    lengths=(1, 3, 1, 3, 1, 3, 1, 3),
    states=(20, 4, 20, 4, 20, 4, 20, 4),
)


class TestPatternWeight:
    def test_aa_is_25x_dna(self):
        assert pattern_weight(20) / pattern_weight(4) == 25.0

    def test_scales_with_categories(self):
        assert pattern_weight(4, 8) == 2 * pattern_weight(4, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            pattern_weight(1)
        with pytest.raises(ValueError):
            pattern_weight(4, 0)


class TestImbalanceRatio:
    def test_perfect(self):
        assert imbalance_ratio([3.0, 3.0, 3.0]) == 1.0

    def test_concentrated(self):
        assert imbalance_ratio([4.0, 0.0, 0.0, 0.0]) == 4.0

    def test_all_idle_counts_as_balanced(self):
        assert imbalance_ratio([0.0, 0.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            imbalance_ratio([])


class TestPartitionLayout:
    def test_offsets_and_total(self):
        lay = PartitionLayout((30, 0, 10), (4, 4, 20))
        assert lay.total == 40
        assert lay.offsets().tolist() == [0, 30, 30]

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionLayout((), ())
        with pytest.raises(ValueError):
            PartitionLayout((10,), (4, 20))
        with pytest.raises(ValueError):
            PartitionLayout((-1,), (4,))
        with pytest.raises(ValueError):
            PartitionLayout((10,), (1,))

    def test_from_trace_requires_finalized(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError, match="not finalized"):
            PartitionLayout.from_trace(rec.trace)
        trace = rec.finalize(np.array([5, 7]), np.array([4, 20]), categories=2)
        lay = PartitionLayout.from_trace(trace)
        assert lay.lengths == (5, 7)
        assert lay.states == (4, 20)
        assert lay.categories == 2


class TestCostModel:
    def test_analytic(self):
        lay = PartitionLayout((10, 10), (4, 20))
        model = CostModel.analytic(lay)
        assert model.unit == "relative"
        assert model.per_pattern.tolist() == [64.0, 1600.0]
        assert model.partition_costs(lay).tolist() == [640.0, 16000.0]

    def test_calibrated_recovers_planted_costs(self):
        """With enough informative workers, least squares recovers the
        true per-class seconds exactly.  The warmup plan is block: its
        thread shares differ strongly between datatype classes, so the
        fit is full-rank (cyclic on T-divisible lengths gives every
        thread identical class counts and would be degenerate)."""
        lay = PartitionLayout((40, 24, 16), (4, 20, 4))
        plan = build_plan(lay, 4, "block")
        true = np.where(np.asarray(lay.states) == 4, 2e-6, 9e-5)
        busy = plan.counts.T @ true
        model = CostModel.calibrated(lay, plan, busy)
        assert model.unit == "seconds"
        np.testing.assert_allclose(model.per_pattern, true, rtol=1e-9)

    def test_calibrated_fallback_rescales_analytic(self):
        """One worker cannot separate two datatype classes: the fallback
        keeps the analytic 25x ratio but matches the measured total."""
        lay = PartitionLayout((40, 24), (4, 20))
        plan = build_plan(lay, 1, "cyclic")
        model = CostModel.calibrated(lay, plan, np.array([0.5]))
        ratio = model.per_pattern[1] / model.per_pattern[0]
        assert ratio == pytest.approx(25.0)
        predicted_total = float((plan.counts.T @ model.per_pattern).sum())
        assert predicted_total == pytest.approx(0.5)

    def test_calibrated_shape_check(self):
        lay = PartitionLayout((10,), (4,))
        plan = build_plan(lay, 2, "cyclic")
        with pytest.raises(ValueError, match="busy_seconds"):
            CostModel.calibrated(lay, plan, np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            CostModel(np.zeros((2, 2)))


def _assert_plan_invariants(plan: DistributionPlan):
    lay = plan.layout
    for p, length in enumerate(lay.lengths):
        merged = np.concatenate(
            [plan.thread_indices(p, t) for t in range(plan.n_threads)]
        )
        assert sorted(merged.tolist()) == list(range(length))
        assert plan.counts[p].sum() == length
        np.testing.assert_array_equal(
            plan.partition_thread_counts(p), plan.counts[p]
        )
    assert plan.thread_patterns().sum() == lay.total


class TestBuildPlan:
    @pytest.mark.parametrize("policy", DISTRIBUTIONS)
    def test_invariants_mixed_layout(self, policy):
        plan = build_plan(ADVERSARIAL, 4, policy)
        assert plan.policy == policy
        _assert_plan_invariants(plan)

    @pytest.mark.parametrize("policy", DISTRIBUTIONS)
    def test_zero_length_partitions(self, policy):
        lay = PartitionLayout((0, 12, 0, 5), (20, 4, 4, 20))
        plan = build_plan(lay, 3, policy)
        _assert_plan_invariants(plan)
        assert plan.counts[0].sum() == 0
        assert plan.counts[2].sum() == 0

    @pytest.mark.parametrize("policy", DISTRIBUTIONS)
    def test_more_threads_than_patterns(self, policy):
        lay = PartitionLayout((2, 1), (4, 20))
        plan = build_plan(lay, 16, policy)
        _assert_plan_invariants(plan)

    def test_static_counts_match_partition_helpers(self):
        offsets = ADVERSARIAL.offsets()
        total = ADVERSARIAL.total
        for policy in ("cyclic", "block"):
            plan = build_plan(ADVERSARIAL, 4, policy)
            for p, length in enumerate(ADVERSARIAL.lengths):
                np.testing.assert_array_equal(
                    plan.partition_thread_counts(p),
                    partition_thread_counts(
                        policy, int(offsets[p]), length, total, 4
                    ),
                )

    def test_cost_aware_beats_cyclic_on_adversarial_layout(self):
        cyclic = build_plan(ADVERSARIAL, 4, "cyclic")
        weighted = build_plan(ADVERSARIAL, 4, "weighted")
        lpt = build_plan(ADVERSARIAL, 4, "lpt")
        # Cyclic stacks all four AA patterns on thread 0.
        assert cyclic.imbalance() > 1.5
        assert weighted.imbalance() < cyclic.imbalance()
        assert lpt.imbalance() < cyclic.imbalance()

    def test_weighted_reduces_to_round_robin_on_uniform_data(self):
        lay = PartitionLayout((10,), (4,))
        weighted = build_plan(lay, 4, "weighted")
        cyclic = build_plan(lay, 4, "cyclic")
        np.testing.assert_array_equal(weighted.counts, cyclic.counts)

    def test_custom_cost_model_drives_assignment(self):
        lay = PartitionLayout((4, 4), (4, 4))
        skew = CostModel(np.array([100.0, 1.0]))
        plan = build_plan(lay, 2, "lpt", cost_model=skew)
        loads = plan.thread_costs()
        assert imbalance_ratio(loads) < 2.0  # not all expensive work on one thread

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            build_plan(ADVERSARIAL, 4, "striped")
        with pytest.raises(ValueError):
            build_plan(ADVERSARIAL, 0, "cyclic")
        with pytest.raises(ValueError, match="partition count"):
            build_plan(ADVERSARIAL, 4, "lpt", cost_model=CostModel(np.ones(2)))

    def test_summary_mentions_policy(self):
        plan = build_plan(ADVERSARIAL, 4, "lpt")
        assert "lpt" in plan.summary()
        assert "imbalance" in plan.summary()


class TestPlanProperties:
    @given(
        lengths=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        threads=st.integers(1, 8),
        policy=st.sampled_from(DISTRIBUTIONS),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_policy_partitions_every_partition(
        self, lengths, threads, policy, data
    ):
        states = data.draw(
            st.lists(
                st.sampled_from([4, 20]),
                min_size=len(lengths),
                max_size=len(lengths),
            )
        )
        lay = PartitionLayout(tuple(lengths), tuple(states))
        plan = build_plan(lay, threads, policy)
        _assert_plan_invariants(plan)


class TestRebalancer:
    def test_rebalance_improves_under_true_costs(self):
        """The closed loop: measure under cyclic, calibrate, LPT-replan.
        The replanned assignment is better balanced under the TRUE cost
        model that generated the measurement."""
        lay = ADVERSARIAL
        start = build_plan(lay, 4, "cyclic")
        true = np.where(np.asarray(lay.states) == 4, 3e-6, 1.1e-4)
        busy = start.counts.T @ true
        replanned = Rebalancer(lay, 4).rebalance(start, busy)
        assert replanned.policy == "lpt"
        assert replanned.cost.unit == "seconds"
        before = imbalance_ratio(start.counts.T @ true)
        after = imbalance_ratio(replanned.counts.T @ true)
        assert after < before

    def test_accepts_runprofile_like_measurement(self):
        class FakeProfile:
            busy_seconds = np.array([1.0, 2.0, 1.5, 1.2])

        start = build_plan(ADVERSARIAL, 4, "cyclic")
        replanned = Rebalancer(ADVERSARIAL, 4).rebalance(start, FakeProfile())
        _assert_plan_invariants(replanned)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            Rebalancer(ADVERSARIAL, 4, policy="striped")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(77)
    tree, lengths = random_topology_with_lengths(6, rng)
    model = SubstitutionModel.random_gtr(3)
    aln = simulate_alignment(tree, lengths, model, 1.0, 300, rng)
    data = PartitionedAlignment(aln, uniform_scheme(300, 100))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    alphas = [0.8, 1.0, 1.5]
    seq = PartitionedEngine(
        data, tree.copy(), models=models, alphas=alphas, initial_lengths=lengths
    )
    return data, tree, lengths, models, alphas, seq


class TestBackendIntegration:
    @pytest.mark.parametrize("policy", ("weighted", "lpt"))
    def test_cost_aware_policies_match_sequential(self, workload, policy):
        data, tree, lengths, models, alphas, seq = workload
        ref = seq.loglikelihood(0)
        with ParallelPLK(
            data, tree, models, alphas, 3,
            distribution=policy, initial_lengths=lengths,
        ) as par:
            assert par.distribution == policy
            assert par.loglikelihood(0) == pytest.approx(ref, abs=1e-8)

    def test_prebuilt_plan_accepted(self, workload):
        data, tree, lengths, models, alphas, seq = workload
        plan = build_plan(PartitionLayout.from_alignment(data), 2, "lpt")
        ref = seq.loglikelihood(0)
        with ParallelPLK(
            data, tree, models, alphas, 2,
            distribution=plan, initial_lengths=lengths,
        ) as par:
            assert par.loglikelihood(0) == pytest.approx(ref, abs=1e-8)

    def test_plan_thread_count_mismatch_raises(self, workload):
        data, tree, lengths, models, alphas, _ = workload
        plan = build_plan(PartitionLayout.from_alignment(data), 3, "lpt")
        with pytest.raises(ValueError, match="threads"):
            ParallelPLK(
                data, tree, models, alphas, 2,
                distribution=plan, initial_lengths=lengths,
            )

    def test_slice_partition_data_with_plan(self, workload):
        data, *_ = workload
        plan = build_plan(PartitionLayout.from_alignment(data), 4, "weighted")
        total = np.zeros(data.n_partitions, dtype=int)
        for w in range(4):
            for p, sl in enumerate(slice_partition_data(data, 4, w, plan)):
                total[p] += sl.n_patterns
        np.testing.assert_array_equal(total, data.pattern_counts())

    def test_slice_plan_worker_mismatch_raises(self, workload):
        data, *_ = workload
        plan = build_plan(PartitionLayout.from_alignment(data), 4, "weighted")
        with pytest.raises(ValueError):
            slice_partition_data(data, 3, 0, plan)


class TestSimulatorIntegration:
    def _trace(self):
        rec = TraceRecorder()
        rec.begin_region("lnl")
        for p, patterns in enumerate(ADVERSARIAL.lengths):
            if patterns:
                rec.newview(p, patterns, count=3)
                rec.evaluate(p, patterns)
        rec.end_region()
        return rec.finalize(
            np.array(ADVERSARIAL.lengths), np.array(ADVERSARIAL.states)
        )

    def test_all_policies_simulate(self):
        from repro.simmachine import NEHALEM, simulate_trace

        trace = self._trace()
        results = {
            policy: simulate_trace(trace, NEHALEM, 4, policy)
            for policy in DISTRIBUTIONS
        }
        for policy, res in results.items():
            assert res.distribution == policy
            assert res.imbalance >= 1.0
            # Total productive work is policy-independent.
            assert res.busy_seconds.sum() == pytest.approx(
                results["cyclic"].busy_seconds.sum(), rel=0.3
            )
        assert results["lpt"].imbalance < results["cyclic"].imbalance

    def test_default_policy_comes_from_trace(self):
        from repro.simmachine import NEHALEM, simulate_trace

        rec = TraceRecorder()
        rec.newview(0, 8)
        trace = rec.finalize(
            np.array(ADVERSARIAL.lengths),
            np.array(ADVERSARIAL.states),
            distribution="lpt",
        )
        res = simulate_trace(trace, NEHALEM, 2)
        assert res.distribution == "lpt"

    def test_prebuilt_plan_accepted(self):
        from repro.simmachine import NEHALEM, simulate_trace

        trace = self._trace()
        plan = build_plan(ADVERSARIAL, 4, "weighted")
        res = simulate_trace(trace, NEHALEM, 4, plan)
        assert res.distribution == "weighted"
        with pytest.raises(ValueError, match="threads"):
            simulate_trace(trace, NEHALEM, 2, plan)


class TestEngineThreading:
    def test_engine_stamps_trace(self, workload):
        data, tree, lengths, models, alphas, _ = workload
        rec = TraceRecorder()
        engine = PartitionedEngine(
            data, tree.copy(), models=models, alphas=alphas,
            initial_lengths=lengths, recorder=rec, distribution="weighted",
        )
        engine.loglikelihood()
        trace = rec.finalize(
            engine.pattern_counts(), engine.states(),
            distribution=engine.distribution,
        )
        assert trace.distribution == "weighted"

    def test_engine_rejects_unknown_policy(self, workload):
        data, tree, lengths, models, alphas, _ = workload
        with pytest.raises(ValueError, match="distribution"):
            PartitionedEngine(
                data, tree.copy(), models=models, alphas=alphas,
                initial_lengths=lengths, distribution="striped",
            )

    def test_optimize_model_accepts_policy(self, workload):
        from repro.core import optimize_model

        data, tree, lengths, models, alphas, _ = workload
        for strategy in ("old", "new"):
            engine = PartitionedEngine(
                data, tree.copy(), models=models, alphas=alphas,
                initial_lengths=lengths,
            )
            optimize_model(
                engine, strategy=strategy, max_rounds=1,
                include_rates=False, include_branches=False,
                distribution="lpt",
            )
            assert engine.distribution == "lpt"
