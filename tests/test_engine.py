"""PartitionedEngine tests."""
import numpy as np
import pytest

from repro.core import PartitionedEngine, TraceRecorder
from repro.plk import SubstitutionModel


class TestBasics:
    def test_default_models(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(small_partitioned, tree.copy(), initial_lengths=lengths)
        assert eng.n_partitions == 3
        assert all(p.model.states == 4 for p in eng.parts)

    def test_total_is_sum_of_partitions(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(small_partitioned, tree.copy(), initial_lengths=lengths)
        total = eng.loglikelihood()
        parts = eng.partition_loglikelihoods()
        assert total == pytest.approx(parts.sum())

    def test_bad_branch_mode(self, small_partitioned, small_tree):
        tree, _ = small_tree
        with pytest.raises(ValueError, match="branch_mode"):
            PartitionedEngine(small_partitioned, tree.copy(), branch_mode="magic")

    def test_model_count_mismatch(self, small_partitioned, small_tree):
        tree, _ = small_tree
        with pytest.raises(ValueError, match="one model per"):
            PartitionedEngine(
                small_partitioned, tree.copy(), models=[SubstitutionModel.jc69()]
            )

    def test_pattern_counts_and_states(self, small_partitioned, small_tree):
        tree, _ = small_tree
        eng = PartitionedEngine(small_partitioned, tree.copy())
        np.testing.assert_array_equal(eng.states(), [4, 4, 4])
        assert eng.pattern_counts().sum() == small_partitioned.n_patterns


class TestBranchLengths:
    def test_joint_mode_keeps_lengths_equal(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), branch_mode="joint", initial_lengths=lengths
        )
        eng.set_branch_length(2, 0.42)
        bl = eng.branch_lengths()
        assert (bl[2] == 0.42).all()

    def test_joint_mode_rejects_per_partition_set(self, small_partitioned, small_tree):
        tree, _ = small_tree
        eng = PartitionedEngine(small_partitioned, tree.copy(), branch_mode="joint")
        with pytest.raises(ValueError, match="joint"):
            eng.set_branch_length(0, 0.1, partition=1)

    def test_per_partition_lengths_independent(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), branch_mode="per_partition",
            initial_lengths=lengths,
        )
        eng.set_branch_length(1, 0.9, partition=2)
        bl = eng.branch_lengths()
        assert bl[1, 2] == 0.9
        assert bl[1, 0] == pytest.approx(lengths[1])


class TestRegions:
    def test_loglikelihood_is_one_region(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        rec = TraceRecorder()
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), initial_lengths=lengths, recorder=rec
        )
        eng.loglikelihood()
        trace = rec.finalize(eng.pattern_counts(), eng.states())
        assert trace.n_regions == 1
        assert trace.regions[0].active_partitions() == {0, 1, 2}

    def test_prepare_all_vs_one(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        rec = TraceRecorder()
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), initial_lengths=lengths, recorder=rec
        )
        eng.loglikelihood()
        n0 = len(rec.trace.regions)
        eng.run("prepare", [("prepare_edges", [0], None)])
        assert len(rec.trace.regions) == n0 + 1  # one region for all parts
        eng.run("prepare", [("prepare_edges", [0], [1])])
        assert len(rec.trace.regions) == n0 + 2
        assert rec.trace.regions[-1].active_partitions() == {1}

    def test_invalidate_topology_forces_recompute(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        rec = TraceRecorder()
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), initial_lengths=lengths, recorder=rec
        )
        first = eng.loglikelihood()
        eng.invalidate_topology()  # all nodes
        again = eng.loglikelihood()
        assert again == pytest.approx(first)
        trace = rec.finalize(eng.pattern_counts(), eng.states())
        newviews = trace.op_totals()["newview"]
        # both passes did full traversals
        expected_one_pass = sum(
            (tree.n_taxa - 2) * p.n_patterns for p in eng.parts
        )
        assert newviews == 2 * expected_one_pass
