"""oldPAR vs newPAR strategy tests — the paper's core claims:

1. Both strategies produce the same numerical results (same optima).
2. Both perform the same total kernel work per partition.
3. newPAR packs that work into far fewer parallel regions (barriers).
4. Joint-branch-length mode makes branch optimization strategy-neutral.
"""
import numpy as np
import pytest

from repro.core import (
    PartitionedEngine,
    TraceRecorder,
    optimize_alpha,
    optimize_branch,
    optimize_branch_lengths,
    optimize_frequencies,
    optimize_model,
    optimize_pinv,
    optimize_rates,
    optimize_scalers,
    smoothing_edge_order,
)
from repro.obs import ConvergenceTelemetry


def engine_pair(data, tree, lengths, branch_mode="per_partition"):
    out = {}
    for strategy in ("old", "new"):
        rec = TraceRecorder()
        eng = PartitionedEngine(
            data, tree.copy(), branch_mode=branch_mode,
            initial_lengths=lengths, recorder=rec,
        )
        out[strategy] = (eng, rec)
    return out


class TestEquivalence:
    def test_branch_optimum_identical(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        pair = engine_pair(small_partitioned, tree, lengths)
        for strategy, (eng, _) in pair.items():
            optimize_branch(eng, 0, strategy)
        old_bl = pair["old"][0].branch_lengths()[0]
        new_bl = pair["new"][0].branch_lengths()[0]
        np.testing.assert_allclose(old_bl, new_bl, atol=1e-4)

    def test_alpha_optimum_identical(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        pair = engine_pair(small_partitioned, tree, lengths)
        for strategy, (eng, _) in pair.items():
            optimize_alpha(eng, strategy)
        old_a = [p.alpha for p in pair["old"][0].parts]
        new_a = [p.alpha for p in pair["new"][0].parts]
        np.testing.assert_allclose(old_a, new_a, rtol=1e-2)

    def test_full_model_opt_same_loglik(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        pair = engine_pair(small_partitioned, tree, lengths)
        finals = {
            s: optimize_model(eng, s, max_rounds=2)
            for s, (eng, _) in pair.items()
        }
        assert finals["old"] == pytest.approx(finals["new"], abs=0.5)

    def test_same_total_work_fewer_regions(self, small_partitioned, small_tree):
        """The headline schedule property."""
        tree, lengths = small_tree
        pair = engine_pair(small_partitioned, tree, lengths)
        traces = {}
        for strategy, (eng, rec) in pair.items():
            optimize_model(eng, strategy, max_rounds=1)
            traces[strategy] = rec.finalize(eng.pattern_counts(), eng.states())
        old, new = traces["old"], traces["new"]
        # total work agrees closely (convergence paths may differ slightly)
        to, tn = old.op_totals(), new.op_totals()
        for op in to:
            assert to[op] == pytest.approx(tn[op], rel=0.15)
        # regions: newPAR uses several times fewer barriers
        assert old.n_regions > 2 * new.n_regions


class TestJointMode:
    def test_branch_opt_strategy_neutral(self, small_partitioned, small_tree):
        """Joint branch lengths: old and new produce the SAME schedule for
        branch optimization (paper: 'insignificant' differences)."""
        tree, lengths = small_tree
        pair = engine_pair(small_partitioned, tree, lengths, branch_mode="joint")
        traces = {}
        for strategy, (eng, rec) in pair.items():
            optimize_branch_lengths(eng, strategy, passes=1)
            traces[strategy] = rec.finalize(eng.pattern_counts(), eng.states())
        assert traces["old"].n_regions == traces["new"].n_regions
        bl_old = pair["old"][0].branch_lengths()
        bl_new = pair["new"][0].branch_lengths()
        np.testing.assert_allclose(bl_old, bl_new, atol=1e-8)

    def test_joint_lengths_stay_tied(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        pair = engine_pair(small_partitioned, tree, lengths, branch_mode="joint")
        eng, _ = pair["new"]
        optimize_branch_lengths(eng, "new", passes=1)
        bl = eng.branch_lengths()
        for edge in range(bl.shape[0]):
            assert len(set(np.round(bl[edge], 12))) == 1


class TestMonotonicity:
    def test_branch_smoothing_never_decreases(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), initial_lengths=lengths
        )
        before = eng.loglikelihood()
        for _ in range(3):
            optimize_branch_lengths(eng, "new", passes=1)
            after = eng.loglikelihood()
            assert after >= before - 1e-6
            before = after

    def test_alpha_opt_never_decreases(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), initial_lengths=lengths
        )
        before = eng.loglikelihood()
        optimize_alpha(eng, "new")
        assert eng.loglikelihood() >= before - 1e-6

    def test_rates_opt_never_decreases(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(
            small_partitioned, tree.copy(), initial_lengths=lengths
        )
        before = eng.loglikelihood()
        optimize_rates(eng, "new")
        assert eng.loglikelihood() >= before - 1e-6


class TestMisc:
    def test_invalid_strategy(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        eng = PartitionedEngine(small_partitioned, tree.copy())
        with pytest.raises(ValueError, match="strategy"):
            optimize_branch(eng, 0, "fastest")

    def test_smoothing_order_covers_all_edges(self, small_tree):
        tree, _ = small_tree
        order = smoothing_edge_order(tree)
        assert sorted(order) == list(range(tree.n_edges))

    def test_smoothing_order_is_local(self, small_tree):
        """Consecutive edges in the order share a node (cheap re-rooting)."""
        tree, _ = small_tree
        order = smoothing_edge_order(tree)
        adjacent_pairs = 0
        for e1, e2 in zip(order, order[1:]):
            n1 = set(tree.edge_nodes(e1))
            n2 = set(tree.edge_nodes(e2))
            if n1 & n2:
                adjacent_pairs += 1
        assert adjacent_pairs >= len(order) // 2

    def test_rates_skip_protein_partitions(self):
        """AA partitions keep their empirical rates fixed."""
        import numpy as np
        from repro.plk import Alignment, PartitionedAlignment, parse_partition_file
        from repro.plk import SubstitutionModel

        aln = Alignment.from_sequences(
            {"x": "ACGTARNDCQ", "y": "ACCTARNECQ", "z": "ACGAARNDCW"}
        )
        scheme = parse_partition_file("DNA, d = 1-4\nAA, p = 5-10")
        data = PartitionedAlignment(aln, scheme)
        tree = __import__("repro.plk", fromlist=["Tree"]).Tree.random(
            ("x", "y", "z"), np.random.default_rng(0)
        )
        eng = PartitionedEngine(data, tree)
        aa_rates_before = eng.parts[1].model.rates.copy()
        counts = optimize_rates(eng, "new")
        np.testing.assert_array_equal(eng.parts[1].model.rates, aa_rates_before)
        assert counts[1] == 0
        assert counts[0] > 0


def _dna_aa():
    """Two DNA partitions of unequal width and one AA partition."""
    from repro.plk import Alignment, PartitionedAlignment, SubstitutionModel
    from repro.plk import parse_partition_file
    from repro.seqgen import random_topology_with_lengths, simulate_alignment

    rng = np.random.default_rng(5)
    tree, lengths = random_topology_with_lengths(5, rng, mean_length=0.1)
    dna = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(3), 0.8, 60, rng)
    aa = simulate_alignment(tree, lengths, SubstitutionModel.synthetic_aa(4), 1.0, 12, rng)
    alignment = Alignment(tree.taxa, np.concatenate([dna.matrix, aa.matrix], axis=1))
    scheme = parse_partition_file("DNA, a = 1-45\nDNA, b = 46-60\nAA, c = 61-72")
    return tree, lengths, PartitionedAlignment(alignment, scheme)


class TestOneDriver:
    """oldPAR runs the newPAR solvers on a one-partition mask: every
    oldPAR solve is one telemetry log (under the newPAR name) with exactly
    its partition live, and the logs account for every iteration the
    optimizer reports."""

    @pytest.mark.parametrize("name, run, solves, mode", [
        pytest.param(name, run, solves, mode, id=name) for name, run, solves, mode in [
            ("nr_branch", lambda e: optimize_branch(e, 2, "old"), [0, 1, 2], "per_partition"),
            ("brent_alpha", lambda e: optimize_alpha(e, "old"), [0, 1, 2], "per_partition"),
            # AA partition 2 is not eligible: 5 free rates, 3 free ratios
            ("brent_rate", lambda e: optimize_rates(e, "old"), [0, 1] * 5, "per_partition"),
            ("brent_pinv", lambda e: optimize_pinv(e, "old"), [0, 1, 2], "per_partition"),
            ("brent_freq", lambda e: optimize_frequencies(e, "old"), [0, 1] * 3, "per_partition"),
            ("brent_scaler", lambda e: optimize_scalers(e, "old"), [0, 1, 2], "proportional"),
        ]
    ])
    def test_one_log_per_eligible_partition(self, name, run, solves, mode):
        tree, lengths, data = _dna_aa()
        telemetry = ConvergenceTelemetry()
        engine = PartitionedEngine(data, tree, branch_mode=mode, initial_lengths=lengths,
                                   telemetry=telemetry)
        counts = run(engine)
        logs = telemetry.by_name(name)
        assert len(logs) == len(telemetry.logs) == len(solves)
        total = np.zeros(3, dtype=np.int64)
        for log, p in zip(logs, solves):
            iterations = log.iterations_per_lane()
            assert np.flatnonzero(iterations).tolist() == [p]
            assert log.active_per_round().tolist() == [1] * log.n_rounds
            total += iterations
        np.testing.assert_array_equal(total, counts)
        if len(set(solves)) == len(solves):  # one solve per partition
            for log, p in zip(logs, solves):
                assert log.iterations_per_lane()[p] == counts[p]
