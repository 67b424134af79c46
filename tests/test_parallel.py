"""Real parallel-team tests (forked worker processes).

The headline invariant: parallel log-likelihoods and optimization results
are bitwise-independent of the worker count and distribution policy, and
match the sequential engine.
"""
import numpy as np
import pytest

from repro.core import PartitionedEngine
from repro.parallel import ParallelPLK, slice_partition_data
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(31)
    tree, lengths = random_topology_with_lengths(7, rng)
    model = SubstitutionModel.random_gtr(1)
    aln = simulate_alignment(tree, lengths, model, 0.9, 900, rng)
    data = PartitionedAlignment(aln, uniform_scheme(900, 300))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    alphas = [0.6, 1.1, 2.0]
    seq = PartitionedEngine(
        data, tree.copy(), models=models, alphas=alphas, initial_lengths=lengths
    )
    return data, tree, lengths, models, alphas, seq


class TestSlicing:
    def test_slices_partition_patterns(self, setup):
        data, *_ = setup
        for policy in ("cyclic", "block"):
            total = np.zeros(3, dtype=int)
            weight_total = np.zeros(3)
            for w in range(4):
                slices = slice_partition_data(data, 4, w, policy)
                for p, sl in enumerate(slices):
                    total[p] += sl.n_patterns
                    weight_total[p] += sl.weights.sum()
            np.testing.assert_array_equal(total, data.pattern_counts())
            np.testing.assert_array_equal(
                weight_total, [d.weights.sum() for d in data.data]
            )

    def test_bad_policy(self, setup):
        data, *_ = setup
        with pytest.raises(ValueError):
            slice_partition_data(data, 2, 0, "striped")


class TestProcessesBackend:
    def test_matches_sequential(self, setup):
        data, tree, lengths, models, alphas, seq = setup
        ref = seq.loglikelihood(0)
        with ParallelPLK(
            data, tree, models, alphas, 3, initial_lengths=lengths,
        ) as par:
            assert par.loglikelihood(0) == pytest.approx(ref, abs=1e-8)

    def test_matches_sequential_across_team_sizes(self, setup):
        data, tree, lengths, models, alphas, seq = setup
        ref = seq.loglikelihood(0)
        for workers in (1, 2, 5):
            with ParallelPLK(
                data, tree, models, alphas, workers,
                initial_lengths=lengths,
            ) as par:
                assert par.loglikelihood(0) == pytest.approx(ref, abs=1e-8)

    def test_block_distribution_same_result(self, setup):
        data, tree, lengths, models, alphas, seq = setup
        ref = seq.loglikelihood(0)
        with ParallelPLK(
            data, tree, models, alphas, 3,
            distribution="block", initial_lengths=lengths,
        ) as par:
            assert par.loglikelihood(0) == pytest.approx(ref, abs=1e-8)

    def test_more_workers_than_patterns_of_partition(self, setup):
        """Workers with empty slices idle but stay correct."""
        data, tree, lengths, models, alphas, seq = setup
        rng = np.random.default_rng(32)
        tiny_aln = simulate_alignment(
            tree, lengths, models[0], 1.0, 9, rng
        )
        tiny = PartitionedAlignment(tiny_aln, uniform_scheme(9, 3))
        seq2 = PartitionedEngine(
            tiny, tree.copy(), models=models, alphas=alphas, initial_lengths=lengths
        )
        ref = seq2.loglikelihood(0)
        with ParallelPLK(
            tiny, tree, models, alphas, 6,
            initial_lengths=lengths,
        ) as par:
            assert par.loglikelihood(0) == pytest.approx(ref, abs=1e-8)

    def test_per_partition_lnls(self, setup):
        data, tree, lengths, models, alphas, seq = setup
        ref = seq.partition_loglikelihoods(0)
        with ParallelPLK(
            data, tree, models, alphas, 3,
            initial_lengths=lengths,
        ) as par:
            np.testing.assert_allclose(par.partition_loglikelihoods(0), ref, atol=1e-8)

    def test_branch_opt_old_equals_new(self, setup):
        data, tree, lengths, models, alphas, _ = setup
        z = {}
        for strategy in ("old", "new"):
            with ParallelPLK(
                data, tree, models, alphas, 3,
                initial_lengths=lengths,
            ) as par:
                (z[strategy],) = par.optimize_branches([1], strategy)
        np.testing.assert_allclose(z["old"], z["new"], atol=1e-4)

    def test_command_count_reflects_strategy(self, setup):
        """oldPAR issues far more commands (the real-backend analogue of
        the barrier count)."""
        data, tree, lengths, models, alphas, _ = setup
        issued = {}
        for strategy in ("old", "new"):
            with ParallelPLK(
                data, tree, models, alphas, 2,
                initial_lengths=lengths,
            ) as par:
                base = par.commands_issued
                par.optimize_branches([0], strategy)
                issued[strategy] = par.commands_issued - base
        assert issued["old"] > 1.5 * issued["new"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tree_pass_matches_sequential(self, setup, workers):
        """One schedule, two engines: old, new and tree smoothing passes,
        then old and new alpha, on the team and on the one-process engine
        end at the same lengths and alphas to 1e-9, with identical
        convergence logs, whatever the team size — and the team sends one
        broadcast per ``run`` call of the one-process engine."""
        from repro.core import optimize_alpha, optimize_branch_lengths, smoothing_edge_order
        from repro.obs import ConvergenceTelemetry

        data, tree, lengths, models, alphas, _ = setup
        order = smoothing_edge_order(tree)
        seq_tel, tel = ConvergenceTelemetry(), ConvergenceTelemetry()
        seq_eng = PartitionedEngine(
            data, tree.copy(), models=models, alphas=alphas, initial_lengths=lengths,
            telemetry=seq_tel,
        )
        runs = []
        real_run = seq_eng.run
        seq_eng.run = lambda label, steps: runs.append(label) or real_run(label, steps)
        with ParallelPLK(
            data, tree, models, alphas, workers, initial_lengths=lengths, telemetry=tel,
        ) as par:
            for strategy in ("old", "new", "tree"):
                n_runs, issued = len(runs), par.commands_issued
                optimize_branch_lengths(seq_eng, strategy, passes=1, edges=order)
                got = par.optimize_branches(order, strategy)
                np.testing.assert_allclose(
                    got, seq_eng.branch_lengths()[order], rtol=1e-9, atol=1e-12
                )
                assert par.commands_issued - issued == len(runs) - n_runs
            for strategy in ("old", "new"):
                n_runs, issued = len(runs), par.commands_issued
                optimize_alpha(seq_eng, strategy)
                np.testing.assert_allclose(par.optimize_alpha(strategy), seq_eng.alphas(),
                                           rtol=1e-9)
                assert par.commands_issued - issued == len(runs) - n_runs
            lnl = par.loglikelihood(0)
        assert lnl == pytest.approx(seq_eng.loglikelihood(0), rel=1e-9)
        assert [(log.name, log.rounds) for log in tel.logs] == [
            (log.name, log.rounds) for log in seq_tel.logs
        ]

    def test_alpha_opt_matches_sequential(self, setup):
        from repro.core import optimize_alpha

        data, tree, lengths, models, alphas, _ = setup
        seq_eng = PartitionedEngine(
            data, tree.copy(), models=models, alphas=alphas, initial_lengths=lengths
        )
        optimize_alpha(seq_eng, "new")
        ref = np.array([p.alpha for p in seq_eng.parts])
        with ParallelPLK(
            data, tree, models, alphas, 3,
            initial_lengths=lengths,
        ) as par:
            got = par.optimize_alpha("new")
        np.testing.assert_allclose(got, ref, rtol=0.05)

    def test_defaults_start_from_the_current_parameters(self, setup):
        """The team's optimizers start from (and guard against) the
        current branch lengths and alphas, as the sequential strategies
        do: a smoothing pass, alpha and a second pass from off-optimum
        alphas end at the one-process log-likelihood to 1e-9 relative."""
        self._smooth_alpha_smooth(setup, "new")

    def test_defaults_start_from_the_current_parameters_tree(self, setup):
        """The same under the tree-wide schedule, the default of both
        smoothing entry points."""
        self._smooth_alpha_smooth(setup, "tree")

    @staticmethod
    def _smooth_alpha_smooth(setup, strategy):
        from repro.core import optimize_alpha, optimize_branch_lengths, smoothing_edge_order

        data, tree, lengths, models, _, _ = setup
        alphas = [0.5, 0.5, 0.5]
        order = smoothing_edge_order(tree)
        seq_eng = PartitionedEngine(
            data, tree.copy(), models=models, alphas=alphas, initial_lengths=lengths
        )
        optimize_branch_lengths(seq_eng, strategy, passes=1, edges=order)
        optimize_alpha(seq_eng, "new")
        optimize_branch_lengths(seq_eng, strategy, passes=1, edges=order)
        ref = seq_eng.loglikelihood(0)
        with ParallelPLK(
            data, tree, models, alphas, 2, initial_lengths=lengths,
        ) as par:
            par.optimize_branches(order, strategy)
            np.testing.assert_allclose(par.optimize_alpha(), seq_eng.alphas(), rtol=1e-6)
            par.optimize_branches(order, strategy)
            got = par.loglikelihood(0)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_state_mutations_propagate(self, setup):
        data, tree, lengths, models, alphas, _ = setup
        with ParallelPLK(
            data, tree, models, alphas, 2,
            initial_lengths=lengths,
        ) as par:
            before = par.loglikelihood(0)
            par.run("write", [("set_bl_edges", [2], np.array([1.7]), None)])
            assert par.branch_lengths()[2].tolist() == [1.7] * 3
            mid = par.loglikelihood(0)
            assert mid != pytest.approx(before)
            par.restore_parameters(lengths, alphas)
            np.testing.assert_array_equal(par.branch_lengths(), np.tile(lengths[:, None], 3))
            assert par.loglikelihood(0) == pytest.approx(before, abs=1e-8)

    def test_set_alpha_and_model(self, setup):
        data, tree, lengths, models, alphas, _ = setup
        with ParallelPLK(
            data, tree, models, alphas, 2,
            initial_lengths=lengths,
        ) as par:
            before = par.loglikelihood(0)
            par.run("write", [("set_alpha_vec", np.array([5.0, 0.0, 0.0]), [0])])
            assert par.alphas().tolist() == [5.0, *alphas[1:]]
            assert par.loglikelihood(0) != pytest.approx(before)
            mid = par.loglikelihood(0)
            par.run("write", [("set_column", "rate", 1, np.array([0.0, 3.0, 0.0]), [1])])
            # still finite and evaluable, and partition 1 moved
            assert np.isfinite(par.loglikelihood(0))
            assert par.loglikelihood(0) != pytest.approx(mid)


class TestValidation:
    def test_bad_backend(self, setup):
        data, tree, lengths, models, alphas, _ = setup
        with pytest.raises(ValueError, match="backend"):
            ParallelPLK(data, tree, models, alphas, 2, backend="mpi")

    def test_threads_backend_is_gone(self, setup):
        """Forked processes are the only team: the removed thread team's
        name is rejected like any other unknown backend."""
        data, tree, lengths, models, alphas, _ = setup
        with pytest.raises(ValueError, match="processes"):
            ParallelPLK(data, tree, models, alphas, 2, backend="threads")

    def test_bad_worker_count(self, setup):
        data, tree, lengths, models, alphas, _ = setup
        with pytest.raises(ValueError, match="worker"):
            ParallelPLK(data, tree, models, alphas, 0)
