"""WorkerState command-protocol tests (the unit under both real
backends)."""
import numpy as np
import pytest

from repro.parallel import WorkerState, slice_partition_data
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def worker_setup():
    rng = np.random.default_rng(41)
    tree, lengths = random_topology_with_lengths(6, rng)
    model = SubstitutionModel.random_gtr(0)
    aln = simulate_alignment(tree, lengths, model, 1.0, 300, rng)
    data = PartitionedAlignment(aln, uniform_scheme(300, 100))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    alphas = [1.0, 0.6, 2.0]
    return data, tree, lengths, models, alphas


def make_worker(setup, n_workers=1, rank=0):
    data, tree, lengths, models, alphas = setup
    slices = slice_partition_data(data, n_workers, rank, "cyclic")
    return WorkerState.from_slices(slices, tree.copy(), models, alphas, lengths)


class TestCommands:
    def test_lnl_single_worker_is_total(self, worker_setup):
        data, tree, lengths, models, alphas = worker_setup
        worker = make_worker(worker_setup)
        from repro.core import PartitionedEngine

        ref = PartitionedEngine(
            data, tree.copy(), models=models, alphas=alphas,
            initial_lengths=lengths,
        ).loglikelihood(0)
        assert worker.execute(("lnl", 0)) == pytest.approx(ref, abs=1e-9)

    def test_partial_sums_add_up(self, worker_setup):
        workers = [make_worker(worker_setup, 3, r) for r in range(3)]
        full = make_worker(worker_setup)
        total = sum(w.execute(("lnl", 0)) for w in workers)
        assert total == pytest.approx(full.execute(("lnl", 0)), abs=1e-8)

    def test_lnl_parts_respects_active_set(self, worker_setup):
        worker = make_worker(worker_setup)
        out = worker.execute(("lnl_parts", 0, [1]))
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] < 0.0

    def test_prepare_deriv_release_cycle(self, worker_setup):
        worker = make_worker(worker_setup)
        worker.execute(("prepare_edges", [2], [0, 1, 2]))
        lanes = np.array([[True, False, True]])
        d1, d2 = worker.execute(("deriv_edges", np.full((1, 3), 0.1), lanes))
        assert d1[0, 1] == 0.0  # inactive partition untouched
        assert np.isfinite(d1[0, [0, 2]]).all()
        worker.execute(("release",))
        with pytest.raises(RuntimeError, match="prepare_edges first"):
            worker.execute(("deriv_edges", np.full((1, 3), 0.1), lanes))

    def test_release_is_idempotent(self, worker_setup):
        worker = make_worker(worker_setup)
        worker.execute(("release",))  # never prepared: no error

    def test_branch_lnl_command(self, worker_setup):
        """The per-branch guard, ``lnl_edges``, reads the full lnL at the
        current length from the prepared one-edge sumtable."""
        worker = make_worker(worker_setup)
        worker.execute(("prepare_edges", [1], [0]))
        base = worker.execute(("lnl_parts", 1, [0]))[0]
        via_table = worker.execute(
            ("lnl_edges", np.full((1, 3), worker.parts[0].branch_lengths[1]),
             np.array([[True, False, False]]))
        )[0, 0]
        assert via_table == pytest.approx(base, abs=1e-8)

    def test_parameter_mutations(self, worker_setup):
        worker = make_worker(worker_setup)
        before = worker.execute(("lnl", 0))
        worker.execute(("set_alpha_vec", np.array([5.0, 0.0, 0.0]), [0]))
        after_alpha = worker.execute(("lnl", 0))
        assert after_alpha != pytest.approx(before)
        worker.execute(("set_bl_edges", [3], np.array([2.0]), None))
        assert worker.execute(("lnl", 0)) != pytest.approx(after_alpha)
        worker.execute(("set_column", "freq_ratio", 0, np.array([0.0, 0.0, 2.5]), [2]))
        assert worker.parts[2].model.frequencies[0] / worker.parts[2].model.frequencies[-1] == (
            pytest.approx(2.5))
        assert np.isfinite(worker.execute(("lnl", 0)))
        worker.execute(("set_pinvs", np.array([0.0, 0.3, 0.0]), [1]))
        assert worker.parts[1].pinv == 0.3

    def test_alpha_round_program(self, worker_setup):
        """A newPAR Brent round: write the trial alphas, evaluate the
        active partitions."""
        worker = make_worker(worker_setup)
        _, out = worker.execute(("prog", (("set_alpha_vec", np.array([2.0, 1.0, 1.0]), [0]),
                                          ("lnl_parts", 0, [0]))))
        assert out[0] < 0 and out[1] == out[2] == 0.0
        assert worker.parts[0].alpha == 2.0

    def test_unknown_command_rejected(self, worker_setup):
        worker = make_worker(worker_setup)
        with pytest.raises(ValueError, match="unknown worker command"):
            worker.execute(("quicksort",))


class TestEmptySlices:
    def test_worker_with_no_patterns(self, worker_setup):
        """More workers than patterns in a partition: rank high enough to
        own nothing still executes every command."""
        data, tree, lengths, models, alphas = worker_setup
        # 100-pattern partitions over 64 workers: every worker owns 1-2
        tiny_rng = np.random.default_rng(0)
        t2, l2 = random_topology_with_lengths(6, tiny_rng)
        aln = simulate_alignment(t2, l2, models[0], 1.0, 6, tiny_rng)
        small = PartitionedAlignment(aln, uniform_scheme(6, 2))
        slices = slice_partition_data(small, 8, 7, "cyclic")
        worker = WorkerState.from_slices(slices, t2.copy(), models, alphas, l2)
        assert any(sl.n_patterns == 0 for sl in slices)
        lnl = worker.execute(("lnl", 0))
        assert lnl == 0.0 or np.isfinite(lnl)
        worker.execute(("prepare_edges", [0], [0, 1, 2]))
        d1, d2 = worker.execute(
            ("deriv_edges", np.full((1, 3), 0.1), np.ones((1, 3), dtype=bool))
        )
        assert np.isfinite(d1).all()
