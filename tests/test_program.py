"""Fused command programs: worker-side execution order, solver
first-evaluation hand-off, and — the point of the whole exercise — the
exact barrier count of the fused optimizer schedule, with results equal
to the sequential engine's.
"""
import numpy as np
import pytest

from repro.core import PartitionedEngine, TraceRecorder
from repro.core import strategies
from repro.core.strategies import optimize_branch_lengths, smoothing_edge_order
from repro.core.trace import describe_command
from repro.obs import ConvergenceTelemetry, MetricsRegistry
from repro.optimize import BatchedBrent, BatchedNewton
from repro.optimize.newton import TREE_SWEEPS
from repro.parallel import ParallelPLK, Program, slice_partition_data
from repro.parallel.program import program_steps
from repro.parallel.worker import WorkerState
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(7)
    tree, lengths = random_topology_with_lengths(6, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(1), 1.0, 300, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(300, 100))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    alphas = [0.7, 1.0, 1.4]
    return data, tree, lengths, models, alphas


def make_team(setup, **kw):
    data, tree, lengths, models, alphas = setup
    return ParallelPLK(
        data, tree, models, alphas, 2, initial_lengths=lengths, **kw
    )


class TestDescribeCommand:
    def test_plain_command(self):
        assert describe_command(("deriv_edges", None, None)) == (
            "deriv_edges", "derivative", 1,
        )

    def test_program_classified_by_highest_priority_step(self):
        """sumtable > evaluate > derivative > control, whatever the step
        order: the per-branch opening, its guard, and the tree sweep's
        opening (which evaluates before it prepares)."""
        cmd = ("prog", (("prepare_edges", [0], [0]), ("deriv_edges", None, None)))
        label, kind, n = describe_command(cmd)
        assert label == "prog(prepare_edges+deriv_edges)"
        assert kind == "sumtable"
        assert n == 2
        guard = ("prog", (("lnl_edges", None, None), ("lnl_edges", None, None)))
        assert describe_command(guard)[1] == "evaluate"
        assert describe_command(("prog", (("deriv_edges", None, None), ("lnl", 0))))[1] == (
            "evaluate"
        )
        opening = ("prog", (("set_bl_edges", [0], None, [0]), ("lnl_parts", 0, [0]),
                            ("prepare_edges", [0], [0]), ("deriv_edges", None, None)))
        assert describe_command(opening) == (
            "prog(set_bl_edges+lnl_parts+prepare_edges+deriv_edges)", "sumtable", 4,
        )
        closing = ("prog", (("set_bl_edges", [0], None, [0]), ("lnl_parts", 0, [0]),
                            ("release",)))
        assert describe_command(closing)[1] == "evaluate"

    def test_edge_stacked_commands(self):
        assert describe_command(("prepare_edges", [0, 1], [0]))[1] == "sumtable"
        assert describe_command(("deriv_edges", None, None))[1] == "derivative"
        assert describe_command(("lnl_edges", None, None))[1] == "evaluate"
        assert describe_command(("set_bl_edges", [0], None, [0]))[1] == "control"

    def test_all_control_program(self):
        cmd = ("prog", (("release",), ("set_alpha_vec", None, None)))
        assert describe_command(cmd)[1] == "control"


class TestProgramDataclass:
    def test_wire_format_and_label(self):
        prog = Program(steps=(("lnl", 0), ("release",)))
        assert prog.command == ("prog", prog.steps)
        assert prog.label == "prog(lnl+release)"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Program(steps=())

    def test_rejects_nesting_and_stop(self):
        with pytest.raises(ValueError):
            Program(steps=(("prog", (("lnl", 0),)),))
        with pytest.raises(ValueError):
            Program(steps=(("stop",),))

    def test_program_steps(self):
        assert program_steps(("lnl", 0)) == (("lnl", 0),)
        steps = (("lnl", 0), ("release",))
        assert program_steps(("prog", steps)) == steps


class TestWorkerProgram:
    def test_steps_run_in_order_and_match_separate_execution(self, setup):
        data, tree, lengths, models, alphas = setup
        mk = lambda: WorkerState.from_slices(  # noqa: E731
            slice_partition_data(data, 1, 0), tree.copy(), models, alphas,
            lengths,
        )
        fused, plain = mk(), mk()
        steps = (
            ("prepare_edges", [0], [0, 1, 2]),
            ("deriv_edges", np.full((1, 3), 0.05), np.ones((1, 3), dtype=bool)),
            ("set_bl_edges", [0], np.full((1, 3), 0.2), [0, 1, 2]),
            ("lnl", 0),
            ("release",),
        )
        out = fused.execute(("prog", steps))
        ref = [plain.execute(s) for s in steps]
        assert len(out) == len(steps)
        np.testing.assert_allclose(out[1][0], ref[1][0])
        np.testing.assert_allclose(out[1][1], ref[1][1])
        # the lnl step sees the set_bl_edges that preceded it in the program
        assert out[3] == pytest.approx(ref[3], abs=1e-10)
        before = plain.execute(("lnl", 0))
        assert out[3] == pytest.approx(before, abs=1e-10)


class TestEngineRunProgram:
    def test_fused_exchange_equals_separate_broadcasts(self, setup):
        """``run`` sends a region as one broadcast (a one-step region as
        the plain command) and reduces each step over the workers."""
        with make_team(setup) as team:
            z = np.full((1, 3), 0.1)
            lanes = np.ones((1, 3), dtype=bool)
            prepare = ("prepare_edges", [0], [0, 1, 2])
            deriv = ("deriv_edges", z, lanes)
            team.run("prepare", [prepare])
            ((d1_ref, d2_ref),) = team.run("nr", [deriv])
            team.run("release", [("release",)])
            assert team.commands_issued == 3

            _, (d1, d2), _ = team.run("nr", [prepare, deriv, ("release",)])
            assert team.commands_issued == 4
        np.testing.assert_allclose(d1, d1_ref, atol=1e-12)
        np.testing.assert_allclose(d2, d2_ref, atol=1e-12)

    def test_one_barrier_per_program(self, setup):
        metrics = MetricsRegistry()
        with make_team(setup, metrics=metrics) as team:
            team.run("lnl", [("lnl", 0), ("lnl", 0), ("lnl", 0)])
        snap = metrics.snapshot()
        assert snap["broadcasts.total"]["value"] == 1
        assert snap["commands.total"]["value"] == 3


class TestSolverFirstEval:
    def test_newton_initial_point_clips(self):
        solver = BatchedNewton(1e-3, 10.0, 1e-6)
        z = solver.initial_point(np.array([0.0, 0.5, 99.0]))
        np.testing.assert_allclose(z, [1e-3, 0.5, 10.0])

    def test_newton_first_eval_skips_one_call_same_result(self):
        def make_fn(calls):
            def fn(z, active):
                calls.append(z.copy())
                return -2.0 * (z - 1.5), np.full_like(z, -2.0)
            return fn

        solver = BatchedNewton(1e-3, 10.0, 1e-8)
        z0 = np.array([0.1, 3.0])
        plain_calls, fused_calls = [], []
        ref = solver.run(make_fn(plain_calls), z0)
        z_first = solver.initial_point(z0)
        first = make_fn([])(z_first, None)
        res = solver.run(make_fn(fused_calls), z0, first_eval=first)
        np.testing.assert_allclose(res.z, ref.z)
        np.testing.assert_array_equal(res.iterations, ref.iterations)
        assert len(fused_calls) == len(plain_calls) - 1
        np.testing.assert_allclose(plain_calls[0], z_first)

    def test_brent_first_fx_skips_one_call_same_result(self):
        def make_fn(calls):
            def fn(x, active):
                calls.append(x.copy())
                return (x - 0.8) ** 2
            return fn

        solver = BatchedBrent(np.full(2, 0.02), np.full(2, 5.0), 1e-5)
        guess = np.array([1.0, 0.3])
        plain_calls, fused_calls = [], []
        ref = solver.run(make_fn(plain_calls), guess=guess)
        x_first = solver.initial_point(guess)
        first = make_fn([])(x_first, None)
        res = solver.run(make_fn(fused_calls), guess=guess, first_fx=first)
        np.testing.assert_allclose(res.x, ref.x)
        assert len(fused_calls) == len(plain_calls) - 1
        np.testing.assert_allclose(plain_calls[0], x_first)


def make_engine(setup, telemetry=None):
    data, tree, lengths, models, alphas = setup
    return PartitionedEngine(
        data, tree.copy(), models=list(models), alphas=list(alphas),
        initial_lengths=lengths, telemetry=telemetry,
    )


class TestFusedOptimizerEquivalence:
    @pytest.mark.timeout(60)
    def test_optimize_branch_barrier_count(self, setup):
        """One prepare+deriv program, one broadcast per further Newton
        evaluation, one guard program (both evaluations), one
        set_bl_edges — and the same lengths, likelihood and iteration log
        as the sequential engine."""
        m, tel = MetricsRegistry(), ConvergenceTelemetry()
        seq_tel = ConvergenceTelemetry()
        seq = make_engine(setup, seq_tel)
        with make_team(setup, metrics=m, telemetry=tel) as team:
            (out,) = team.optimize_branches([0], "new")
            lnl = team.loglikelihood(0)
        snap = m.snapshot()
        (log,) = tel.by_name("nr_branch")
        evals = log.n_rounds
        assert evals >= 2
        # lnl is the extra fifth broadcast after the optimizer's.
        assert snap["broadcasts.total"]["value"] == 1 + (evals - 1) + 1 + 1 + 1
        assert snap["commands.total"]["value"] == 2 + (evals - 1) + 2 + 1 + 1

        strategies.optimize_branch(seq, 0, "new")
        np.testing.assert_allclose(out, seq.branch_lengths()[0], atol=1e-9)
        assert lnl == pytest.approx(seq.loglikelihood(0), abs=1e-8)
        (seq_log,) = seq_tel.by_name("nr_branch")
        assert seq_log.rounds == log.rounds

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("start", [None, 10.0], ids=["quiet", "guard-fires"])
    def test_tree_pass_barrier_count(self, setup, start):
        """One tree pass: each sweep's opening program carries its first
        Newton round, every further round is one broadcast, one closing
        program guards the last sweep, and every guard round (read from
        the ``tree_guard`` logs) costs one more program.  Starting every
        branch at 10 forces the guard to fire.  Lengths, lnL and logs
        equal the sequential pass's."""
        data, tree, lengths, models, alphas = setup
        init = lengths if start is None else np.full(tree.n_edges, start)
        order = smoothing_edge_order(tree)
        m, tel, seq_tel = MetricsRegistry(), ConvergenceTelemetry(), ConvergenceTelemetry()
        seq = PartitionedEngine(
            data, tree.copy(), models=list(models), alphas=list(alphas),
            initial_lengths=init, telemetry=seq_tel,
        )
        optimize_branch_lengths(seq, "tree", passes=1, edges=order)
        with ParallelPLK(data, tree, models, alphas, 2, initial_lengths=init,
                         metrics=m, telemetry=tel) as team:
            out = team.optimize_branches(order)
            lnl = team.loglikelihood(0)
        sweeps, guards = tel.by_name("nr_tree"), tel.by_name("tree_guard")
        assert len(sweeps) == TREE_SWEEPS
        assert bool(guards) == (start is not None)
        # lnl is the extra broadcast after the pass's.
        assert m.snapshot()["broadcasts.total"]["value"] == (
            sum(log.n_rounds for log in sweeps) + 1
            + sum(log.n_rounds for log in guards) + 1
        )
        np.testing.assert_allclose(out, seq.branch_lengths()[order], rtol=1e-9, atol=1e-12)
        assert lnl == pytest.approx(seq.loglikelihood(0), rel=1e-9)
        assert [(log.name, log.rounds) for log in tel.logs] == [
            (log.name, log.rounds) for log in seq_tel.logs
        ]

    @pytest.mark.timeout(60)
    def test_barriers_tree_below_new_below_old(self, setup):
        """The paper's invariant carried to the branch axis: on the same
        edges, the tree-wide pass needs fewer barriers than the newPAR
        walk, which needs fewer than the oldPAR walk."""
        order = smoothing_edge_order(setup[1])
        barriers = {}
        for strategy in ("old", "new", "tree"):
            with make_team(setup) as team:
                team.optimize_branches(order, strategy)
                barriers[strategy] = team.commands_issued
        assert barriers["tree"] < barriers["new"] < barriers["old"]

    @pytest.mark.timeout(60)
    def test_optimize_alpha_barrier_count(self, setup):
        """One broadcast per Brent evaluation plus one set_alpha_vec, and
        the same alphas as the sequential engine."""
        m, tel = MetricsRegistry(), ConvergenceTelemetry()
        seq = make_engine(setup)
        with make_team(setup, metrics=m, telemetry=tel) as team:
            out = team.optimize_alpha("new")
        (log,) = tel.by_name("brent_alpha")
        assert m.snapshot()["broadcasts.total"]["value"] == log.n_rounds + 1

        strategies.optimize_alpha(seq, "new")
        seq_alphas = [part.alpha for part in seq.parts]
        np.testing.assert_allclose(out, seq_alphas, atol=1e-9)

    @pytest.mark.timeout(60)
    def test_fused_matches_sequential_engine(self, setup):
        data, tree, lengths, models, alphas = setup
        seq = PartitionedEngine(
            data, tree.copy(), models=list(models), alphas=list(alphas),
            initial_lengths=lengths,
        )
        with make_team(setup) as team:
            assert team.loglikelihood(0) == pytest.approx(
                seq.loglikelihood(0), abs=1e-8
            )


class TestSequentialStrategyFusion:
    def test_new_strategy_fuses_prepare_with_first_derivative(self, setup):
        """The sequential newPAR driver now opens ONE region holding the
        sumtable setup and the first derivative pass — the region the
        simulator charges a single sync for, mirroring the parallel
        team's fused prepare+deriv program."""
        data, tree, lengths, models, alphas = setup
        recorder = TraceRecorder()
        engine = PartitionedEngine(
            data, tree.copy(), models=list(models), alphas=list(alphas),
            initial_lengths=lengths, recorder=recorder,
        )
        optimize_branch_lengths(engine, "new", passes=1, edges=[0])
        trace = recorder.finalize(engine.pattern_counts(), engine.states())
        fused = [
            r for r in trace.regions
            if {"sumtable", "derivative"} <= {it.op for it in r.items}
        ]
        assert fused, "no region fuses sumtable setup with a derivative pass"


class TestZeroWidthFastPath:
    def test_empty_slices_short_circuit(self, setup):
        _, tree, lengths, models, alphas = setup
        rng = np.random.default_rng(11)
        tiny_aln = simulate_alignment(tree, lengths, models[0], 1.0, 6, rng)
        tiny = PartitionedAlignment(tiny_aln, uniform_scheme(6, 3))
        # With far more workers than patterns, the last worker owns zero
        # patterns of every partition.
        state = WorkerState.from_slices(
            slice_partition_data(tiny, 6, 5), tree.copy(), models[:2],
            alphas[:2], lengths,
        )
        assert [part.n_patterns for part in state.parts] == [0, 0]
        assert state.execute(("lnl", 0)) == 0.0
        np.testing.assert_array_equal(
            state.execute(("lnl_parts", 0, [0, 1])), np.zeros(2)
        )
        state.execute(("set_alpha_vec", np.full(2, 0.5), None))
        lanes = np.ones((1, 2), dtype=bool)
        out = state.execute(("prog", (("prepare_edges", [0], [0, 1]),
                                      ("deriv_edges", np.full((1, 2), 0.1), lanes),
                                      ("lnl_edges", np.full((1, 2), 0.1), lanes),
                                      ("release",))))
        np.testing.assert_array_equal(out[1][0], np.zeros((1, 2)))
        np.testing.assert_array_equal(out[1][1], np.zeros((1, 2)))
        np.testing.assert_array_equal(out[2], np.zeros((1, 2)))
