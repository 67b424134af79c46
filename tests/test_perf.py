"""repro.perf profiler tests: record arithmetic, team instrumentation,
JSON round-trips, committed summaries, and predicted-vs-measured
comparison plumbing."""
import json

import numpy as np
import pytest

from repro.core.trace import COMMAND_KINDS, command_kind
from repro.parallel import ParallelPLK
from repro.perf import (
    CommandRecord,
    Profiler,
    RunProfile,
    compare_decompositions,
    compare_strategies,
    summarize_profiles,
)
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(77)
    tree, lengths = random_topology_with_lengths(7, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(1), 0.9, 800, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(800, 200))
    models = [SubstitutionModel.random_gtr(p) for p in range(4)]
    alphas = [0.6, 1.1, 2.0, 0.9]
    return data, tree, lengths, models, alphas


class TestCommandRecord:
    def test_decomposition_identity(self):
        """Per worker, busy + idle + sync == wall exactly."""
        rec = CommandRecord(op="deriv", kind="derivative", wall=1.0,
                            busy=(0.2, 0.7, 0.5))
        assert rec.span == pytest.approx(0.7)
        assert rec.sync == pytest.approx(0.3)
        for w in range(3):
            assert rec.busy[w] + rec.idle[w] + rec.sync == pytest.approx(rec.wall)

    def test_idle_is_wait_for_slowest(self):
        rec = CommandRecord(op="lnl", kind="evaluate", wall=0.5,
                            busy=(0.4, 0.1))
        assert rec.idle == pytest.approx((0.0, 0.3))

    def test_sync_floored_at_zero(self):
        # clock granularity can make wall ~ span; sync must never go negative
        rec = CommandRecord(op="lnl", kind="evaluate", wall=0.1,
                            busy=(0.100000001,))
        assert rec.sync == 0.0


class TestRunProfileAggregation:
    def _profile(self):
        records = [
            CommandRecord("prepare", "sumtable", 1.0, (0.4, 0.8)),
            CommandRecord("deriv", "derivative", 0.5, (0.3, 0.1)),
            CommandRecord("set_bl_edges", "control", 0.1, (0.0, 0.0)),
        ]
        return RunProfile(backend="processes", n_workers=2, records=records)

    def test_totals(self):
        p = self._profile()
        assert p.total_seconds == pytest.approx(1.6)
        np.testing.assert_allclose(p.busy_seconds, [0.7, 0.9])
        np.testing.assert_allclose(p.idle_seconds, [0.4 + 0.0, 0.0 + 0.2])
        assert p.sync_seconds == pytest.approx(0.2 + 0.2 + 0.1)

    def test_efficiency_and_balance(self):
        p = self._profile()
        assert p.efficiency == pytest.approx(1.6 / (1.6 * 2))
        assert p.load_balance == pytest.approx(0.8 / 0.9)

    def test_busy_plus_idle_plus_sync_is_wall(self):
        p = self._profile()
        for w in range(2):
            total = p.busy_seconds[w] + p.idle_seconds[w] + p.sync_seconds
            assert total == pytest.approx(p.total_seconds)

    def test_kind_seconds(self):
        kinds = self._profile().kind_seconds()
        assert kinds == pytest.approx(
            {"sumtable": 1.0, "derivative": 0.5, "control": 0.1}
        )

    def test_json_roundtrip(self, tmp_path):
        p = self._profile()
        p.meta["strategy"] = "new"
        path = tmp_path / "prof.json"
        p.save(path)
        back = RunProfile.load(path)
        assert back.backend == "processes" and back.n_workers == 2
        assert back.meta == {"strategy": "new"}
        assert back.n_regions == 3
        assert back.total_seconds == pytest.approx(p.total_seconds)
        np.testing.assert_allclose(back.busy_seconds, p.busy_seconds)
        # the file embeds the summary decomposition for external readers
        raw = json.loads(path.read_text())
        assert raw["summary"]["efficiency"] == pytest.approx(p.efficiency)


class TestProfileSummary:
    def test_summary_derived_ratios(self):
        def profile(n, busy):
            records = [CommandRecord("prepare", "sumtable", 0.2, busy)] * n
            records += [CommandRecord("deriv", "derivative", 0.2, busy)] * n
            return RunProfile(backend="processes", n_workers=2, records=records)

        summary = summarize_profiles({
            "old": profile(12, (0.08, 0.09)),
            "new": profile(4, (0.095, 0.095)),
        })
        assert summary["version"] == 1
        assert summary["derived"]["command_ratio"] == pytest.approx(3.0)
        assert summary["derived"]["wall_ratio"] == pytest.approx(8 / 24)
        assert summary["strategies"]["old"]["kind_counts"] == {
            "derivative": 12, "sumtable": 12,
        }


class TestVocabulary:
    def test_every_worker_command_classified(self):
        from repro.parallel.worker import WorkerState

        cmd_ops = {
            name[len("_cmd_"):]
            for name in vars(WorkerState)
            if name.startswith("_cmd_")
        }
        assert cmd_ops <= set(COMMAND_KINDS)

    def test_unknown_command_is_control(self):
        assert command_kind("stop") == "control"


@pytest.mark.parametrize("backend", ["processes"])
class TestLiveProfiling:
    def test_records_match_commands_and_decompose(self, setup, backend):
        data, tree, lengths, models, alphas = setup
        profiler = Profiler()
        with ParallelPLK(
            data, tree, models, alphas, 3, backend=backend,
            initial_lengths=lengths, profiler=profiler,
        ) as team:
            team.loglikelihood(0)
            team.optimize_branches([0], "new")
            issued = team.commands_issued
        profile = profiler.profile()
        assert profile.backend == backend
        assert profile.n_workers == 3
        assert profile.n_regions == issued
        assert profile.total_seconds > 0
        assert profile.busy_seconds.sum() > 0
        assert 0 < profile.efficiency <= 1.0
        # per worker and per region: busy + wait == region wall
        for rec in profile.records:
            assert len(rec.busy) == 3
            for w in range(3):
                wait = rec.idle[w] + rec.sync
                assert rec.busy[w] + wait == pytest.approx(rec.wall, abs=1e-9)

    def test_null_profiler_records_nothing(self, setup, backend):
        data, tree, lengths, models, alphas = setup
        with ParallelPLK(
            data, tree, models, alphas, 2, backend=backend,
            initial_lengths=lengths,
        ) as team:
            team.loglikelihood(0)
            assert team.profiler is None


class TestStrategyComparison:
    def test_new_beats_old_efficiency(self, setup):
        """The acceptance criterion: newPAR's parallel efficiency exceeds
        oldPAR's at 4 workers.  The structure behind it is asserted on
        exact counts (fewer barriers, more commands per barrier, the same
        on every repeat) and the efficiency on the machine simulator's
        replay of the same schedules, captured on a one-process engine:
        each team's non-control regions are exactly the captured trace's
        regions.  A wall-clock efficiency of 4 workers on a shared host
        can invert the ordering; the measured ordering is gated in
        ``benchmarks/test_real1_processes.py``."""
        from repro.core import PartitionedEngine, TraceRecorder, optimize_branch_lengths
        from repro.simmachine import NEHALEM, simulate_trace

        data, tree, lengths, models, alphas = setup
        profilers = {s: Profiler() for s in ("old", "new")}
        teams = {
            s: ParallelPLK(data, tree, models, alphas, 4,
                           initial_lengths=lengths, profiler=profilers[s])
            for s in profilers
        }
        profiles = {s: [] for s in profilers}
        try:
            for _ in range(5):
                for s, team in teams.items():
                    team.restore_parameters(lengths, alphas)
                    profilers[s].reset()
                    team.optimize_branches([0, 1, 2], s)
                    profiles[s].append(profilers[s].profile())
        finally:
            for team in teams.values():
                team.close()
        counts = {
            s: {(p.n_regions, p.n_commands) for p in runs} for s, runs in profiles.items()
        }
        assert all(len(c) == 1 for c in counts.values())  # deterministic
        old, new = profiles["old"][0], profiles["new"][0]
        assert new.n_regions < old.n_regions
        assert new.commands_per_barrier > old.commands_per_barrier

        efficiency = {}
        for s, prof in (("old", old), ("new", new)):
            rec = TraceRecorder()
            engine = PartitionedEngine(data, tree.copy(), models=models, alphas=alphas,
                                       initial_lengths=lengths, recorder=rec)
            optimize_branch_lengths(engine, s, passes=1, edges=[0, 1, 2])
            trace = rec.finalize(engine.pattern_counts(), engine.states())
            assert sum(r.kind != "control" for r in prof.records) == trace.n_regions
            efficiency[s] = simulate_trace(trace, NEHALEM, 4).efficiency
        assert efficiency["new"] > efficiency["old"]
        cmp = compare_strategies(old, new)
        assert "old" in cmp.summary() and "new" in cmp.summary()

    def test_compare_against_simulator_prediction(self, setup):
        """A measured RunProfile and a simulated SimulationResult share the
        decomposition() vocabulary, so they compare in one call."""
        from repro.core import PartitionedEngine, TraceRecorder, optimize_branch
        from repro.simmachine import NEHALEM, simulate_trace

        data, tree, lengths, models, alphas = setup
        rec = TraceRecorder()
        eng = PartitionedEngine(
            data, tree.copy(), models=models, alphas=alphas,
            initial_lengths=lengths, recorder=rec,
        )
        optimize_branch(eng, 0, strategy="new")
        trace = rec.finalize(eng.pattern_counts(), eng.states())
        predicted = simulate_trace(trace, NEHALEM, 3)

        profiler = Profiler()
        with ParallelPLK(
            data, tree, models, alphas, 3,
            initial_lengths=lengths, profiler=profiler,
        ) as team:
            team.optimize_branches([0], "new")
        measured = profiler.profile()

        cmp = compare_decompositions(
            measured, predicted, labels=("measured", "predicted")
        )
        assert set(cmp.a) == set(cmp.b)
        assert cmp.a["n_workers"] == cmp.b["n_workers"] == 3
        assert np.isfinite(cmp.speedup) and np.isfinite(cmp.efficiency_ratio)
        assert "predicted" in cmp.summary()

    def test_profiler_reset(self, setup):
        data, tree, lengths, models, alphas = setup
        profiler = Profiler()
        with ParallelPLK(
            data, tree, models, alphas, 2,
            initial_lengths=lengths, profiler=profiler,
        ) as team:
            team.loglikelihood(0)
            profiler.reset()
            team.loglikelihood(0)
        assert profiler.profile().n_regions == 1
