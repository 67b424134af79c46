"""Barrier-protocol robustness: failing workers must never deadlock a
team, dead processes must not leak, and close() must be idempotent.

These are regression tests for real deadlocks: before the fix, a worker
exception could leave the master blocked forever, and a dead child left
``conn.recv()`` raising bare ``EOFError`` with the remaining processes
leaked.
"""
import json

import numpy as np
import pytest

from repro.core import PartitionedEngine
from repro.parallel import ParallelPLK, WorkerError
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

BACKENDS = ["processes"]
#: A (1, P) lane mask for the two partitions of ``setup``.
LANES = np.ones((1, 2), dtype=bool)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(41)
    tree, lengths = random_topology_with_lengths(6, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(2), 1.0, 400, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(400, 200))
    models = [SubstitutionModel.random_gtr(p) for p in range(2)]
    alphas = [0.8, 1.3]
    return data, tree, lengths, models, alphas


def make_team(setup, backend, workers=3, **kw):
    data, tree, lengths, models, alphas = setup
    return ParallelPLK(
        data, tree, models, alphas, workers, backend=backend,
        initial_lengths=lengths, **kw,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestFailingWorker:
    @pytest.mark.timeout(30)
    def test_worker_exception_surfaces_not_deadlocks(self, setup, backend):
        """An unknown command makes every WorkerState.execute raise; the
        first failure must come back as WorkerError within one broadcast."""
        with make_team(setup, backend) as team:
            with pytest.raises(WorkerError) as exc_info:
                team._broadcast(("explode",))
            assert exc_info.value.rank == 0
            assert isinstance(exc_info.value.original, ValueError)

    @pytest.mark.timeout(30)
    def test_team_survives_worker_exception(self, setup, backend):
        """The barrier protocol completes, so the team stays usable."""
        with make_team(setup, backend) as team:
            before = team.loglikelihood(0)
            with pytest.raises(WorkerError):
                # a derivative before any prepare_edges
                team._broadcast(("deriv_edges", np.zeros((1, 2)), LANES))
            assert team.loglikelihood(0) == pytest.approx(before, abs=1e-10)

    @pytest.mark.timeout(30)
    def test_close_after_worker_exception(self, setup, backend):
        team = make_team(setup, backend)
        with pytest.raises(WorkerError):
            team._broadcast(("explode",))
        team.close()  # must return promptly, not hang on a barrier


@pytest.mark.parametrize("backend", BACKENDS)
class TestFailingWorkerMidProgram:
    @pytest.mark.timeout(30)
    def test_exception_mid_fused_program_surfaces(self, setup, backend):
        """A failing step inside a fused program must surface exactly like
        a failing plain broadcast: one WorkerError, no barrier deadlock."""
        with make_team(setup, backend) as team:
            with pytest.raises(WorkerError) as exc_info:
                team.run("failing", [
                    ("lnl", 0),
                    ("deriv_edges", np.zeros((1, 2)), LANES),  # nothing prepared
                ])
            assert exc_info.value.rank == 0
            # the team protocol completed, so it stays usable
            team.loglikelihood(0)

    @pytest.mark.timeout(30)
    def test_close_after_mid_program_exception(self, setup, backend):
        team = make_team(setup, backend)
        with pytest.raises(WorkerError):
            team.run("failing", [("lnl", 0), ("explode",)])
        team.close()


class TestDeadProcessWorker:
    @pytest.mark.timeout(30)
    def test_dead_worker_raises_and_terminates_team(self, setup):
        with make_team(setup, "processes") as team:
            victim = team._team.procs[1]
            victim.terminate()
            victim.join(timeout=10)
            with pytest.raises(WorkerError, match="worker"):
                team.loglikelihood(0)
            # no leaked children: every process is down after the failure
            for proc in team._team.procs:
                proc.join(timeout=10)
                assert not proc.is_alive()
            with pytest.raises(RuntimeError, match="closed"):
                team.loglikelihood(0)

    @pytest.mark.timeout(60)
    def test_dead_worker_mid_program_cleans_up_shm(self, setup, tmp_path):
        """A worker dying inside a fused program with the live stats
        plane mapped must surface as WorkerError AND leave no stale
        /dev/shm segment — closing the engine unlinks the plane."""
        from repro.obs.live import LiveTelemetry
        from repro.parallel import live_segments

        live = LiveTelemetry(postmortem_dir=str(tmp_path))
        before = live_segments()
        with make_team(setup, "processes", live=live) as team:
            assert len(live_segments()) == len(before) + 1
            victim = team._team.procs[1]
            victim.terminate()
            victim.join(timeout=10)
            with pytest.raises(WorkerError, match="worker"):
                team.run("lnl", [("lnl", 0), ("lnl", 0)])
            for proc in team._team.procs:
                proc.join(timeout=10)
                assert not proc.is_alive()
        assert live_segments() == before

    @pytest.mark.timeout(60)
    def test_worker_exception_on_shm_plane_keeps_team_usable(self, setup, tmp_path):
        """A worker-side exception inside a fused program with the live
        stats plane mapped travels back over the pipe and the team
        remains usable afterwards."""
        from repro.obs.live import LiveTelemetry

        live = LiveTelemetry(postmortem_dir=str(tmp_path))
        with make_team(setup, "processes", live=live) as team:
            before = team.loglikelihood(0)
            with pytest.raises(WorkerError):
                team.run("failing", [("lnl", 0), ("deriv_edges", np.zeros((1, 2)), LANES)])
            assert team.loglikelihood(0) == pytest.approx(before, abs=1e-10)


class TestPostmortemFlightDump:
    """With the live plane on, a worker death must leave a JSONL
    flight-recorder dump behind — the black box for the crash."""

    @staticmethod
    def _load_dump(path):
        """Every line must parse as JSON on its own (the JSONL contract)."""
        with open(path) as fh:
            return [json.loads(line) for line in fh]

    @pytest.mark.timeout(60)
    def test_dead_worker_produces_postmortem_jsonl(self, setup, tmp_path):
        from repro.obs.live import LiveTelemetry

        live = LiveTelemetry(postmortem_dir=str(tmp_path))
        with make_team(setup, "processes", live=live) as team:
            team.loglikelihood(0)  # some healthy traffic first
            victim = team._team.procs[1]
            victim.terminate()
            victim.join(timeout=10)
            with pytest.raises(WorkerError, match="worker"):
                team.loglikelihood(0)
        path = live.last_postmortem
        assert path is not None and path.startswith(str(tmp_path))
        events = self._load_dump(path)
        assert events, "post-mortem dump is empty"
        deaths = [e for e in events if e["event"] == "worker_death"]
        assert deaths, "dump missing the worker_death event"
        assert deaths[-1]["rank"] == 1  # the offending worker
        # the run's story leads up to the death: the healthy exchange
        # was buffered, and the death names the op in flight
        assert any(e["event"] == "exchange" for e in events)
        assert deaths[-1]["op"] == "lnl"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    @pytest.mark.timeout(60)
    def test_dead_worker_mid_program_dumps_and_cleans_shm(self, setup, tmp_path):
        """The mid-program death under the live plane: the dump is
        written AND the teardown still unlinks the stats-plane segment."""
        from repro.obs.live import LiveTelemetry
        from repro.parallel import live_segments

        live = LiveTelemetry(postmortem_dir=str(tmp_path))
        before = live_segments()
        with make_team(setup, "processes", live=live) as team:
            # the worker-stats plane
            assert len(live_segments()) == len(before) + 1
            victim = team._team.procs[1]
            victim.terminate()
            victim.join(timeout=10)
            with pytest.raises(WorkerError, match="worker"):
                team.run("lnl", [("lnl", 0), ("lnl", 0)])
        assert live_segments() == before
        events = self._load_dump(live.last_postmortem)
        deaths = [e for e in events if e["event"] == "worker_death"]
        assert deaths and deaths[-1]["rank"] == 1
        # it died inside the fused program ("prog(lnl+lnl)")
        assert deaths[-1]["op"].startswith("prog")

    @pytest.mark.timeout(30)
    def test_worker_error_without_death_also_dumps(self, setup, tmp_path):
        """A worker-side exception (not a death) is recorded as a
        worker_error event and still triggers the dump."""
        from repro.obs.live import LiveTelemetry

        live = LiveTelemetry(postmortem_dir=str(tmp_path))
        with make_team(setup, "processes", live=live) as team:
            with pytest.raises(WorkerError):
                team._broadcast(("explode",))
        events = self._load_dump(live.last_postmortem)
        errors = [e for e in events if e["event"] == "worker_error"]
        assert errors and errors[-1]["rank"] == 0
        assert not any(e["event"] == "worker_death" for e in events)


@pytest.mark.parametrize("backend", BACKENDS)
class TestIdempotentClose:
    @pytest.mark.timeout(30)
    def test_double_close(self, setup, backend):
        team = make_team(setup, backend)
        team.loglikelihood(0)
        team.close()
        team.close()  # second close must be a no-op, not a barrier wait

    @pytest.mark.timeout(30)
    def test_context_manager_plus_explicit_close(self, setup, backend):
        with make_team(setup, backend) as team:
            team.loglikelihood(0)
            team.close()
        # __exit__ called close() again — reaching here means no deadlock

    @pytest.mark.timeout(30)
    def test_broadcast_after_close_raises(self, setup, backend):
        team = make_team(setup, backend)
        team.close()
        with pytest.raises(RuntimeError, match="closed"):
            team.loglikelihood(0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestIdleWorkersEndToEnd:
    @pytest.mark.timeout(60)
    def test_partition_shorter_than_team(self, setup, backend):
        """The paper's m'_p < T case on the real team: a partition
        with fewer patterns than workers leaves workers idle but the full
        old/new optimization pipeline stays correct."""
        _, tree, lengths, models, alphas = setup
        rng = np.random.default_rng(43)
        tiny_aln = simulate_alignment(
            tree, lengths, models[0], 1.0, 8, rng
        )
        tiny = PartitionedAlignment(tiny_aln, uniform_scheme(8, 4))
        assert max(tiny.pattern_counts()) < 6  # fewer patterns than workers
        seq = PartitionedEngine(
            tiny, tree.copy(), models=models, alphas=alphas,
            initial_lengths=lengths,
        )
        ref = seq.loglikelihood(0)
        out = {}
        for strategy in ("old", "new"):
            with ParallelPLK(
                tiny, tree, models, alphas, 6, backend=backend,
                initial_lengths=lengths,
            ) as team:
                assert team.loglikelihood(0) == pytest.approx(ref, abs=1e-8)
                out[strategy] = team.optimize_branches([0], strategy)
        np.testing.assert_allclose(out["old"], out["new"], atol=1e-4)

    @pytest.mark.timeout(60)
    def test_idle_workers_show_zero_busy_in_profile(self, setup, backend):
        """Workers owning zero patterns appear as (near-)idle lanes in the
        measured profile — the instrument sees what the paper describes."""
        from repro.perf import Profiler

        _, tree, lengths, models, alphas = setup
        rng = np.random.default_rng(44)
        tiny_aln = simulate_alignment(tree, lengths, models[0], 1.0, 6, rng)
        tiny = PartitionedAlignment(tiny_aln, uniform_scheme(6, 3))
        profiler = Profiler()
        with ParallelPLK(
            tiny, tree, models, alphas, 6, backend=backend,
            initial_lengths=lengths, profiler=profiler,
        ) as team:
            team.loglikelihood(0)
        profile = profiler.profile()
        busy = profile.busy_seconds
        # the busiest lane works strictly more than the idlest
        assert busy.max() > busy.min()
        assert profile.load_balance < 1.0
