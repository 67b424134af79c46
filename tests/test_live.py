"""Live telemetry plane: worker-stats rows, heartbeats, flight recorder,
stall detection, streaming exporters and the ``repro top`` dashboard.

The lock-free read protocol is tested the only honest way — by racing a
writer thread against a reader and asserting the documented tolerance:
consistent snapshots dominate, and the monotonic counters never travel
backwards or overshoot what was actually written (a torn read may only
UNDER-report).
"""
import json
import threading
import time

import numpy as np
import pytest

from repro.obs.live import (
    FlightRecorder,
    HealthMonitor,
    LiveTelemetry,
    NullHealthMonitor,
    WorkerSample,
    render_dashboard,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import (
    escape_label_value,
    prometheus_text,
    sanitize_metric_name,
)
from repro.parallel import ParallelPLK, live_segments
from repro.parallel.shm import (
    STAT_BUSY,
    STAT_COMMANDS,
    STAT_HEARTBEAT,
    STAT_PHASE,
    WorkerStatsPlane,
    WorkerStatsWriter,
    op_code,
    op_name,
)
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

BACKENDS = ["processes"]


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(45)
    tree, lengths = random_topology_with_lengths(6, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(2), 1.0, 300, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(300, 150))
    models = [SubstitutionModel.random_gtr(p) for p in range(2)]
    alphas = [0.9, 1.2]
    return data, tree, lengths, models, alphas


def make_team(setup, backend, workers=2, **kw):
    data, tree, lengths, models, alphas = setup
    return ParallelPLK(
        data, tree, models, alphas, workers, backend=backend,
        initial_lengths=lengths, **kw,
    )


# -- the shared-memory stats plane ---------------------------------------


class TestWorkerStatsPlane:
    def test_create_and_close_unlinks(self):
        before = live_segments()
        plane = WorkerStatsPlane(3)
        assert len(live_segments()) == len(before) + 1
        assert plane.n_workers == 3
        plane.close()
        assert live_segments() == before

    def test_rejects_empty_team(self):
        with pytest.raises(ValueError):
            WorkerStatsPlane(0)

    def test_attach_round_trip(self):
        owner = WorkerStatsPlane(2)
        writer = WorkerStatsWriter(owner.row(1), 1)
        writer.begin("lnl")
        writer.done(0.25, 40)
        try:
            reader = WorkerStatsPlane.attach(owner.name)
            try:
                assert reader.n_workers == 2
                row, consistent = reader.read_row(1)
                assert consistent
                assert row[STAT_COMMANDS] == 1.0
                assert row[STAT_BUSY] == pytest.approx(0.25)
            finally:
                reader.close()
            # the attached close() must NOT have unlinked the segment
            assert owner.name in live_segments()
        finally:
            owner.close()

    def test_attach_missing_segment(self):
        with pytest.raises(FileNotFoundError):
            WorkerStatsPlane.attach("repro_shm_no_such_plane")

    def test_attach_rejects_foreign_segment(self):
        """A segment without the magic header is refused, not misread."""
        owner = WorkerStatsPlane(2)
        try:
            owner.slots[0, 0] = 0.0  # corrupt the magic
            with pytest.raises(ValueError, match="worker-stats plane"):
                WorkerStatsPlane.attach(owner.name)
        finally:
            owner.close()

    def test_op_codes_round_trip(self):
        for op in ("lnl", "prog", "deriv_edges", "lnl_edges", "stall"):
            assert op_name(op_code(op)) == op
        assert op_code("no_such_op") == 0
        assert op_name(999.0) == "?"


class TestSeqlockTornReads:
    """The documented torn-read tolerance, exercised by an actual race."""

    @pytest.mark.timeout(60)
    def test_reader_races_writer(self):
        plane = WorkerStatsPlane(1)
        writer = WorkerStatsWriter(plane.row(0), 0)
        # the memoryview writer runs ~1µs per cycle: enough writes that
        # the reader thread is guaranteed several GIL quanta of overlap
        n_writes = 300_000
        stop = threading.Event()

        def hammer():
            for _ in range(n_writes):
                writer.begin("lnl")
                writer.done(0.001, 10)
            stop.set()

        thread = threading.Thread(target=hammer)
        reads, consistent_reads = 0, 0
        last_commands = 0.0
        thread.start()
        try:
            while not stop.is_set():
                row, consistent = plane.read_row(0)
                reads += 1
                if consistent:
                    consistent_reads += 1
                    # monotonic counters never travel backwards and
                    # never overshoot the writer's total
                    assert row[STAT_COMMANDS] >= last_commands
                    assert row[STAT_COMMANDS] <= n_writes
                    last_commands = row[STAT_COMMANDS]
        finally:
            thread.join()
            plane_final = plane.read_row(0)[0]
            plane.close()
        assert reads > 0
        # retries make torn results rare even under a hammering writer
        assert consistent_reads / reads > 0.5
        assert plane_final[STAT_COMMANDS] == n_writes

    def test_torn_read_flagged_not_raised(self):
        """A row left mid-write (odd seqlock) yields consistent=False."""
        plane = WorkerStatsPlane(1)
        try:
            plane.row(0)[0] = 1.0  # STAT_SEQ odd: write "in progress"
            row, consistent = plane.read_row(0, retries=2)
            assert not consistent
            assert row is not None  # still a usable field-atomic snapshot
        finally:
            plane.close()


# -- flight recorder ------------------------------------------------------


class TestFlightRecorder:
    def test_ring_keeps_last_capacity_events(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("tick", i=i)
        events = rec.events()
        assert len(rec) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert [e["seq"] for e in events] == [7, 8, 9, 10]

    def test_dump_is_valid_jsonl(self, tmp_path):
        rec = FlightRecorder()
        rec.record("dispatch", op="lnl", n_commands=1)
        rec.record("barrier_exit", op="lnl", wall=0.01)
        path = rec.dump(str(tmp_path / "flight.jsonl"))
        lines = [json.loads(line) for line in open(path)]
        assert [e["event"] for e in lines] == ["dispatch", "barrier_exit"]
        assert all("t" in e and "seq" in e for e in lines)

    def test_clear(self):
        rec = FlightRecorder()
        rec.record("tick")
        rec.clear()
        assert len(rec) == 0 and rec.events() == []

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# -- health monitoring ----------------------------------------------------


def _make_busy(plane, rank, age):
    """Force a row to look busy with a heartbeat ``age`` seconds old."""
    row = plane.row(rank)
    row[STAT_PHASE] = 1.0
    row[STAT_HEARTBEAT] = time.monotonic() - age


class TestHealthMonitor:
    def test_idle_team_is_healthy_whatever_the_age(self):
        plane = WorkerStatsPlane(2)
        try:
            plane.row(0)[STAT_HEARTBEAT] = time.monotonic() - 100.0
            monitor = HealthMonitor(plane, stall_threshold=0.5)
            report = monitor.check()
            assert report.healthy and report.stalled == ()
        finally:
            plane.close()

    def test_busy_worker_with_stale_heartbeat_stalls(self):
        plane = WorkerStatsPlane(3)
        try:
            _make_busy(plane, 1, age=10.0)
            monitor = HealthMonitor(plane, stall_threshold=0.5)
            report = monitor.check()
            assert report.stalled == (1,)
            assert not report.healthy
        finally:
            plane.close()

    def test_stall_recorded_once_per_episode(self):
        plane = WorkerStatsPlane(2)
        rec = FlightRecorder()
        try:
            _make_busy(plane, 0, age=10.0)
            monitor = HealthMonitor(plane, stall_threshold=0.5, recorder=rec)
            monitor.check()
            monitor.check()  # same episode: no second event
            stalls = [e for e in rec.events() if e["event"] == "stall"]
            assert len(stalls) == 1 and stalls[0]["rank"] == 0
            # recovery then a NEW stall produces a new event
            plane.row(0)[STAT_PHASE] = 0.0
            monitor.check()
            _make_busy(plane, 0, age=10.0)
            monitor.check()
            stalls = [e for e in rec.events() if e["event"] == "stall"]
            assert len(stalls) == 2
        finally:
            plane.close()

    def test_live_imbalance_uses_measured_busy(self):
        plane = WorkerStatsPlane(2)
        try:
            plane.row(0)[STAT_BUSY] = 3.0
            plane.row(1)[STAT_BUSY] = 1.0
            monitor = HealthMonitor(plane, stall_threshold=5.0)
            assert monitor.imbalance() == pytest.approx(1.5)  # max/mean
        finally:
            plane.close()

    def test_gauges_published(self):
        plane = WorkerStatsPlane(2)
        metrics = MetricsRegistry()
        try:
            _make_busy(plane, 1, age=10.0)
            HealthMonitor(plane, stall_threshold=0.5, metrics=metrics).check()
            snap = metrics.snapshot()
            assert snap["live.stalled_workers"]["value"] == 1.0
            assert snap["live.imbalance"]["value"] >= 1.0
        finally:
            plane.close()

    def test_wait_for_stall_times_out(self):
        plane = WorkerStatsPlane(1)
        try:
            monitor = HealthMonitor(plane, stall_threshold=5.0)
            assert monitor.wait_for_stall(timeout=0.1, poll=0.02) is None
        finally:
            plane.close()

    def test_rejects_nonpositive_threshold(self):
        plane = WorkerStatsPlane(1)
        try:
            with pytest.raises(ValueError):
                HealthMonitor(plane, stall_threshold=0.0)
        finally:
            plane.close()


# -- live plane on a real team -------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestLiveTeamIntegration:
    @pytest.mark.timeout(60)
    def test_heartbeats_and_counters_advance(self, setup, backend):
        live = LiveTelemetry()
        before = live_segments()
        with make_team(setup, backend, live=live) as team:
            assert len(live_segments()) == len(before) + 1
            team.loglikelihood(0)
            team.loglikelihood(0)
            samples = live.sample()
            assert len(samples) == 2
            for s in samples:
                assert s.commands >= 2
                assert s.patterns > 0
                assert s.busy_seconds > 0.0
                assert s.heartbeat_age < 30.0
            events = {e["event"] for e in live.recorder.events()}
            assert {"run_start", "exchange"} <= events
        assert live_segments() == before  # engine unlinked the plane

    @pytest.mark.timeout(60)
    def test_tree_pass_counts_exact_patterns(self, setup, backend):
        """A tree pass reports the patterns its edge-stacked commands
        touched, summed over workers: the full lnL of every partition at
        both sweep openings and the closing guard, every edge's sumtable
        at both openings, and one pattern pass per Newton lane-round."""
        from repro.core import smoothing_edge_order
        from repro.obs import ConvergenceTelemetry

        data, tree, *_ = setup
        order = smoothing_edge_order(tree)
        live, tel = LiveTelemetry(), ConvergenceTelemetry()
        with make_team(setup, backend, live=live, telemetry=tel) as team:
            team.optimize_branches(order, "tree")
            samples = live.sample()
        assert not tel.by_name("tree_guard")
        widths = data.pattern_counts()
        lanes = sum(
            log.iterations_per_lane().reshape(len(order), -1) @ widths
            for log in tel.by_name("nr_tree")
        )
        expected = 3 * widths.sum() + 2 * len(order) * widths.sum() + lanes.sum()
        assert expected > 0
        assert sum(s.patterns for s in samples) == expected

    @pytest.mark.timeout(60)
    def test_branch_counts_exact_patterns(self, setup, backend):
        """A per-branch ``new`` optimization sends no lane mask when every
        lane is live, so the workers count from the partitions prepared
        in their workspace slot: the edge's sumtable, one pattern pass per
        Newton lane-round, and both guard evaluations."""
        from repro.obs import ConvergenceTelemetry

        data = setup[0]
        live, tel = LiveTelemetry(), ConvergenceTelemetry()
        with make_team(setup, backend, live=live, telemetry=tel) as team:
            team.optimize_branches([0], "new")
            samples = live.sample()
        widths = data.pattern_counts()
        (log,) = tel.by_name("nr_branch")
        expected = 3 * widths.sum() + log.iterations_per_lane() @ widths
        assert sum(s.patterns for s in samples) == expected

    @pytest.mark.timeout(60)
    def test_final_samples_survive_close(self, setup, backend):
        live = LiveTelemetry()
        with make_team(setup, backend, live=live) as team:
            team.loglikelihood(0)
        samples = live.sample()  # plane is gone; captured rows remain
        assert len(samples) == 2 and all(s.commands >= 1 for s in samples)
        assert live.imbalance() >= 1.0
        assert "repro live" in live.dashboard()

    @pytest.mark.timeout(60)
    def test_event_stream_jsonl(self, setup, backend, tmp_path):
        events_path = tmp_path / "events.jsonl"
        live = LiveTelemetry(events_path=str(events_path))
        with make_team(setup, backend, live=live) as team:
            team.loglikelihood(0)
        events = [json.loads(line) for line in open(events_path)]
        names = [e["event"] for e in events]
        assert names[0] == "run_start" and names[-1] == "run_end"
        assert names.count("exchange") == team.commands_issued
        start = events[0]
        assert start["backend"] == backend and start["n_workers"] == 2

    @pytest.mark.timeout(60)
    def test_fused_program_steps_count_individually(self, setup, backend):
        live = LiveTelemetry()
        with make_team(setup, backend, live=live) as team:
            base = sum(s.commands for s in live.sample())
            team.run("lnl", [("lnl", 0), ("lnl", 0), ("lnl", 0)])
            after = sum(s.commands for s in live.sample())
        assert after - base >= 3 * 2  # 3 steps x 2 workers


@pytest.mark.timeout(60)
def test_shm_team_has_stats_plane_and_cleans_up(setup):
    """On a process team the stats plane is the only /dev/shm segment,
    and closing the engine unlinks it."""
    live = LiveTelemetry()
    before = live_segments()
    with make_team(setup, "processes", live=live) as team:
        assert len(live_segments()) == len(before) + 1
        team.loglikelihood(0)
        samples = live.sample()
        assert all(s.commands >= 1 for s in samples)
    assert live_segments() == before


@pytest.mark.timeout(120)
def test_live_plane_does_not_change_the_schedule(setup):
    """The same newPAR branch smoothing plus alpha run, once with the
    live plane off and once on: identical broadcasts, every worker
    executes exactly the worker commands of the unobserved run, results
    are bitwise equal, and the plane leaves no segment behind."""
    from repro.perf import Profiler

    _, tree, *_ = setup
    edges = list(range(tree.n_edges))
    before = live_segments()
    runs = {}
    for arm, live in (("off", None), ("on", LiveTelemetry())):
        profiler = Profiler()
        with make_team(setup, "processes", live=live,
                       profiler=profiler) as team:
            lengths = team.optimize_branches(edges, "new")
            alphas = team.optimize_alpha("new")
            lnl = team.loglikelihood(0)
            runs[arm] = {
                "issued": team.commands_issued,
                "worker_commands": profiler.profile().n_commands,
                "samples": live.sample() if live else [],
                "lengths": lengths, "alphas": alphas, "lnl": lnl,
            }
    off, on = runs["off"], runs["on"]
    assert on["issued"] == off["issued"]
    assert on["worker_commands"] == off["worker_commands"]
    assert [s.commands for s in on["samples"]] == [off["worker_commands"]] * 2
    assert on["lnl"] == off["lnl"]
    assert np.array_equal(on["lengths"], off["lengths"])
    assert np.array_equal(on["alphas"], off["alphas"])
    assert live_segments() == before


class TestStallDetection:
    @pytest.mark.timeout(30)
    def test_induced_stall_detected_within_threshold(self, setup):
        """The acceptance drill: wedge one worker inside a command and
        the monitor must flag exactly that rank before the command ends."""
        live = LiveTelemetry(stall_threshold=0.2)
        with make_team(setup, "processes", live=live) as team:
            team.loglikelihood(0)  # all rows warm and idle

            def wedge():
                team._broadcast(("stall", 1, 1.2))

            runner = threading.Thread(target=wedge)
            runner.start()
            try:
                report = live.monitor().wait_for_stall(timeout=5.0)
            finally:
                runner.join()
            assert report is not None, "stall never detected"
            assert report.stalled == (1,)
            stalls = [
                e for e in live.recorder.events() if e["event"] == "stall"
            ]
            assert stalls and stalls[0]["rank"] == 1
            assert stalls[0]["op"] == "stall"


# -- null-object parity ---------------------------------------------------


def _public_api(cls):
    return {n for n in dir(cls) if not n.startswith("_")}


class TestNullParity:
    @pytest.mark.parametrize("real,null", [
        (HealthMonitor, NullHealthMonitor),
    ])
    def test_null_mirrors_public_api(self, real, null):
        missing = _public_api(real) - _public_api(null)
        # attributes only set in the real __init__ are instance state the
        # engine never touches when disabled; methods must all exist
        methods = {n for n in missing if callable(getattr(real, n, None))}
        assert not methods, f"{null.__name__} missing {sorted(methods)}"

    def test_enabled_flags(self):
        assert HealthMonitor.enabled
        assert not NullHealthMonitor.enabled

    @pytest.mark.timeout(60)
    def test_disabled_team_creates_no_stats_segment(self, setup):
        before = live_segments()
        with make_team(setup, "processes") as team:  # live defaults off
            assert team.live is None
            assert team._stats_plane is None
            team.loglikelihood(0)
            assert live_segments() == before
        assert live_segments() == before

    @pytest.mark.timeout(60)
    def test_live_true_constructs_default_telemetry(self, setup):
        with make_team(setup, "processes", live=True) as team:
            assert isinstance(team.live, LiveTelemetry)
            team.loglikelihood(0)
            assert team.live.sample()


# -- Prometheus exposition ------------------------------------------------


class TestPrometheus:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("broadcasts.likelihood") == \
            "repro_broadcasts_likelihood"
        assert sanitize_metric_name("repro_x") == "repro_x"
        assert sanitize_metric_name("a b-c") == "repro_a_b_c"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_counter_gets_total_suffix_once(self):
        metrics = MetricsRegistry()
        metrics.counter("commands").inc(3)
        metrics.counter("retries_total").inc(1)
        text = prometheus_text(metrics=metrics)
        assert "repro_commands_total 3" in text
        assert "repro_retries_total 1" in text
        assert "total_total" not in text

    def test_help_and_type_precede_every_family(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.gauge("g").set(2.5)
        metrics.histogram("h").observe(0.5)
        lines = prometheus_text(metrics=metrics).splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE"):
                assert lines[i - 1].startswith("# HELP")

    def test_histogram_buckets_cumulative_ending_inf(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("wall", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(v)
        text = prometheus_text(metrics=metrics)
        buckets = [
            line for line in text.splitlines()
            if line.startswith("repro_wall_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1].startswith('repro_wall_bucket{le="+Inf"}')
        assert counts[-1] == 5  # +Inf bucket equals _count
        assert "repro_wall_count 5" in text

    def test_run_info_labels(self):
        text = prometheus_text(run_config={"backend": "processes", "distribution": "lpt"})
        assert 'repro_run_info{backend="processes",distribution="lpt"} 1' in text

    def test_live_worker_families(self):
        sample = WorkerSample(
            rank=0, phase="busy", op="lnl", commands=7, busy_seconds=0.5,
            wait_seconds=0.5, patterns=200,
            heartbeat_age=0.01, uptime=2.0, consistent=True,
        )
        text = prometheus_text(samples=[sample])
        assert 'repro_live_worker_commands{worker="0"} 7' in text
        assert 'repro_live_worker_busy_fraction{worker="0"} 0.5' in text

    def test_empty_inputs_render_empty(self):
        assert prometheus_text() == ""


# -- dashboard rendering --------------------------------------------------


class TestDashboard:
    def _sample(self, **kw):
        base = dict(
            rank=0, phase="busy", op="lnl", commands=10, busy_seconds=1.0,
            wait_seconds=1.0, patterns=100,
            heartbeat_age=0.5, uptime=5.0, consistent=True,
        )
        base.update(kw)
        return WorkerSample(**base)

    def test_renders_lane_per_worker(self):
        text = render_dashboard(
            [self._sample(rank=0), self._sample(rank=1, phase="idle")],
            run_config={"backend": "processes", "distribution": "lpt"},
            imbalance=1.25,
        )
        assert "backend=processes" in text and "distribution=lpt" in text
        assert "imbalance 1.250" in text
        assert "w0" in text and "w1" in text and "idle" in text

    def test_inconsistent_sample_flagged(self):
        text = render_dashboard([self._sample(consistent=False)])
        assert "w0   ?" in text

    def test_width_truncation(self):
        text = render_dashboard([self._sample()], width=40)
        assert all(len(line) <= 40 for line in text.splitlines())

    def test_no_workers(self):
        assert "(no workers)" in render_dashboard([])


# -- chrome-trace run-config stamping (satellite: export) -----------------


class TestExportRunConfig:
    def test_metadata_carries_run_config_and_lane_names(self):
        from repro.obs.export import _metadata_events

        events = _metadata_events(
            [0, 1, 2], run_config={"distribution": "lpt", "backend": "processes"}
        )
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        assert by_name["run_config"][0]["args"]["distribution"] == "lpt"
        labels = by_name["process_labels"][0]["args"]["labels"]
        assert "distribution=lpt" in labels and "backend=processes" in labels
        lanes = [e["args"]["name"] for e in by_name["thread_name"]]
        assert lanes == ["master", "worker 0", "worker 1"]

    @pytest.mark.timeout(60)
    def test_profile_to_chrome_self_describes(self, setup):
        from repro.obs.export import (
            profile_run_config,
            replay_profile,
            tracer_to_chrome,
        )
        from repro.perf import Profiler

        profiler = Profiler()
        live = LiveTelemetry()
        with make_team(
            setup, "processes", profiler=profiler, live=live
        ) as team:
            team.loglikelihood(0)
        profile = profiler.profile()
        events = tracer_to_chrome(replay_profile(profile),
                                  run_config=profile_run_config(profile))
        cfg = [e for e in events if e.get("name") == "run_config"]
        assert cfg and cfg[0]["args"]["backend"] == "processes"
        assert cfg[0]["args"]["live"] is True  # the meta stamp rode along


# -- CLI ------------------------------------------------------------------


class TestTopCLI:
    WORKLOAD = [
        "--taxa", "6", "--sites", "200", "--partitions", "2",
        "--workers", "2", "--edges", "2",
    ]

    def test_run_mode_renders_lanes(self, capsys):
        from repro.cli import main

        rc = main(["top", *self.WORKLOAD, "--frames", "2",
                   "--interval", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro live" in out and "w0" in out and "w1" in out
        assert "live plane segment: repro_shm_" in out
        assert "imbalance" in out

    def test_attach_mode_rejects_missing_segment(self, capsys):
        from repro.cli import main

        rc = main(["top", "--plane", "repro_shm_nope", "--frames", "1"])
        assert rc == 2
        assert "cannot attach" in capsys.readouterr().err

    def test_attach_mode_requires_finite_frames(self, capsys):
        from repro.cli import main

        rc = main(["top", "--plane", "repro_shm_nope"])
        assert rc == 2
        assert "--frames" in capsys.readouterr().err


class TestProfileLiveCLI:
    @pytest.mark.timeout(120)
    def test_profile_live_writes_prom_and_events(self, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        rc = main([
            "profile", *TestTopCLI.WORKLOAD, "--live",
            "--prom", str(prom), "--events", str(events),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "live: imbalance" in out
        text = prom.read_text()
        assert "repro_run_info{" in text
        assert 'repro_live_worker_commands{worker="0"}' in text
        lines = [json.loads(line) for line in open(events)]
        names = [e["event"] for e in lines]
        assert "run_start" in names and "run_end" in names

    def test_prom_requires_live(self, capsys):
        from repro.cli import main

        rc = main(["profile", *TestTopCLI.WORKLOAD, "--prom", "x.prom"])
        assert rc == 2
        assert "--live" in capsys.readouterr().err
