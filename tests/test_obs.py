"""repro.obs tests: span tracing, thread-safe metrics, convergence
telemetry invariants and Chrome trace-event export."""
import json
import threading

import numpy as np
import pytest

from repro.core import PartitionedEngine, optimize_model
from repro.obs import (
    ConvergenceLog,
    ConvergenceTelemetry,
    MASTER_LANE,
    MetricsRegistry,
    NullMetrics,
    NullTelemetry,
    NullTracer,
    Tracer,
    ascii_timeline,
    profile_ascii_timeline,
    profile_to_chrome,
    simulation_to_chrome,
    tracer_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.optimize import BatchedBrent, BatchedNewton
from repro.perf import CommandRecord, RunProfile
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def small_setup():
    rng = np.random.default_rng(11)
    tree, lengths = random_topology_with_lengths(6, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(3), 1.0, 300, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(300, 100))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    alphas = [0.7, 1.2, 2.0]
    return data, tree, lengths, models, alphas


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_span_context_records_interval(self):
        tracer = Tracer()
        with tracer.span("work", cat="optimizer", round=3):
            pass
        assert tracer.n_spans == 1
        span = tracer.spans[0]
        assert span.name == "work" and span.cat == "optimizer"
        assert span.lane == MASTER_LANE
        assert span.duration >= 0.0
        assert span.args == {"round": 3}
        assert span.end == pytest.approx(span.start + span.duration)

    def test_span_recorded_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.n_spans == 1 and tracer.spans[0].name == "boom"

    def test_add_span_and_lanes(self):
        tracer = Tracer()
        tracer.add_span("deriv", "derivative", 0, 0.0, 0.5)
        tracer.add_span("deriv", "derivative", 2, 0.0, 0.3)
        tracer.instant("converged", lane=1)
        assert tracer.lanes() == [0, 1, 2]

    def test_by_category_master_only(self):
        tracer = Tracer()
        tracer.add_span("a", "derivative", 0, 0.0, 1.0)
        tracer.add_span("a", "derivative", 1, 0.0, 5.0)  # worker lane
        tracer.add_span("b", "evaluate", 0, 1.0, 0.25)
        cats = tracer.by_category()
        assert cats == pytest.approx({"derivative": 1.0, "evaluate": 0.25})

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.add_span("x", "control", 0, 0.0, -1e-9)
        assert tracer.spans[0].duration == 0.0

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        ctx = tracer.span("anything", cat="x", edge=1)
        with ctx:
            pass
        # the shared no-op context is reused — no allocation per call
        assert tracer.span("other") is ctx
        assert tracer.now() == 0.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.counter("n").inc(2.0)
        reg.gauge("g").set(3.0)
        reg.gauge("g").add(-1.0)
        hist = reg.histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 100.0):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["n"] == {"type": "counter", "value": 3.0}
        assert snap["g"]["value"] == pytest.approx(2.0)
        assert snap["h"]["count"] == 3
        assert snap["h"]["sum"] == pytest.approx(105.5)
        assert snap["h"]["min"] == 0.5 and snap["h"]["max"] == 100.0
        assert snap["h"]["buckets"] == {"1.0": 1, "10.0": 1, "+inf": 1}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_name_bound_to_one_kind(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_is_json(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("b").observe(1e-7)
        back = json.loads(reg.to_json())
        assert set(back) == {"a", "b"}
        assert reg.names() == ["a", "b"]

    def test_concurrent_increments(self):
        """The service's executor threads publish into one registry
        concurrently: no increment may be lost."""
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 2_000

        def work():
            counter = reg.counter("hits")
            hist = reg.histogram("vals", bounds=(0.5,))
            for i in range(per_thread):
                counter.inc()
                hist.observe(i % 2)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert reg.counter("hits").value == total
        snap = reg.snapshot()["vals"]
        assert snap["count"] == total
        assert snap["buckets"] == {"0.5": total // 2, "+inf": total // 2}

    def test_null_metrics_accepts_everything(self):
        null = NullMetrics()
        assert null.enabled is False
        null.counter("x").inc()
        null.gauge("y").set(1.0)
        null.histogram("z").observe(2.0)
        assert null.snapshot() == {}


# ----------------------------------------------------------------------
# Convergence telemetry
# ----------------------------------------------------------------------


class TestConvergenceLog:
    def test_masks_and_views(self):
        log = ConvergenceLog(name="t", n_lanes=3)
        log.iteration(np.zeros(3), np.array([True, True, True]))
        log.iteration(np.zeros(3), np.array([True, False, True]))
        log.iteration(np.zeros(3), np.array([True, False, False]))
        assert log.n_rounds == 3
        np.testing.assert_array_equal(log.iterations_per_lane(), [3, 1, 2])
        np.testing.assert_array_equal(log.active_per_round(), [3, 2, 1])
        assert log.is_monotonic()

    def test_reactivation_detected(self):
        log = ConvergenceLog(name="t", n_lanes=2)
        log.iteration(np.zeros(2), np.array([True, False]))
        log.iteration(np.zeros(2), np.array([True, True]))  # lane 1 returns
        assert not log.is_monotonic()

    def test_lane_count_enforced(self):
        log = ConvergenceLog(name="t", n_lanes=2)
        with pytest.raises(ValueError):
            log.iteration(np.zeros(3), np.ones(3, dtype=bool))

    def test_dict_roundtrip(self):
        log = ConvergenceLog(name="t", n_lanes=2)
        log.iteration(np.zeros(2), np.array([True, True]))
        log.iteration(np.zeros(2), np.array([False, True]))
        back = ConvergenceLog.from_dict(log.to_dict())
        np.testing.assert_array_equal(back.matrix(), log.matrix())

    def test_brent_sums_match_reported_iterations(self):
        """The accounting invariant: each lane's activity flags sum to the
        iteration count BatchedBrent reports for it."""
        log = ConvergenceLog(name="brent", n_lanes=4)
        centers = np.array([0.3, 1.0, 3.0, 7.7])

        def fn(x, active):
            return (x - centers) ** 2

        solver = BatchedBrent(np.full(4, 0.01), np.full(4, 10.0), xtol=1e-6)
        res = solver.run(fn, observer=log)
        np.testing.assert_array_equal(log.iterations_per_lane(), res.iterations)
        assert log.is_monotonic()

    def test_newton_sums_match_reported_iterations(self):
        log = ConvergenceLog(name="newton", n_lanes=3)
        roots = np.array([0.2, 1.5, 4.0])

        def fn(z, active):
            return -(z - roots), -np.ones_like(z)

        solver = BatchedNewton(lower=1e-3, upper=10.0, ztol=1e-8)
        res = solver.run(fn, z0=np.full(3, 2.0), observer=log)
        np.testing.assert_array_equal(log.iterations_per_lane(), res.iterations)
        assert log.is_monotonic()

    def test_masked_lane_never_active(self):
        log = ConvergenceLog(name="brent", n_lanes=3)

        def fn(x, active):
            return (x - 1.0) ** 2

        solver = BatchedBrent(np.full(3, 0.01), np.full(3, 10.0), xtol=1e-4)
        mask = np.array([True, False, True])
        res = solver.run(fn, mask=mask, observer=log)
        assert log.iterations_per_lane()[1] == 0
        assert res.iterations[1] == 0

    def test_telemetry_collector(self):
        tel = ConvergenceTelemetry()
        a = tel.start("nr_branch", 2)
        b = tel.start("nr_branch", 2)
        tel.start("brent_alpha", 2)
        a.iteration(np.zeros(2), np.ones(2, dtype=bool))
        b.iteration(np.zeros(2), np.array([True, False]))
        assert len(tel.by_name("nr_branch")) == 2
        np.testing.assert_array_equal(tel.total_iterations(), [2, 1])
        assert "nr_branch" in tel.summary()
        assert len(json.loads(tel.to_json())["logs"]) == 3

    def test_null_telemetry_returns_no_observer(self):
        assert NullTelemetry().start("x", 5) is None


# ----------------------------------------------------------------------
# Engine integration (sequential)
# ----------------------------------------------------------------------


class TestEngineObservability:
    def test_defaults_are_null(self, small_setup):
        data, tree, lengths, models, alphas = small_setup
        eng = PartitionedEngine(data, tree.copy(), models=models,
                                alphas=alphas, initial_lengths=lengths)
        assert not eng.tracer.enabled
        assert not eng.metrics.enabled
        assert not eng.telemetry.enabled

    def test_model_opt_full_stack(self, small_setup):
        """optimize_model with the full obs stack: optimizer-round and
        region spans, iteration histograms, and telemetry logs whose
        per-lane sums equal the iteration counts the metrics saw."""
        data, tree, lengths, models, alphas = small_setup
        tracer, metrics, tel = Tracer(), MetricsRegistry(), ConvergenceTelemetry()
        eng = PartitionedEngine(
            data, tree.copy(), models=models, alphas=alphas,
            initial_lengths=lengths, tracer=tracer, metrics=metrics,
            telemetry=tel,
        )
        optimize_model(eng, strategy="new", max_rounds=2, include_rates=False)

        cats = tracer.by_category()
        assert "optimizer" in cats and "region" in cats
        names = {s.name for s in tracer.spans}
        assert "opt_round" in names

        snap = metrics.snapshot()
        assert snap["optimizer_calls.brent_alpha"]["value"] >= 1
        alpha_hist = snap["iterations.brent_alpha"]
        assert alpha_hist["count"] > 0

        assert all(log.is_monotonic() for log in tel.logs)
        alpha_logs = tel.by_name("brent_alpha")
        assert alpha_logs
        # telemetry lane sums == iteration counts published to metrics
        tel_total = sum(log.iterations_per_lane().sum() for log in alpha_logs)
        assert tel_total == alpha_hist["sum"]
        assert all(log.n_lanes == eng.n_partitions for log in tel.logs)


# ----------------------------------------------------------------------
# Parallel backend integration
# ----------------------------------------------------------------------


class TestParallelObservability:
    def test_observed_broadcasts(self, small_setup):
        """A traced + profiled newPAR run on a 2-worker team: master
        lane plus one lane per worker, broadcast counters matching the
        command count, barrier-wait samples, and monotonic per-partition
        convergence masks with one Brent round per evaluation program."""
        from repro.parallel import ParallelPLK
        from repro.perf import Profiler

        data, tree, lengths, models, alphas = small_setup
        tracer, metrics, tel = Tracer(), MetricsRegistry(), ConvergenceTelemetry()
        profiler = Profiler()
        with ParallelPLK(
            data, tree, models, alphas, 2,
            initial_lengths=lengths, profiler=profiler,
            tracer=tracer, metrics=metrics, telemetry=tel,
        ) as team:
            team.optimize_branches([0], "new")
            team.optimize_alpha("new")
            issued = team.commands_issued

        assert tracer.lanes() == [0, 1, 2]
        snap = metrics.snapshot()
        assert snap["broadcasts.total"]["value"] == issued
        kind_total = sum(
            inst["value"] for name, inst in snap.items()
            if name.startswith("broadcasts.") and name != "broadcasts.total"
        )
        assert kind_total == issued
        assert snap["barrier_wait_seconds"]["count"] == issued * 2
        assert snap["region_wall_seconds"]["count"] == issued

        names = {s.name for s in tracer.spans if s.lane == MASTER_LANE}
        assert {"optimize_branches", "optimize_alpha"} <= names

        assert all(log.is_monotonic() for log in tel.logs)
        (alpha_log,) = tel.by_name("brent_alpha")
        assert alpha_log.n_lanes == team.n_partitions
        # one recorded Brent round per write+evaluate program
        evals = sum(1 for r in profiler.records if r.op == "prog(set_alpha_vec+lnl_parts)")
        assert alpha_log.n_rounds == evals
        events = validate_chrome_trace(tracer_to_chrome(tracer))
        assert {ev["tid"] for ev in events if ev["ph"] == "X"} == {0, 1, 2}

    def test_unobserved_run_identical_path(self, small_setup):
        """Without tracer/metrics the broadcast path must not record
        anything (the `enabled` guard keeps nulls off the hot path)."""
        from repro.parallel import ParallelPLK

        data, tree, lengths, models, alphas = small_setup
        with ParallelPLK(
            data, tree, models, alphas, 2,
            initial_lengths=lengths,
        ) as team:
            team.loglikelihood(0)
            assert not team.tracer.enabled
            assert not team.metrics.enabled
            assert not team.telemetry.enabled


# ----------------------------------------------------------------------
# Chrome trace-event / ASCII export
# ----------------------------------------------------------------------


def _sample_profile():
    records = [
        CommandRecord("prepare", "sumtable", 0.4, (0.2, 0.3)),
        CommandRecord("deriv", "derivative", 0.5, (0.4, 0.1)),
        CommandRecord("set_bl_edges", "control", 0.1, (0.0, 0.0)),
        CommandRecord("lnl", "evaluate", 0.3, (0.25, 0.25)),
    ]
    return RunProfile(backend="processes", n_workers=2, records=records)


class TestChromeExport:
    def test_tracer_export_schema(self, tmp_path):
        tracer = Tracer()
        with tracer.span("opt_round", cat="optimizer", round=1):
            pass
        tracer.add_span("deriv", "derivative", 1, 0.0, 0.01)
        tracer.instant("converged", lane=0, partition=2)
        events = tracer_to_chrome(tracer)
        validate_chrome_trace(events)
        path = write_chrome_trace(tmp_path / "t.json", events)
        back = json.loads(path.read_text())
        assert back["displayTimeUnit"] == "ms"
        validated = validate_chrome_trace(back)
        assert validated == back["traceEvents"]
        phases = {ev["ph"] for ev in validated}
        assert {"M", "X", "i"} <= phases

    def test_profile_export_lanes_and_reconstruction(self):
        profile = _sample_profile()
        events = validate_chrome_trace(profile_to_chrome(profile))
        lanes = {ev["tid"] for ev in events if ev["ph"] == "X"}
        assert lanes == {MASTER_LANE, 1, 2}
        master = [ev for ev in events
                  if ev["ph"] == "X" and ev["tid"] == MASTER_LANE]
        # back-to-back reconstruction: each command starts where the
        # previous one's wall ended
        cursor = 0.0
        for ev, rec in zip(master, profile.records):
            assert ev["ts"] == pytest.approx(cursor * 1e6)
            assert ev["dur"] == pytest.approx(rec.wall * 1e6)
            cursor += rec.wall
        # worker busy spans never outlive their command
        for ev in events:
            if ev["ph"] == "X" and ev["tid"] != MASTER_LANE:
                assert ev["dur"] <= max(m["dur"] for m in master) + 1e-9

    def test_lane_metadata_names(self):
        events = profile_to_chrome(_sample_profile())
        names = {
            ev["tid"]: ev["args"]["name"]
            for ev in events if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert names[MASTER_LANE] == "master"
        assert names[1] == "worker 0" and names[2] == "worker 1"

    def test_simulation_export(self, small_setup):
        from repro.core import TraceRecorder, optimize_branch
        from repro.simmachine import NEHALEM, simulate_trace

        data, tree, lengths, models, alphas = small_setup
        rec = TraceRecorder()
        eng = PartitionedEngine(data, tree.copy(), models=models,
                                alphas=alphas, initial_lengths=lengths,
                                recorder=rec)
        optimize_branch(eng, 0, strategy="new")
        trace = rec.finalize(eng.pattern_counts(), eng.states())
        result = simulate_trace(trace, NEHALEM, 2)
        events = validate_chrome_trace(simulation_to_chrome(result))
        lanes = {ev["tid"] for ev in events if ev["ph"] == "X"}
        assert lanes == {MASTER_LANE, 1, 2}

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace([{"ph": "X", "name": "a", "ts": 0.0}])
        with pytest.raises(ValueError):
            validate_chrome_trace(
                [{"ph": "X", "name": "a", "ts": 0.0, "dur": -1.0}]
            )


class TestAsciiTimeline:
    def test_profile_rendering(self):
        art = profile_ascii_timeline(_sample_profile(), width=40)
        lines = art.splitlines()
        assert lines[0].lstrip().startswith("master")
        assert "worker 0" in art and "worker 1" in art
        # kind letters appear on the master row
        assert any(ch in lines[0] for ch in "SDEc")

    def test_tracer_rendering(self):
        tracer = Tracer()
        tracer.add_span("deriv", "derivative", 0, 0.0, 1.0)
        tracer.add_span("deriv", "derivative", 1, 0.0, 0.6)
        art = ascii_timeline(tracer, width=20)
        assert "master" in art and "worker 0" in art
        assert "D" in art.splitlines()[0]

    def test_empty_trace(self):
        assert ascii_timeline(Tracer()) == "(no spans recorded)"
