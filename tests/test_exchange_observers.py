"""The one exchange path under every observer set.

One 2-worker team runs a tree smoothing pass and an alpha optimization
with no observer, each observer alone, and all four at once.  Observing
must not change a single number or exchange, and every attached observer
must see each exchange exactly once, from the same record.
"""
import json

import numpy as np
import pytest

from repro.core.trace import REGION_KINDS
from repro.obs import MASTER_LANE, MetricsRegistry, Tracer
from repro.obs.live import LiveTelemetry
from repro.parallel import ParallelPLK, WorkerError, live_segments
from repro.perf import Profiler
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

WORKERS = 2
OBSERVER_SETS = {
    "none": (),
    "profiler": ("profiler",),
    "tracer": ("tracer",),
    "metrics": ("metrics",),
    "live": ("live",),
    "all four": ("profiler", "tracer", "metrics", "live"),
}
FACTORIES = {
    "profiler": Profiler,
    "tracer": Tracer,
    "metrics": MetricsRegistry,
    "live": LiveTelemetry,
}


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(61)
    tree, lengths = random_topology_with_lengths(6, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(1), 1.0, 360, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(360, 120))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    return data, tree, lengths, models, [0.8, 1.0, 1.3]


def make_team(setup, **observers):
    data, tree, lengths, models, alphas = setup
    return ParallelPLK(data, tree, models, alphas, WORKERS,
                       initial_lengths=lengths, **observers)


@pytest.fixture(scope="module")
def runs(setup):
    """Each observer set's run: results, exchange count and observers."""
    _, tree, *_ = setup
    edges = list(range(tree.n_edges))
    out = {}
    for name, kinds in OBSERVER_SETS.items():
        observers = {kind: FACTORIES[kind]() for kind in kinds}
        before = live_segments()
        with make_team(setup, **observers) as team:
            lengths = team.optimize_branches(edges, "tree")
            alphas = team.optimize_alpha()
            lnl = team.loglikelihood(0)
            issued = team.commands_issued
        out[name] = {
            "lnl": lnl, "lengths": lengths, "alphas": alphas,
            "issued": issued, "observers": observers,
            "segments": (before, live_segments()),
        }
    return out


@pytest.mark.timeout(120)
class TestObserverMatrix:
    def test_results_and_exchanges_identical(self, runs):
        ref = runs["none"]
        assert ref["issued"] > 0
        for name, run in runs.items():
            assert run["issued"] == ref["issued"], name
            assert run["lnl"] == ref["lnl"], name
            assert np.array_equal(run["lengths"], ref["lengths"]), name
            assert np.array_equal(run["alphas"], ref["alphas"]), name

    def test_every_observer_sees_every_exchange_once(self, runs):
        for name, run in runs.items():
            issued, observers = run["issued"], run["observers"]
            if "profiler" in observers:
                assert len(observers["profiler"].records) == issued, name
            if "tracer" in observers:
                exchanges = [s for s in observers["tracer"].spans
                             if s.lane == MASTER_LANE and s.cat in REGION_KINDS]
                assert len(exchanges) == issued, name
            if "metrics" in observers:
                snap = observers["metrics"].snapshot()
                assert snap["broadcasts.total"]["value"] == issued, name
                assert snap["region_wall_seconds"]["count"] == issued, name
                assert snap["barrier_wait_seconds"]["count"] == issued * WORKERS, name
            if "live" in observers:
                events = observers["live"].recorder.events()
                n = sum(e["event"] == "exchange" for e in events)
                assert n == issued, name

    def test_tracer_alone_has_a_lane_per_worker(self, runs):
        tracer = runs["tracer"]["observers"]["tracer"]
        assert tracer.lanes() == list(range(WORKERS + 1))

    def test_busy_plus_idle_is_wall(self, runs):
        for name in ("profiler", "all four"):
            for rec in runs[name]["observers"]["profiler"].records:
                assert len(rec.busy) == WORKERS
                for w in range(WORKERS):
                    wait = rec.idle[w] + rec.sync
                    assert rec.busy[w] + wait == pytest.approx(rec.wall, abs=1e-12)

    def test_no_segment_outlives_close(self, runs):
        for name, run in runs.items():
            before, after = run["segments"]
            assert after == before, name


@pytest.mark.timeout(60)
def test_worker_death_postmortem_names_the_op(setup, tmp_path):
    live = LiveTelemetry(postmortem_dir=str(tmp_path))
    with make_team(setup, live=live) as team:
        team.loglikelihood(0)
        with pytest.raises(WorkerError):
            team.run("chaos", [("die", 1)])
    with open(live.last_postmortem) as fh:
        events = [json.loads(line) for line in fh]
    deaths = [e for e in events if e["event"] == "worker_death"]
    assert deaths and deaths[-1]["rank"] == 1
    assert deaths[-1]["op"] == "die"


@pytest.mark.timeout(120)
def test_shared_registry_gauges_span_every_team(setup):
    """Two teams of different widths publish into one registry (as the
    service's warm teams do): the pipe-byte gauge counts both teams'
    bytes, and the imbalance gauges are over the rank-wise summed busy
    time of both, the narrower team's missing rank counting as 0."""
    data, tree, lengths, models, alphas = setup
    registry = MetricsRegistry()
    moved, busy = 0, np.zeros(2)
    for n_workers in (2, 1):
        profiler = Profiler()
        with ParallelPLK(data, tree, models, alphas, n_workers,
                         initial_lengths=lengths, profiler=profiler,
                         metrics=registry) as team:
            team.optimize_branches([0, 1], "tree")
            team.loglikelihood(0)
            stats = team.comms_stats()
        moved += stats["pipe_tx_bytes"] + stats["pipe_rx_bytes"]
        busy[:n_workers] += profiler.profile().busy_seconds
    snap = registry.snapshot()
    assert snap["comms.pipe_bytes"]["value"] == moved
    assert snap["imbalance"]["value"] == pytest.approx(busy.max() / busy.mean())
