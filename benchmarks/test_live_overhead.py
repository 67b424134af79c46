"""LIVE — Overhead gate for the live telemetry plane.

The live plane's contract is "observability you can leave on": every
broadcast pays the live sink on the master (the exchange record handed
to :meth:`~repro.obs.live.LiveTelemetry.on_exchange`, one flight event)
plus one seqlock-guarded stats-row update per worker — all O(1) appends
and a handful of raw memoryview stores.  Two instruments gate that
contract:

*Instrument cost vs broadcast cost* (the hard <2% gate) — the exact
per-broadcast instrument cost is measured in isolation (the building of
the exchange record plus the live sink; the writer's begin/done/wait
cycle, counted once per worker) and compared against the measured
per-broadcast wall time of a compute-bound likelihood workload with the
plane OFF.  Both quantities are stable on a shared host, so this is the
assertion that survives CI.

*End-to-end paired runs* (reported, sanity-bounded) — the same workload
with the plane enabled and disabled, interleaved round-robin.  On an
oversubscribed host the per-team scheduling variance (±30% between team
instances) swamps a single-digit-percent signal, so the end-to-end
ratio is asserted only against a loose regression bound that would
still catch accidental O(patterns) work sneaking onto the broadcast
path.

Teardown is exact either way: the disabled arm must create ZERO extra
shared-memory segments and ``live_segments()`` must return to its
pre-benchmark value afterwards — the stats plane never outlives its
team.

Committed output: ``results/BENCH_live_overhead.txt`` (quoted by
docs/OBSERVABILITY.md and summarized by the CI perf-smoke job).
"""
import statistics
import time

import numpy as np
import pytest

from conftest import write_result
from repro.parallel import ParallelPLK, live_segments
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

WORKERS = 2
N_PARTS = 4
PART_LEN = 2500  # 10k sites: per-broadcast kernel work in the ms range
ROUNDS = 9
CALLS_PER_ROUND = 10
INSTRUMENT_BUDGET = 0.02  # the documented <2% gate (deterministic)
END_TO_END_BOUND = 0.15   # loose sanity bound for the noisy paired runs


def build():
    sites = N_PARTS * PART_LEN
    rng = np.random.default_rng(23)
    tree, lengths = random_topology_with_lengths(8, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(0), 1.0, sites, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(sites, PART_LEN))
    models = [SubstitutionModel.random_gtr(p) for p in range(N_PARTS)]
    alphas = [1.0] * N_PARTS
    return data, tree, lengths, models, alphas


def _round_seconds(team):
    t0 = time.perf_counter()
    for _ in range(CALLS_PER_ROUND):
        team.loglikelihood(0)
    return time.perf_counter() - t0


def instrument_cost_seconds():
    """Measured per-broadcast instrument cost: the master's exchange
    record and live sink plus every worker's begin/done/wait stats
    cycle."""
    from repro.core.trace import describe_command
    from repro.obs.live import LiveTelemetry
    from repro.parallel.shm import WorkerStatsPlane, WorkerStatsWriter
    from repro.perf import CommandRecord

    n = 20_000
    live = LiveTelemetry()
    cmd, busy = ("lnl", 0), [1e-3] * WORKERS
    t0 = time.perf_counter()
    for _ in range(n):
        start = time.perf_counter()
        wall = time.perf_counter() - start
        op, kind, n_cmds = describe_command(cmd)
        live.on_exchange(CommandRecord(op, kind, wall, tuple(busy), n_cmds), start)
    live_sink = (time.perf_counter() - t0) / n

    plane = WorkerStatsPlane(1)
    writer = WorkerStatsWriter(plane.row(0), 0)
    t0 = time.perf_counter()
    for _ in range(n):
        writer.begin("lnl")
        writer.done(1e-3, 10)
        writer.wait(1e-4)
    writer_cycle = (time.perf_counter() - t0) / n
    plane.close()
    return live_sink, writer_cycle


@pytest.mark.timeout(600)
def test_live_plane_overhead_under_budget(results_dir):
    from repro.obs.live import LiveTelemetry

    data, tree, lengths, models, alphas = build()
    before = live_segments()

    def team(live):
        return ParallelPLK(
            data, tree, models, alphas, WORKERS,
            initial_lengths=lengths, live=live,
        )

    live = LiveTelemetry()
    with team(None) as off, team(live) as on:
        # exactly one extra segment for the enabled arm, zero for the
        # disabled one
        assert off.live is None
        assert off._stats_plane is None
        assert len(live_segments()) == len(before) + 1
        for arm in (off, on):  # warm caches and code paths
            _round_seconds(arm)
        off_rounds, on_rounds = [], []
        for _ in range(ROUNDS):  # interleaved: drift hits both arms
            off_rounds.append(_round_seconds(off))
            on_rounds.append(_round_seconds(on))
    # teardown is exact: no stats plane (or anything else) left behind
    assert live_segments() == before

    live_sink, writer_cycle = instrument_cost_seconds()
    instrument = live_sink + WORKERS * writer_cycle
    broadcast = min(off_rounds) / CALLS_PER_ROUND
    instrument_ratio = instrument / broadcast

    off_best = min(off_rounds)
    on_best = min(on_rounds)
    end_to_end = on_best / off_best - 1.0
    n_events = len(live.recorder)
    samples = live.sample()  # final rows survive close()
    lines = [
        "BENCH live overhead: compute-bound lnl broadcasts, "
        f"{WORKERS} worker processes, {N_PARTS}x{PART_LEN} sites",
        f"  per-broadcast compute (live off): {broadcast * 1e6:8.1f} us",
        f"  instrument cost: {instrument * 1e6:6.2f} us "
        f"(live sink {live_sink * 1e6:.2f} + "
        f"{WORKERS} x writer cycle {writer_cycle * 1e6:.2f})",
        f"  instrument overhead: {instrument_ratio * 100:.3f}%  "
        f"(budget {INSTRUMENT_BUDGET:.0%})",
        f"  end-to-end paired rounds ({ROUNDS} x {CALLS_PER_ROUND} calls): "
        f"off best {off_best * 1e3:.2f} ms "
        f"(median {statistics.median(off_rounds) * 1e3:.2f}), "
        f"on best {on_best * 1e3:.2f} ms "
        f"(median {statistics.median(on_rounds) * 1e3:.2f}), "
        f"ratio {end_to_end * 100:+.2f}%",
        f"  flight events buffered: {n_events}, "
        f"worker commands: {[s.commands for s in samples]}",
    ]
    write_result(results_dir, "BENCH_live_overhead", "\n".join(lines))
    # every broadcast of the enabled arm was accounted by the workers
    assert all(s.commands >= ROUNDS * CALLS_PER_ROUND for s in samples)
    assert n_events > 0
    assert instrument_ratio < INSTRUMENT_BUDGET, (
        f"live instruments cost {instrument_ratio:.2%} of a compute-bound "
        f"broadcast (> {INSTRUMENT_BUDGET:.0%} budget)"
    )
    assert end_to_end < END_TO_END_BOUND, (
        f"end-to-end live overhead {end_to_end:.2%} exceeds the "
        f"{END_TO_END_BOUND:.0%} regression bound"
    )
