"""REAL1 — Real wall-clock master/worker execution on this host.

Everything else in the benchmark suite replays schedules on the simulated
testbed; this file runs the actual process-based parallel PLK and measures
oldPAR vs newPAR for branch-length optimization on a partitioned dataset.
The absolute numbers depend on this machine; the *structure* — oldPAR
issues many more commands (each a pipe round-trip, the IPC analogue of a
barrier) and is slower end-to-end — is the paper's phenomenon made
physical."""
import json

import numpy as np
import pytest

from conftest import write_result
from repro.parallel import ParallelPLK
from repro.perf import Profiler, compare_strategies, summarize_profiles
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

WORKERS = 4
N_PARTITIONS = 10


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(99)
    tree, lengths = random_topology_with_lengths(12, rng)
    model = SubstitutionModel.random_gtr(0)
    aln = simulate_alignment(tree, lengths, model, 1.0, 2_000, rng)
    data = PartitionedAlignment(aln, uniform_scheme(2_000, 200))
    models = [SubstitutionModel.random_gtr(p) for p in range(N_PARTITIONS)]
    alphas = [1.0] * N_PARTITIONS
    return data, tree, lengths, models, alphas


@pytest.mark.parametrize("strategy", ["old", "new"])
def test_real1_branch_opt_wallclock(benchmark, setup, strategy, results_dir):
    data, tree, lengths, models, alphas = setup
    edges = list(range(6))

    with ParallelPLK(
        data, tree, models, alphas, WORKERS,
        initial_lengths=lengths,
    ) as team:
        start_cmds = team.commands_issued

        def run():
            team.optimize_branches(
                edges, strategy, lengths0=np.tile(lengths[edges, None], N_PARTITIONS)
            )

        benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
        commands = (team.commands_issued - start_cmds) / 4  # per round

    write_result(
        results_dir,
        f"real1_processes_{strategy}",
        f"REAL1 ({strategy}): {WORKERS} worker processes, "
        f"{N_PARTITIONS} partitions, {len(edges)} branches\n"
        f"mean wall time: {benchmark.stats['mean']*1e3:.1f} ms, "
        f"~{commands:.0f} commands/round",
    )


def test_real1_new_issues_fewer_commands(setup, results_dir):
    data, tree, lengths, models, alphas = setup
    counts = {}
    times = {}
    import time

    for strategy in ("old", "new"):
        with ParallelPLK(
            data, tree, models, alphas, WORKERS,
            initial_lengths=lengths,
        ) as team:
            t0 = time.perf_counter()
            team.optimize_branches(list(range(8)), strategy)
            times[strategy] = time.perf_counter() - t0
            counts[strategy] = team.commands_issued

    write_result(
        results_dir,
        "real1_summary",
        "REAL1 summary: old commands="
        f"{counts['old']} time={times['old']*1e3:.0f}ms | "
        f"new commands={counts['new']} time={times['new']*1e3:.0f}ms | "
        f"command ratio={counts['old']/counts['new']:.1f}x",
    )
    assert counts["old"] > 2 * counts["new"]
    # wall-clock: newPAR should win on this host too (IPC dominates)
    assert times["new"] < times["old"]


def test_real1_measured_profile(setup, results_dir):
    """The paper's busy/idle decomposition measured on real processes:
    per-worker busy and barrier-wait totals for both strategies, written
    as a RunProfile JSON so the bench trajectory accumulates real
    numbers.  newPAR must show strictly higher parallel efficiency."""
    data, tree, lengths, models, alphas = setup
    profiles = {}
    for strategy in ("old", "new"):
        profiler = Profiler(meta={
            "benchmark": "real1", "strategy": strategy,
            "workers": WORKERS, "partitions": N_PARTITIONS,
        })
        with ParallelPLK(
            data, tree, models, alphas, WORKERS,
            initial_lengths=lengths, profiler=profiler,
        ) as team:
            team.optimize_branches(list(range(6)), strategy)
        profiles[strategy] = profiler.profile()

    # Raw per-record dump: local inspection / `repro timeline --profile`
    # only (gitignored).  The compact summary is what gets committed.
    (results_dir / "real1_profile.json").write_text(json.dumps(
        {s: p.to_dict() for s, p in profiles.items()}, indent=2
    ) + "\n")
    (results_dir / "real1_profile_summary.json").write_text(json.dumps(
        summarize_profiles(profiles), indent=2, sort_keys=True
    ) + "\n")
    comparison = compare_strategies(profiles["old"], profiles["new"])
    write_result(
        results_dir,
        "real1_profile",
        "REAL1 measured profile (processes backend):\n"
        f"oldPAR\n{profiles['old'].summary()}\n"
        f"newPAR\n{profiles['new'].summary()}\n"
        f"{comparison.summary()}",
    )
    assert profiles["new"].efficiency > profiles["old"].efficiency
    # every region decomposes exactly: busy + idle + sync == wall
    for profile in profiles.values():
        for rec in profile.records:
            for w in range(WORKERS):
                assert rec.busy[w] + rec.idle[w] + rec.sync == pytest.approx(
                    rec.wall, abs=1e-9
                )
