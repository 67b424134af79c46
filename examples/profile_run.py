"""Measure the paper's busy/idle decomposition on real parallel workers.

The simulator (`examples/load_balance_study.py`) *predicts* per-thread
busy, idle and synchronization time from a captured schedule; this script
*measures* the same decomposition with `repro.perf` on the actual
worker processes, then puts prediction and measurement side by side
with the shared `decomposition()` vocabulary.

What to look for in the output:

* oldPAR issues ~5x more parallel regions (one tiny command per optimizer
  iteration per partition), so its synchronization share dwarfs its busy
  share — the paper's Figure 3/4 pathology, on your machine;
* newPAR's parallel efficiency is strictly higher at every worker count;
* the measured efficiency ordering matches the simulator's prediction,
  even though absolute times differ (Python + IPC vs modelled Pthreads).

Run:  python examples/profile_run.py
"""
import numpy as np

from repro.core import PartitionedEngine, TraceRecorder, optimize_branch
from repro.parallel import ParallelPLK
from repro.perf import Profiler, compare_decompositions, compare_strategies
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment
from repro.simmachine import NEHALEM, simulate_trace

WORKERS = 4
PARTITIONS = 10
EDGES = list(range(5))


def main() -> None:
    rng = np.random.default_rng(11)
    tree, lengths = random_topology_with_lengths(12, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(0), 1.0, 2_000, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(2_000, 200))
    models = [SubstitutionModel.random_gtr(p) for p in range(PARTITIONS)]
    alphas = [1.0] * PARTITIONS

    print(f"{PARTITIONS} partitions, {WORKERS} worker processes, "
          f"{len(EDGES)} branches per strategy\n")

    # -- measure both strategies on the real worker team -----------------
    profiles = {}
    for strategy in ("old", "new"):
        profiler = Profiler(meta={"strategy": strategy})
        with ParallelPLK(
            data, tree, models, alphas, WORKERS,
            initial_lengths=lengths, profiler=profiler,
        ) as team:
            team.optimize_branches(EDGES, strategy)
        profiles[strategy] = profiler.profile()
        print(f"{strategy}PAR measured\n{profiles[strategy].summary()}\n")

    print(compare_strategies(profiles["old"], profiles["new"]).summary())

    # -- compare newPAR's measurement against a simulator prediction ------
    recorder = TraceRecorder()
    engine = PartitionedEngine(
        data, tree.copy(), models=models, alphas=alphas,
        initial_lengths=lengths, recorder=recorder,
    )
    for edge in EDGES:
        optimize_branch(engine, edge, strategy="new")
    trace = recorder.finalize(engine.pattern_counts(), engine.states())
    predicted = simulate_trace(trace, NEHALEM, WORKERS)

    print("\nnewPAR: measured (this host) vs predicted (simulated Nehalem)")
    print(compare_decompositions(
        profiles["new"], predicted, labels=("measured", "predicted")
    ).summary())


if __name__ == "__main__":
    main()
