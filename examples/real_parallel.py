"""Real parallel execution on this machine (process-based master/worker).

Runs the PLK across actual worker processes — each owning a cyclic slice
of every partition's patterns, exactly like the Pthreads workers in the
paper — and measures wall-clock oldPAR vs newPAR for per-partition
branch-length optimization.  The pipe round-trip per command plays the
role of the barrier; newPAR needs far fewer of them.

Run:  python examples/real_parallel.py
"""
import time

import numpy as np

from repro.parallel import ParallelPLK
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

WORKERS = 4
PARTITIONS = 12


def main() -> None:
    rng = np.random.default_rng(5)
    tree, lengths = random_topology_with_lengths(12, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(0), 1.0, 2_400, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(2_400, 200))
    models = [SubstitutionModel.random_gtr(p) for p in range(PARTITIONS)]
    alphas = [1.0] * PARTITIONS
    edges = list(range(10))

    print(f"{data.n_partitions} partitions x 200 patterns, {WORKERS} worker "
          f"processes, optimizing {len(edges)} branches per strategy\n")

    results = {}
    for strategy in ("old", "new"):
        with ParallelPLK(
            data, tree, models, alphas, WORKERS,
            initial_lengths=lengths,
        ) as team:
            lnl0 = team.loglikelihood()
            t0 = time.perf_counter()
            team.optimize_branches(edges, strategy)
            elapsed = time.perf_counter() - t0
            lnl1 = team.loglikelihood()
            results[strategy] = (elapsed, team.commands_issued, lnl0, lnl1)
        print(f"{strategy}PAR: {elapsed*1e3:7.1f} ms, "
              f"{results[strategy][1]:5d} master commands, "
              f"lnL {lnl0:,.2f} -> {lnl1:,.2f}")

    speedup = results["old"][0] / results["new"][0]
    cmd_ratio = results["old"][1] / results["new"][1]
    print(f"\nnewPAR wall-clock advantage: {speedup:.2f}x "
          f"(command-count ratio {cmd_ratio:.1f}x)")
    assert abs(results["old"][3] - results["new"][3]) < 1e-3, \
        "strategies must find the same optimum"
    print("both strategies reached the same optimum (as the paper requires)")


if __name__ == "__main__":
    main()
