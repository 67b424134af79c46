"""Fixed cost per likelihood-stack operation, and the dispatch-cost fit.

Run from the repository root::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/fixed_cost.py

Part 1 times the stack operations one ``modelopt_par`` worker runs, on the
same shape: 8 taxa, 16 DNA partitions of 30 patterns in one stack.  The
per-branch rows (prepare, derivative rounds, guard) run on a one-edge
workspace, ``prepare_edges([edge])``, as every per-branch schedule does:
a round over every partition, and a round with one active lane (the
oldPAR round, and a newPAR round with one partition left).  The
edge-stacked round is one ``"tree"`` Newton round over all 13 edges.
The rate column write is one Brent trial of the GTR-rate phase: one
exchangeability of every member written and decomposed again.
Each figure is the minimum over ``--repeats`` rounds of the mean over
``CALLS`` calls, in microseconds.  The rounds visit every operation (and
in part 2 every width) in turn, so a slow phase of a shared host hits
them all alike and the minimum filters it out.

Part 2 is the dispatch-cost fit of EXPERIMENTS.md STACK: a one-member
stack at widths 30 to 1,920, a full traversal (every newview plus the
evaluate) and one ``edge_derivatives`` call on a one-edge workspace,
fitted as ``fixed + per_pattern * width``.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.strategies import smoothing_edge_order
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.plk.likelihood import PartitionLikelihood
from repro.plk.stacking import PartitionStacks
from repro.seqgen import random_topology_with_lengths, simulate_alignment

N_TAXA = 8
N_PARTS = 16
WIDTH = 30
FIT_WIDTHS = (30, 60, 120, 240, 480, 960, 1920)
CALLS = 40


def _time(fns: dict, calls: int, repeats: int) -> dict[str, float]:
    """Minimum over ``repeats`` round-robin rounds of the mean seconds per
    call of each function in ``fns``."""
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[name] = min(best[name], (time.perf_counter() - t0) / calls)
    return best


def _data(n_parts: int, columns: int, seed: int):
    rng = np.random.default_rng(seed)
    tree, lengths = random_topology_with_lengths(N_TAXA, rng, mean_length=0.1)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(seed), 0.8, n_parts * columns, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(n_parts * columns, columns))
    models = [SubstitutionModel.random_gtr(100 + p) for p in range(n_parts)]
    return tree, lengths, data, models


def stack_ops(repeats: int) -> dict[str, float]:
    """Microseconds per operation on a 16-member stack."""
    tree, lengths, data, models = _data(N_PARTS, WIDTH, seed=5)
    stacks = PartitionStacks(list(data.data), tree, models, [1.0] * N_PARTS)
    stacks.set_branch_lengths(lengths)
    (stack,) = stacks.stacks
    edge = 2
    stacks.loglikelihoods(0)
    workspaces = stacks.prepare_edges([edge])
    z = np.full((1, N_PARTS), lengths[edge])
    z_new = z * 1.3
    one_lane = np.zeros((1, N_PARTS), dtype=bool)
    one_lane[0, 1] = True
    order = smoothing_edge_order(tree)
    edge_workspaces = stacks.prepare_edges(order)
    z_edges = np.repeat(lengths[order, np.newaxis], N_PARTS, axis=1)
    alphas = (np.linspace(0.3, 2.0, N_PARTS), np.linspace(0.4, 2.5, N_PARTS))
    flip = [0]
    # A second scheme for the setter, which would make the workspaces stale.
    other = PartitionStacks(list(data.data), tree, models, [1.0] * N_PARTS)

    def set_alphas():
        flip[0] ^= 1
        other.set_alphas(alphas[flip[0]])

    def rate_column():
        flip[0] ^= 1
        other.set_column("rate", 2, alphas[flip[0]])

    def prepare():
        stacks.prepare_edges([edge])

    def guard():
        stacks.edge_loglikelihoods(workspaces, z)
        stacks.edge_loglikelihoods(workspaces, z_new)

    def p_miss():
        flip[0] ^= 1
        stack.lengths[edge] = 0.1 + 0.01 * flip[0]
        stack._transition(edge, slice(None))

    def p_hit():
        stack._transition(edge, slice(None))

    def traversal():
        stack.invalidate_all()
        stack.loglikelihoods(0)

    def derivative_round():
        stacks.edge_derivatives(workspaces, z)

    def one_lane_round():
        stacks.edge_derivatives(workspaces, z, one_lane)

    def edge_round():
        stacks.edge_derivatives(edge_workspaces, z_edges)

    out = _time({
        "prepare (one edge)": prepare,
        "derivative round": derivative_round,
        "one-lane derivative round": one_lane_round,
        f"edge-stacked derivative round ({len(order)} edges)": edge_round,
        "guard (2 x edge_loglikelihoods)": guard,
        f"set_alphas ({N_PARTS} members)": set_alphas,
        f"rate column write ({N_PARTS} members)": rate_column,
        "P(t) miss": p_miss,
        "P(t) hit": p_hit,
    }, CALLS, repeats)
    out.update(_time(
        {"one traversal (invalidate + loglikelihoods)": traversal},
        CALLS // 4, repeats,
    ))
    return {k: v * 1e6 for k, v in out.items()}


def dispatch_fit(repeats: int) -> dict[str, tuple[float, float]]:
    """(fixed us, per-pattern ns) of a full traversal and a derivative call."""
    full, deriv, widths = {}, {}, []
    for width in FIT_WIDTHS:
        tree, lengths, data, models = _data(1, width, seed=11)
        stack = PartitionLikelihood(list(data.data), tree, models)
        stack.set_branch_lengths(lengths)
        widths.append(int(stack.width))

        def traversal(stack=stack):
            stack.invalidate_all()
            stack.loglikelihoods(0)

        def derivative(stack=stack, ws=stack.prepare_edges([1]), z=np.array([[lengths[1]]])):
            stack.edge_derivatives(ws, z)

        full[width], deriv[width] = traversal, derivative
    out = {}
    for name, fns, n in (("full traversal", full, CALLS // 8),
                         ("edge_derivatives", deriv, CALLS)):
        times = list(_time(fns, n, repeats).values())
        slope, fixed = np.polyfit(widths, times, 1)
        out[name] = (fixed * 1e6, slope * 1e9)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=40)
    args = parser.parse_args()
    print(f"stack ops ({N_TAXA} taxa, {N_PARTS} x {WIDTH} DNA patterns, one stack):")
    for name, us in stack_ops(args.repeats).items():
        print(f"  {name:45s} {us:9.1f} us")
    print(f"dispatch-cost fit (one-member stack, widths {FIT_WIDTHS[0]}-{FIT_WIDTHS[-1]}):")
    for name, (fixed, per) in dispatch_fit(args.repeats).items():
        print(f"  {name:20s} fixed {fixed:7.1f} us  per pattern {per:6.1f} ns"
              f"  fixed = {fixed * 1e3 / per:6.0f} patterns")


if __name__ == "__main__":
    main()
