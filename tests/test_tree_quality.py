"""The tree-wide smoothing pass against the per-branch walk.

On small simulated datasets started from the generating branch lengths
(the modelopt situation), one ``"tree"`` pass (two Jacobi sweeps) ends
at or above one per-branch ``"new"`` pass on most seeds and never far
below it, and both, iterated until a pass gains less than 1e-6, reach
the same optimum within 1e-4 lnL.

At this toy shape (7 taxa, 40 columns per partition) the tree pass is
not above on every seed: 36 of seeds 0-39 and 9 of the 10 below, the
worst loss 0.78 lnL (EXPERIMENTS.md TREE).  At the perfbench shapes it
was above on all 30 seeds measured.
"""
import numpy as np
import pytest

from repro.core import PartitionedEngine, optimize_branch_lengths
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment

SEEDS = range(10)


def _engine(seed: int) -> PartitionedEngine:
    rng = np.random.default_rng([seed, 28])
    tree, lengths = random_topology_with_lengths(7, rng)
    aln = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(seed), 1.0, 160, rng)
    data = PartitionedAlignment(aln, uniform_scheme(160, 40))
    models = [SubstitutionModel.random_gtr(10 * seed + p) for p in range(4)]
    return PartitionedEngine(data, tree, models=models, initial_lengths=lengths)


def _smooth(seed: int, strategy: str, converge: bool) -> float:
    engine = _engine(seed)
    lnl = engine.loglikelihood()
    for _ in range(400 if converge else 1):
        optimize_branch_lengths(engine, strategy, passes=1)
        gain, lnl = engine.loglikelihood() - lnl, engine.loglikelihood()
        if gain < 1e-6:
            break
    return lnl


def test_one_tree_pass_against_one_new_pass():
    gains = [_smooth(seed, "tree", False) - _smooth(seed, "new", False) for seed in SEEDS]
    assert sum(g >= 0.0 for g in gains) >= 8
    assert min(gains) > -1.0


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_converged_passes_agree(seed):
    assert _smooth(seed, "tree", True) == pytest.approx(_smooth(seed, "new", True), abs=1e-4)
