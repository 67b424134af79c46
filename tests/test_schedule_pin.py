"""The schedule the machine simulator sees, pinned region by region.

A small mixed dataset (two DNA partitions of unequal width and one AA
partition) runs ``optimize_model`` plus one ``spr_round`` under oldPAR
and newPAR with a :class:`~repro.core.trace.TraceRecorder`.  Every
region's label and its per-(partition, op) pattern-op totals are
compared with literals, so any change to how the engine groups or counts
kernel work — a refactor of the likelihood layer included — shows up
here.

Each literal line is one run of identical consecutive regions:
``<repeat> <label> <partition><op initial><pattern-ops> ...`` with op
initials ``n``ewview, ``e``valuate, ``s``umtable and ``d``erivative.
"""
import numpy as np
import pytest

from repro.core import PartitionedEngine, TraceRecorder, optimize_model
from repro.plk import (
    Alignment,
    PartitionedAlignment,
    SubstitutionModel,
    parse_partition_file,
)
from repro.search import spr_round
from repro.seqgen import random_topology_with_lengths, simulate_alignment


def _dataset():
    rng = np.random.default_rng(5)
    tree, lengths = random_topology_with_lengths(5, rng, mean_length=0.1)
    dna = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(3), 0.8, 60, rng)
    aa = simulate_alignment(tree, lengths, SubstitutionModel.synthetic_aa(4), 1.0, 12, rng)
    alignment = Alignment(tree.taxa, np.concatenate([dna.matrix, aa.matrix], axis=1))
    scheme = parse_partition_file("DNA, a = 1-45\nDNA, b = 46-60\nAA, c = 61-72")
    return tree, lengths, PartitionedAlignment(alignment, scheme)


def _schedule(strategy: str) -> list[str]:
    tree, lengths, data = _dataset()
    recorder = TraceRecorder()
    engine = PartitionedEngine(data, tree.copy(), initial_lengths=lengths,
                               recorder=recorder)
    optimize_model(engine, strategy, max_rounds=1)
    spr_round(engine, strategy, radius=2, max_candidates=3)
    lines: list[list] = []
    for region in recorder.trace.regions:
        totals: dict[tuple[int, str], int] = {}
        for item in region.items:
            key = (item.partition, item.op[0])
            totals[key] = totals.get(key, 0) + item.patterns * item.count
        text = region.label + " " + " ".join(
            f"{p}{op}{n}" for (p, op), n in sorted(totals.items())
        )
        if lines and lines[-1][1] == text:
            lines[-1][0] += 1
        else:
            lines.append([1, text])
    return [f"{count} {text}" for count, text in lines]


EXPECTED = {
    "old": """
1 loglikelihood 0e18 0n54 1e9 1n27 2e11 2n33
14 brent_rate_old 0e18 0n54
22 brent_rate_old 1e9 1n27
14 brent_rate_old 0e18 0n54
13 brent_rate_old 1e9 1n27
22 brent_rate_old 0e18 0n54
13 brent_rate_old 1e9 1n27
14 brent_rate_old 0e18 0n54
14 brent_rate_old 1e9 1n27
13 brent_rate_old 0e18 0n54
12 brent_rate_old 1e9 1n27
28 brent_alpha_old 0e18 0n54
27 brent_alpha_old 1e9 1n27
27 brent_alpha_old 2e11 2n33
1 prepare 0n54 0s18
3 nr_old 0d18
1 nr_old 0d36
1 prepare 1n27 1s9
6 nr_old 1d9
1 nr_old 1d18
1 prepare 2n33 2s11
16 nr_old 2d11
1 nr_old 2d22
1 prepare 0n18 0s18
5 nr_old 0d18
1 nr_old 0d36
1 prepare 1n9 1s9
18 nr_old 1d9
1 nr_old 1d18
1 prepare 2n11 2s11
5 nr_old 2d11
1 nr_old 2d22
1 prepare 0n18 0s18
5 nr_old 0d18
1 nr_old 0d36
1 prepare 1n9 1s9
5 nr_old 1d9
1 nr_old 1d18
1 prepare 2n11 2s11
5 nr_old 2d11
1 nr_old 2d22
1 prepare 0n36 0s18
5 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
5 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
5 nr_old 2d11
1 nr_old 2d22
1 prepare 0n18 0s18
5 nr_old 0d18
1 nr_old 0d36
1 prepare 1n9 1s9
6 nr_old 1d9
1 nr_old 1d18
1 prepare 2n11 2s11
5 nr_old 2d11
1 nr_old 2d22
1 prepare 0n36 0s18
3 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
14 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
6 nr_old 2d11
1 nr_old 2d22
1 prepare 0n18 0s18
9 nr_old 0d18
1 nr_old 0d36
1 prepare 1n9 1s9
9 nr_old 1d9
1 nr_old 1d18
1 prepare 2n11 2s11
8 nr_old 2d11
1 nr_old 2d22
1 loglikelihood 0e18 0n54 1e9 1n27 2e11 2n33
1 loglikelihood 0e18 1e9 2e11
1 prepare 0n36 0s18
3 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
1 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
2 nr_old 2d11
1 nr_old 2d22
1 prepare 0n18 0s18
10 nr_old 0d18
1 nr_old 0d36
1 prepare 1n9 1s9
1 nr_old 1d9
1 nr_old 1d18
1 prepare 2n11 2s11
1 nr_old 2d11
1 nr_old 2d22
1 prepare 0n36 0s18
3 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
2 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
2 nr_old 2d11
1 nr_old 2d22
1 loglikelihood 0e18 0n18 1e9 1n9 2e11 2n11
1 prepare 0n54 0s18
4 nr_old 0d18
1 nr_old 0d36
1 prepare 1n27 1s9
1 nr_old 1d9
1 nr_old 1d18
1 prepare 2n33 2s11
4 nr_old 2d11
1 nr_old 2d22
1 prepare 0n36 0s18
6 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
9 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
13 nr_old 2d11
1 nr_old 2d22
1 prepare 0n36 0s18
2 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
18 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
6 nr_old 2d11
1 nr_old 2d22
1 loglikelihood 0e18 0n36 1e9 1n18 2e11 2n22
1 prepare 0n54 0s18
4 nr_old 0d18
1 nr_old 0d36
1 prepare 1n27 1s9
1 nr_old 1d9
1 nr_old 1d18
1 prepare 2n33 2s11
4 nr_old 2d11
1 nr_old 2d22
1 prepare 0n36 0s18
10 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
1 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
1 nr_old 2d11
1 nr_old 2d22
1 prepare 0n36 0s18
2 nr_old 0d18
1 nr_old 0d36
1 prepare 1n18 1s9
1 nr_old 1d9
1 nr_old 1d18
1 prepare 2n22 2s11
6 nr_old 2d11
1 nr_old 2d22
1 loglikelihood 0e18 0n18 1e9 1n9 2e11 2n11
""",
    "new": """
1 loglikelihood 0e18 0n54 1e9 1n27 2e11 2n33
14 brent_rate_new 0e18 0n54 1e9 1n27
8 brent_rate_new 1e9 1n27
13 brent_rate_new 0e18 0n54 1e9 1n27
1 brent_rate_new 0e18 0n54
13 brent_rate_new 0e18 0n54 1e9 1n27
9 brent_rate_new 0e18 0n54
26 brent_rate_new 0e18 0n54 1e9 1n27
1 brent_rate_new 0e18 0n54
27 brent_alpha_new 0e18 0n54 1e9 1n27 2e11 2n33
1 brent_alpha_new 0e18 0n54
1 nr_new 0d18 0n54 0s18 1d9 1n27 1s9 2d11 2n33 2s11
2 nr_new 0d18 1d9 2d11
3 nr_new 1d9 2d11
10 nr_new 2d11
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n18 0s18 1d9 1n9 1s9 2d11 2n11 2s11
4 nr_new 0d18 1d9 2d11
13 nr_new 1d9
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n18 0s18 1d9 1n9 1s9 2d11 2n11 2s11
4 nr_new 0d18 1d9 2d11
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
4 nr_new 0d18 1d9 2d11
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n18 0s18 1d9 1n9 1s9 2d11 2n11 2s11
4 nr_new 0d18 1d9 2d11
1 nr_new 1d9
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
2 nr_new 0d18 1d9 2d11
3 nr_new 1d9 2d11
8 nr_new 1d9
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n18 0s18 1d9 1n9 1s9 2d11 2n11 2s11
7 nr_new 0d18 1d9 2d11
1 nr_new 0d18 1d9
1 nr_new 0d36 1d18 2d22
1 loglikelihood 0e18 0n54 1e9 1n27 2e11 2n33
1 loglikelihood 0e18 1e9 2e11
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
1 nr_new 0d18 2d11
1 nr_new 0d18
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n18 0s18 1d9 1n9 1s9 2d11 2n11 2s11
9 nr_new 0d18
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
1 nr_new 0d18 1d9 2d11
1 nr_new 0d18
1 nr_new 0d36 1d18 2d22
1 loglikelihood 0e18 0n18 1e9 1n9 2e11 2n11
1 nr_new 0d18 0n54 0s18 1d9 1n27 1s9 2d11 2n33 2s11
3 nr_new 0d18 2d11
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
5 nr_new 0d18 1d9 2d11
3 nr_new 1d9 2d11
4 nr_new 2d11
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
1 nr_new 0d18 1d9 2d11
4 nr_new 1d9 2d11
12 nr_new 1d9
1 nr_new 0d36 1d18 2d22
1 loglikelihood 0e18 0n36 1e9 1n18 2e11 2n22
1 nr_new 0d18 0n54 0s18 1d9 1n27 1s9 2d11 2n33 2s11
3 nr_new 0d18 2d11
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
9 nr_new 0d18
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
1 nr_new 0d18 2d11
4 nr_new 2d11
1 nr_new 0d36 1d18 2d22
1 loglikelihood 0e18 0n18 1e9 1n9 2e11 2n11
""",
}


@pytest.mark.parametrize("strategy", ["old", "new"])
def test_schedule_matches_pinned_literals(strategy):
    assert _schedule(strategy) == EXPECTED[strategy].strip().splitlines()
