"""The ``"tree"`` smoothing schedule the machine simulator sees, pinned.

One ``optimize_branch_lengths(engine, "tree", passes=1)`` on the dataset
of ``test_schedule_pin`` (two DNA partitions of unequal width and one AA
partition), recorded with a :class:`~repro.core.trace.TraceRecorder`.
The literal has the same format as ``test_schedule_pin.EXPECTED``: one
line per run of identical regions, ``<repeat> <label> <partition><op
initial><pattern-ops> ...``.  Each sweep opens with one region holding
the guard's traversal and evaluation, every edge's sumtable and the
first derivative round; every further Newton round is one region over
all still-active ``(edge, partition)`` lanes; one region closes the pass.
A second literal pins one lazy SPR round, ``spr_round(strategy="tree")``.
"""
from repro.core import PartitionedEngine, TraceRecorder, optimize_branch_lengths
from repro.search import spr_round

from .test_schedule_pin import _dataset

EXPECTED = """
1 nr_tree 0d126 0e18 0n162 0s126 1d63 1e9 1n81 1s63 2d77 2e11 2n99 2s77
2 nr_tree 0d126 1d63 2d77
1 nr_tree 0d108 1d63 2d77
1 nr_tree 0d90 1d63 2d77
1 nr_tree 0d36 1d45 2d33
2 nr_tree 0d18 1d27 2d22
1 nr_tree 0d18 1d27 2d11
5 nr_tree 1d18 2d11
2 nr_tree 1d9 2d11
2 nr_tree 1d9
1 nr_tree 0d126 0e18 0n162 0s126 1d63 1e9 1n81 1s63 2d77 2e11 2n99 2s77
2 nr_tree 0d108 1d27 2d55
1 nr_tree 0d36 1d18 2d22
1 nr_tree 0e18 0n54 1e9 1n27 2e11 2n33
"""


#: ``spr_round(engine, "tree", radius=2, max_candidates=3)`` on the same
#: engine: the first prune edge has three targets.
EXPECTED_LAZY_SPR = """
1 loglikelihood 0e18 0n54 1e9 1n27 2e11 2n33
1 spr_lazy 0e54 0n108 1e27 1n54 2e33 2n66
1 nr_new 0d18 0n54 0s18 1d9 1n27 1s9 2d11 2n33 2s11
4 nr_new 0d18 1d9 2d11
1 nr_new 0d18 1d9
12 nr_new 1d9
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
3 nr_new 0d18 1d9 2d11
2 nr_new 1d9 2d11
1 nr_new 1d9
1 nr_new 0d36 1d18 2d22
1 nr_new 0d18 0n36 0s18 1d9 1n18 1s9 2d11 2n22 2s11
1 nr_new 0d18 1d9 2d11
2 nr_new 1d9 2d11
9 nr_new 1d9
1 nr_new 0d36 1d18 2d22
1 loglikelihood 0e18 0n36 1e9 1n18 2e11 2n22
"""

def _schedule(run=lambda engine: optimize_branch_lengths(engine, "tree", passes=1)):
    tree, lengths, data = _dataset()
    recorder = TraceRecorder()
    engine = PartitionedEngine(data, tree.copy(), initial_lengths=lengths,
                               recorder=recorder)
    run(engine)
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


def test_tree_schedule_matches_pinned_literal():
    assert _schedule() == EXPECTED.strip().splitlines()


def test_lazy_spr_schedule_matches_pinned_literal():
    """``spr_round(strategy="tree")``: one ``spr_lazy`` region scores
    every target of the prune edge (outside CLVs, then one insertion
    vector and one evaluation per target); the best lazy candidate gets
    its lazy lengths written (a region with no kernel op, so not
    recorded), its three branches smoothed per branch (``nr_new``) and
    one evaluation, and is kept: the cap of three candidates is then
    reached."""
    assert _schedule(
        lambda engine: spr_round(engine, "tree", radius=2, max_candidates=3)
    ) == EXPECTED_LAZY_SPR.strip().splitlines()
