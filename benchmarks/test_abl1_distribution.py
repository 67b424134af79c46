"""ABL1 — Ablation: the cyclic and block pattern-distribution policies.

The paper (Section IV): "We use a cyclic distribution of the m' distinct
alignment patterns to threads, mainly to allow for better load-balance in
phylogenomic datasets that can contain DNA as well as AA data."

The test replays the paper's schedules under the block (contiguous-chunk)
baseline: each partition then concentrates on few threads, so even
newPAR's batched regions lose balance — cyclic is what makes newPAR work.
EXPERIMENTS.md (ABL1b) records why no cost-aware policy is compared here.
"""
import pytest

from conftest import write_result
from repro.simmachine import X4600, simulate_trace

DATASET = "d50_50000_p1000"


@pytest.fixture(scope="module")
def traces(get_trace):
    return {
        s: get_trace(DATASET, "search", s, max_candidates=300)
        for s in ("old", "new")
    }


def test_abl1_cyclic_vs_block(benchmark, traces, results_dir):
    def table():
        rows = []
        for strategy in ("old", "new"):
            for policy in ("cyclic", "block"):
                r = simulate_trace(traces[strategy], X4600, 16, policy)
                rows.append((strategy, policy, r.total_seconds, r.efficiency))
        return rows

    rows = benchmark.pedantic(table, rounds=1, iterations=1)
    lines = [
        "ABL1: pattern distribution policy, d50_50000 p1000, x4600 @ 16",
        f"{'strategy':<9} {'policy':<8} {'time':>9} {'efficiency':>11}",
        "-" * 40,
    ]
    for strat, policy, t, eff in rows:
        lines.append(f"{strat:<9} {policy:<8} {t:9.1f} {eff:11.1%}")
    write_result(results_dir, "abl1_distribution", "\n".join(lines))

    by_key = {(r[0], r[1]): r[2] for r in rows}
    # block is strictly worse for BOTH strategies ...
    assert by_key[("new", "block")] > by_key[("new", "cyclic")]
    assert by_key[("old", "block")] > by_key[("old", "cyclic")]
    # ... and hits per-partition regions catastrophically: under block,
    # a p1000 partition lands on ~1/3 of the 16 threads.
    assert by_key[("old", "block")] > 1.5 * by_key[("old", "cyclic")]


def test_abl1_block_concentrates_partitions():
    """Structural check: with 50 equal partitions over 16 block chunks, a
    single partition touches at most 2 threads."""
    from repro.parallel import block_partition_counts

    counts = block_partition_counts(17_000, 1_000, 50_000, 16)
    assert (counts > 0).sum() <= 2
