"""Pattern-distribution tests: the cyclic and block policies, the worker
slices cut from them, the balance currency (``pattern_weight``,
``imbalance_ratio``, ``PartitionLayout``) and the rejection of every
other policy name at each entry point."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TraceRecorder
from repro.parallel import (
    DISTRIBUTIONS,
    ParallelPLK,
    PartitionLayout,
    block_indices,
    block_partition_counts,
    cyclic_indices,
    cyclic_partition_counts,
    imbalance_ratio,
    partition_thread_counts,
    pattern_weight,
    slice_partition_data,
)
from repro.plk import (
    AA,
    DNA,
    Partition,
    PartitionData,
    PartitionedAlignment,
    SubstitutionModel,
    uniform_scheme,
)
from repro.seqgen import random_topology_with_lengths, simulate_alignment
from repro.simmachine import NEHALEM, simulate_trace

#: Policy names that are not distribution policies (the cost-aware ones).
REMOVED = ("weighted", "lpt")


class TestCyclic:
    def test_counts_balanced(self):
        counts = cyclic_partition_counts(0, 100, 8)
        assert counts.sum() == 100
        assert counts.max() - counts.min() <= 1

    def test_offset_rotation(self):
        """Offsets rotate which threads get the extra pattern but keep
        balance."""
        counts = cyclic_partition_counts(3, 10, 4)
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_fewer_patterns_than_threads(self):
        """The paper's SGI Altix worst case: some threads own nothing."""
        counts = cyclic_partition_counts(0, 3, 16)
        assert counts.sum() == 3
        assert (counts == 0).sum() == 13

    def test_indices_match_counts(self):
        for offset in (0, 5, 11):
            for t in range(4):
                idx = cyclic_indices(offset, 50, 4, t)
                counts = cyclic_partition_counts(offset, 50, 4)
                assert len(idx) == counts[t]

    def test_indices_partition_the_range(self):
        all_idx = np.concatenate(
            [cyclic_indices(7, 33, 5, t) for t in range(5)]
        )
        assert sorted(all_idx.tolist()) == list(range(33))

    def test_global_cyclic_semantics(self):
        """Pattern at global index g goes to thread g % T."""
        offset, length, T = 13, 29, 4
        for t in range(T):
            for local in cyclic_indices(offset, length, T, t):
                assert (offset + local) % T == t


class TestBlock:
    def test_counts_cover_total(self):
        # partitions [0,40) [40,100) over total 100, 8 threads
        c1 = block_partition_counts(0, 40, 100, 8)
        c2 = block_partition_counts(40, 60, 100, 8)
        assert (c1 + c2).sum() == 100
        np.testing.assert_array_equal(c1 + c2, np.full(8, 13)[:8] * 0 + (c1 + c2))

    def test_short_partition_concentrated(self):
        """Block policy can put an entire short partition on ONE thread —
        the pathology cyclic distribution avoids."""
        counts = block_partition_counts(0, 10, 1000, 8)
        assert (counts > 0).sum() == 1

    def test_indices_match_counts(self):
        for t in range(6):
            idx = block_indices(30, 50, 200, 6, t)
            counts = block_partition_counts(30, 50, 200, 6)
            assert len(idx) == counts[t]

    def test_indices_partition_the_range(self):
        all_idx = np.concatenate([block_indices(10, 45, 120, 7, t) for t in range(7)])
        assert sorted(all_idx.tolist()) == list(range(45))


class TestDispatch:
    def test_policy_names(self):
        a = partition_thread_counts("cyclic", 0, 10, 100, 4)
        b = partition_thread_counts("block", 0, 10, 100, 4)
        assert a.sum() == b.sum() == 10
        with pytest.raises(ValueError, match="unknown distribution"):
            partition_thread_counts("random", 0, 10, 100, 4)

    def test_thread_validation(self):
        with pytest.raises(ValueError):
            cyclic_partition_counts(0, 10, 0)
        with pytest.raises(ValueError):
            cyclic_indices(0, 10, 4, 9)


class TestEdgeCases:
    """Regression tests for degenerate geometries: zero-length partitions,
    empty alignments, and more threads than patterns must be well-defined
    (empty slices / zero counts), never errors."""

    def test_zero_length_partition(self):
        for policy in ("cyclic", "block"):
            counts = partition_thread_counts(policy, 5, 0, 10, 4)
            assert counts.tolist() == [0, 0, 0, 0]
        assert cyclic_indices(5, 0, 4, 2).size == 0
        assert block_indices(5, 0, 10, 4, 1).size == 0

    def test_empty_alignment(self):
        assert block_partition_counts(0, 0, 0, 8).tolist() == [0] * 8
        assert block_indices(0, 0, 0, 8, 3).size == 0
        assert cyclic_partition_counts(0, 0, 8).tolist() == [0] * 8

    def test_more_threads_than_total(self):
        for policy in ("cyclic", "block"):
            counts = partition_thread_counts(policy, 0, 3, 3, 16)
            assert counts.sum() == 3
            assert counts.min() >= 0
            merged = np.concatenate([
                cyclic_indices(0, 3, 16, t) if policy == "cyclic"
                else block_indices(0, 3, 3, 16, t)
                for t in range(16)
            ])
            assert sorted(merged.tolist()) == [0, 1, 2]

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            cyclic_partition_counts(-1, 5, 4)
        with pytest.raises(ValueError):
            cyclic_partition_counts(0, -1, 4)
        with pytest.raises(ValueError, match="exceeds total"):
            block_partition_counts(8, 5, 10, 4)
        with pytest.raises(ValueError):
            block_partition_counts(0, 5, -1, 4)
        with pytest.raises(ValueError):
            block_indices(0, 5, 10, 4, -1)

    def test_two_policies(self):
        assert DISTRIBUTIONS == ("cyclic", "block")


class TestProperties:
    @given(
        st.integers(0, 500), st.integers(0, 300), st.integers(1, 32)
    )
    @settings(max_examples=80, deadline=None)
    def test_cyclic_exact_cover(self, offset, length, threads):
        counts = cyclic_partition_counts(offset, length, threads)
        assert counts.sum() == length
        assert counts.max() - counts.min() <= 1 if length else True

    @given(st.integers(1, 300), st.integers(1, 32), st.data())
    @settings(max_examples=80, deadline=None)
    def test_block_exact_cover(self, total, threads, data):
        offset = data.draw(st.integers(0, total - 1))
        length = data.draw(st.integers(1, total - offset))
        counts = block_partition_counts(offset, length, total, threads)
        assert counts.sum() == length


class _Patterns:
    """The part of a :class:`~repro.plk.PartitionedAlignment` that
    :func:`slice_partition_data` reads, with widths a real alignment cannot
    have (zero).  Pattern ``j`` of a partition carries weight ``j`` and a
    tip row marking ``j``, so a slice names the patterns it holds."""

    def __init__(self, widths, states):
        self.data = tuple(
            PartitionData(
                Partition(f"p{i}", AA if s == 20 else DNA, ((0, 1),)),
                np.arange(2 * w * s, dtype=np.float64).reshape(2, w, s),
                np.arange(w, dtype=np.float64),
            )
            for i, (w, s) in enumerate(zip(widths, states))
        )

    def pattern_counts(self) -> np.ndarray:
        return np.array([d.n_patterns for d in self.data], dtype=np.int64)


class TestSliceProperties:
    @given(
        widths=st.lists(st.integers(0, 12), min_size=1, max_size=6),
        threads=st.integers(1, 8),
        policy=st.sampled_from(DISTRIBUTIONS),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_worker_slices_tile_every_partition(self, widths, threads, policy, data):
        """Each worker slices itself with no shared plan, yet the team's
        slices tile every partition exactly, and each worker's share is
        the count :func:`partition_thread_counts` gives the simulator —
        zero-width partitions, more workers than patterns and DNA+AA
        mixes included."""
        states = data.draw(st.lists(st.sampled_from([4, 20]),
                                    min_size=len(widths), max_size=len(widths)))
        aln = _Patterns(widths, states)
        offsets = np.concatenate(([0], np.cumsum(widths)[:-1]))
        slices = [slice_partition_data(aln, threads, w, policy) for w in range(threads)]
        for p, (block, width) in enumerate(zip(aln.data, widths)):
            counts = partition_thread_counts(
                policy, int(offsets[p]), width, sum(widths), threads
            )
            owned = []
            for w in range(threads):
                sl = slices[w][p]
                idx = sl.weights.astype(np.int64)
                assert sl.n_patterns == counts[w]
                assert sl.states == block.states
                np.testing.assert_array_equal(sl.tip_states, block.tip_states[:, idx, :])
                owned.extend(idx.tolist())
            assert sorted(owned) == list(range(width))

    def test_real_alignment_slices(self, workload):
        data = workload[0]
        for policy in DISTRIBUTIONS:
            slices = [slice_partition_data(data, 3, w, policy) for w in range(3)]
            for p, n_pat in enumerate(data.pattern_counts()):
                assert sum(sl[p].n_patterns for sl in slices) == n_pat


class TestPatternWeight:
    def test_aa_is_25x_dna(self):
        assert pattern_weight(20) / pattern_weight(4) == 25.0

    def test_scales_with_categories(self):
        assert pattern_weight(4, 8) == 2 * pattern_weight(4, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            pattern_weight(1)
        with pytest.raises(ValueError):
            pattern_weight(4, 0)


class TestImbalanceRatio:
    def test_perfect(self):
        assert imbalance_ratio([3.0, 3.0, 3.0]) == 1.0

    def test_concentrated(self):
        assert imbalance_ratio([4.0, 0.0, 0.0, 0.0]) == 4.0

    def test_all_idle_counts_as_balanced(self):
        assert imbalance_ratio([0.0, 0.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            imbalance_ratio([])


class TestPartitionLayout:
    def test_fields(self):
        lay = PartitionLayout((30, 0, 10), (4, 4, 20))
        assert (lay.lengths, lay.states, lay.categories) == ((30, 0, 10), (4, 4, 20), 4)

    def test_from_alignment(self, workload):
        data = workload[0]
        lay = PartitionLayout.from_alignment(data, categories=2)
        assert lay.lengths == tuple(data.pattern_counts().tolist())
        assert lay.states == (4, 4, 4)
        assert lay.categories == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionLayout((), ())
        with pytest.raises(ValueError):
            PartitionLayout((10,), (4, 20))
        with pytest.raises(ValueError):
            PartitionLayout((-1,), (4,))
        with pytest.raises(ValueError):
            PartitionLayout((10,), (1,))


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(77)
    tree, lengths = random_topology_with_lengths(6, rng)
    model = SubstitutionModel.random_gtr(3)
    aln = simulate_alignment(tree, lengths, model, 1.0, 300, rng)
    data = PartitionedAlignment(aln, uniform_scheme(300, 100))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    alphas = [0.8, 1.0, 1.5]
    return data, tree, lengths, models, alphas


def _mixed_trace():
    lengths, states = (1, 3, 1, 3, 1, 3, 1, 3), (20, 4, 20, 4, 20, 4, 20, 4)
    rec = TraceRecorder()
    rec.begin_region("lnl")
    for p, patterns in enumerate(lengths):
        rec.newview(p, patterns, count=3)
        rec.evaluate(p, patterns)
    rec.end_region()
    return rec.finalize(np.array(lengths), np.array(states))


class TestPolicyThreading:
    def test_both_policies_simulate(self):
        trace = _mixed_trace()
        results = {policy: simulate_trace(trace, NEHALEM, 4, policy)
                   for policy in DISTRIBUTIONS}
        for policy, res in results.items():
            assert res.distribution == policy
            assert res.imbalance >= 1.0
            # Total productive work is policy-independent.
            assert res.busy_seconds.sum() == pytest.approx(
                results["cyclic"].busy_seconds.sum(), rel=0.3
            )


@pytest.mark.parametrize("policy", REMOVED + ("striped",))
class TestOtherPoliciesRejected:
    """Only ``cyclic`` and ``block`` exist: every entry point that takes a
    policy name raises :class:`ValueError` for any other, before a worker
    is forked."""

    def test_partition_thread_counts(self, policy):
        with pytest.raises(ValueError, match="unknown distribution"):
            partition_thread_counts(policy, 0, 10, 100, 4)

    def test_slice_partition_data(self, policy, workload):
        with pytest.raises(ValueError, match="unknown distribution"):
            slice_partition_data(workload[0], 2, 0, policy)

    def test_parallel_plk(self, policy, workload):
        data, tree, lengths, models, alphas = workload
        with pytest.raises(ValueError, match="distribution"):
            ParallelPLK(data, tree, models, alphas, 2,
                        distribution=policy, initial_lengths=lengths)

    def test_simulate_trace(self, policy):
        with pytest.raises(ValueError, match="unknown distribution"):
            simulate_trace(_mixed_trace(), NEHALEM, 4, policy)
