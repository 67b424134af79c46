"""The per-node repeat index of :mod:`repro.plk.repeats`: tip state
codes, class combination and saturation, and the repeat profile built
from them.
"""
import numpy as np

from repro.plk import (
    Alignment,
    NodeRepeats,
    PartitionedAlignment,
    repeat_profile,
    tip_state_codes,
    uniform_scheme,
)

AMBIG = "RYSWKMBDHVN-"


def random_alignment(tree, n_sites, rng, ambiguity=0.0, diversity=1.0):
    """A random (not model-simulated) alignment on ``tree``'s taxa.

    ``diversity`` < 1 draws columns from a small pool (repeat-heavy);
    ``ambiguity`` injects IUPAC codes and gaps at that per-cell rate.
    """
    n_taxa = len(tree.taxa)
    pool = max(2, int(40 * diversity))
    cols = rng.integers(0, 4, size=(pool, n_taxa))
    draw = cols[rng.integers(0, pool, size=n_sites)]  # (sites, taxa)
    chars = np.array(list("ACGT"))[draw]
    if ambiguity > 0:
        mask = rng.random((n_sites, n_taxa)) < ambiguity
        codes = rng.integers(0, len(AMBIG), size=(n_sites, n_taxa))
        chars = np.where(mask, np.array(list(AMBIG))[codes], chars)
    seqs = {tree.taxa[i]: "".join(chars[:, i]) for i in range(n_taxa)}
    return Alignment.from_sequences(seqs)


class TestIndexArithmetic:
    def test_tip_codes_distinguish_ambiguity(self):
        aln = Alignment.from_sequences(
            {"a": "AARN-", "b": "AAAAA", "c": "CCCCC", "d": "GGGGG"}
        )
        block = PartitionedAlignment(aln, uniform_scheme(5, 5)).data[0]
        codes = tip_state_codes(block.tip_states)
        # pattern compression may reorder columns; assert on the code
        # values: A -> 0b0001, R(=A|G) -> 0b0101, N and - -> 0b1111
        assert set(codes[0].tolist()) == {1, 5, 15}
        assert (codes[1] == 1).all()  # taxon b: all A
        assert (codes[2] == 2).all()  # taxon c: all C
        assert (codes[3] == 4).all()  # taxon d: all G

    def test_combine_refines_and_saturates(self):
        left = NodeRepeats.from_keys(np.array([0, 0, 1, 1]))
        right = NodeRepeats.from_keys(np.array([5, 7, 5, 5]))
        parent = NodeRepeats.combine(left, right)
        assert parent.n_classes == 3
        assert parent.classes[2] == parent.classes[3]
        assert parent.classes[0] != parent.classes[1]
        # representatives map back onto their own class
        for j, r in enumerate(parent.representatives):
            assert parent.classes[r] == j
        saturated = NodeRepeats.from_keys(np.arange(4))
        top = NodeRepeats.combine(parent, saturated)
        assert top.saturated
        assert top.classes.tolist() == [0, 1, 2, 3]

    def test_empty_unique_and_constant_keys(self):
        empty = NodeRepeats.from_keys(np.array([], dtype=np.int64))
        assert empty.m == 0 and empty.unique_ratio == 1.0
        unique = NodeRepeats.from_keys(np.array([0, 1, 2, 3, 4, 5]))
        assert unique.saturated and unique.unique_ratio == 1.0
        heavy = NodeRepeats.from_keys(np.zeros(10, dtype=np.int64))
        assert heavy.n_classes == 1 and heavy.unique_ratio == 0.1

    def test_profile_matches_node_index(self, small_tree):
        tree, lengths = small_tree
        rng = np.random.default_rng(5)
        aln = random_alignment(tree, 200, rng, diversity=0.2)
        block = PartitionedAlignment(aln, uniform_scheme(200, 200)).data[0]
        prof = repeat_profile(block.tip_states, tree)
        # rebuild every inner node's classes by hand, children first
        codes = tip_state_codes(block.tip_states)
        reps = {leaf: NodeRepeats.from_keys(codes[leaf])
                for leaf in range(tree.n_taxa)}
        for step in tree.postorder(0):
            reps[step.node] = NodeRepeats.combine(reps[step.c1], reps[step.c2])
        inner = {n: reps[n].unique_ratio for n in prof["per_node"]}
        assert inner == prof["per_node"]
        assert len(inner) == tree.n_nodes - tree.n_taxa
        assert prof["mean_unique_ratio"] == np.mean(list(inner.values()))
        assert 0.0 < prof["min_unique_ratio"] <= prof["mean_unique_ratio"] < 1.0
        assert prof["n_patterns"] == block.tip_states.shape[1]
