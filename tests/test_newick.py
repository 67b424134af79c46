"""Newick parser/writer tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plk import Tree, parse_newick, write_newick
from repro.seqgen import default_taxa, random_topology_with_lengths


class TestParse:
    def test_trifurcating(self):
        tree, lengths = parse_newick("(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);")
        assert tree.n_taxa == 4
        tree.validate()
        assert set(tree.taxa) == {"a", "b", "c", "d"}

    def test_branch_lengths_attach_to_edges(self):
        tree, lengths = parse_newick("(a:0.1,b:0.2,c:0.3);")
        by_leaf = {
            tree.taxa[leaf]: lengths[tree.edge_between(leaf, tree.neighbors(leaf)[0])]
            for leaf in range(3)
        }
        assert by_leaf == {"a": pytest.approx(0.1), "b": pytest.approx(0.2), "c": pytest.approx(0.3)}

    def test_rooted_input_unrooted(self):
        """A bifurcating top level is fused; lengths are summed."""
        tree, lengths = parse_newick("((a:0.1,b:0.2):0.3,(c:0.4,d:0.5):0.6);")
        tree.validate()
        assert tree.n_taxa == 4
        # the fused central edge carries 0.3 + 0.6
        inner = [n for n in range(tree.n_nodes) if not tree.is_leaf(n)]
        central = tree.edge_between(inner[0], inner[1])
        assert lengths[central] == pytest.approx(0.9)

    def test_missing_lengths_defaulted(self):
        tree, lengths = parse_newick("(a,b,(c,d));")
        assert (lengths == 0.1).all()

    def test_quoted_names(self):
        tree, _ = parse_newick("('taxon one':1,'it''s':2,c:3);")
        assert "taxon one" in tree.taxa
        assert "it's" in tree.taxa

    def test_scientific_notation_lengths(self):
        _, lengths = parse_newick("(a:1e-3,b:2E-2,c:1.5e1);")
        assert sorted(np.round(lengths, 6)) == [0.001, 0.02, 15.0]

    def test_internal_polytomy_rejected(self):
        with pytest.raises(ValueError, match="binary|trifurcating"):
            parse_newick("(a,b,c,(d,e,f,g));")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_newick("(a,b,,c);")

    def test_two_taxa_rejected(self):
        with pytest.raises(ValueError):
            parse_newick("(a:1,b:2);")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_length_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            parse_newick(f"((a:0.1,b:{bad}):0.2,c:0.3,d:0.4);")

    def test_non_finite_length_on_fused_root_edge_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_newick("((a:0.1,b:0.2):nan,(c:0.4,d:0.5):0.6);")

    def test_negative_length_kept(self):
        """The kernel clamps lengths; the parser keeps what it reads."""
        tree, lengths = parse_newick("((a:0.1,b:0.2):0.2,c:0.3,d:-0.4);")
        d = tree.taxa.index("d")
        assert lengths[tree.edge_between(d, tree.neighbors(d)[0])] == -0.4


class TestRoundTrip:
    def test_topology_preserved(self):
        rng = np.random.default_rng(4)
        tree, lengths = random_topology_with_lengths(12, rng)
        text = write_newick(tree, lengths)
        back, back_lengths = parse_newick(text)
        assert tree.robinson_foulds(back) == 0

    def test_lengths_preserved(self):
        rng = np.random.default_rng(4)
        tree, lengths = random_topology_with_lengths(8, rng)
        back, back_lengths = parse_newick(write_newick(tree, lengths, precision=10))
        # compare leaf-edge lengths by taxon name (edge ids may permute)
        for tname in tree.taxa:
            leaf_a = tree.taxa.index(tname)
            leaf_b = back.taxa.index(tname)
            ea = tree.edge_between(leaf_a, tree.neighbors(leaf_a)[0])
            eb = back.edge_between(leaf_b, back.neighbors(leaf_b)[0])
            assert lengths[ea] == pytest.approx(back_lengths[eb], rel=1e-8)

    @given(st.integers(3, 25), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        tree = Tree.random(default_taxa(n), rng)
        back, _ = parse_newick(write_newick(tree))
        assert tree.robinson_foulds(back) == 0

    def test_writer_quotes_special_names(self):
        tree = Tree.random(("a b", "c(d)", "e:f"), np.random.default_rng(0))
        back, _ = parse_newick(write_newick(tree))
        assert set(back.taxa) == {"a b", "c(d)", "e:f"}
