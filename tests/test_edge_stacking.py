"""Every listed edge at once equals the reference kernel one edge and
one partition at a time.

:meth:`~repro.plk.stacking.PartitionStacks.prepare_edges` builds one
edge-stacked workspace per stack; a Newton round over its ``(edges x
partitions)`` lanes must give each lane the value of the reference
kernel (:func:`~repro.plk.kernel.make_sumtable` +
:func:`~repro.plk.kernel.branch_derivatives` /
:func:`~repro.plk.kernel.branch_derivatives_pinv`) on a one-member stack
of that partition to 1e-12 relative, for every lane mask.  Covered: DNA
and AA (two stacks), +I, a dead (``ZERO_SCALE``) pattern, a zero-width
member, a worker slice owning no pattern of a partition, and partial
``(E, P)`` masks.
"""
import numpy as np
import pytest

from repro.core.strategies import smoothing_edge_order
from repro.parallel import WorkerState, slice_partition_data
from repro.plk import (
    Alignment,
    PartitionData,
    PartitionedAlignment,
    PartitionLikelihood,
    SubstitutionModel,
    kernel,
    parse_partition_file,
)
from repro.plk.stacking import PartitionStacks
from repro.seqgen import random_topology_with_lengths, simulate_alignment

RTOL = 1e-12


def close(a, b):
    """Equal to RTOL; -inf (an impossible partition) must match exactly."""
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=0.0)


@pytest.fixture(scope="module")
def dataset():
    """Three DNA partitions of unequal width, one AA partition."""
    rng = np.random.default_rng(9)
    tree, lengths = random_topology_with_lengths(7, rng, mean_length=0.15)
    dna = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(1), 0.7, 90, rng)
    aa = simulate_alignment(tree, lengths, SubstitutionModel.synthetic_aa(2), 1.0, 20, rng)
    aln = Alignment(tree.taxa, np.concatenate([dna.matrix, aa.matrix], axis=1))
    scheme = parse_partition_file(
        "DNA, a = 1-50\nDNA, b = 51-80\nDNA, c = 81-90\nAA, d = 91-110"
    )
    data = PartitionedAlignment(aln, scheme)
    models = [SubstitutionModel.random_gtr(10 + p) for p in range(3)]
    models.append(SubstitutionModel.synthetic_aa(7))
    return tree, lengths, data, models, [0.5, 1.3, 0.8, 2.0]


def _blocks(data):
    """a, b with one dead pattern, c, a zero-width DNA member, d (AA)."""
    a, b, c, d = data.data
    tips = b.tip_states.copy()
    tips[0, 2, :] = 0.0  # no state fits taxon 0 at pattern 2
    dead = PartitionData(b.partition, tips, b.weights)
    empty = PartitionData(c.partition, c.tip_states[:, :0], c.weights[:0])
    return [a, dead, c, empty, d]


def _stacks(dataset, pinv=None, n_blocks=5):
    """The first ``n_blocks`` blocks as stacks, and as one-member stacks
    (the reference's)."""
    tree, lengths, data, models, alphas = dataset
    models = (models[:3] + [models[2], models[3]])[:n_blocks]
    alphas = (alphas[:3] + [alphas[2], alphas[3]])[:n_blocks]
    blocks = _blocks(data)[:n_blocks]
    stacks = PartitionStacks(blocks, tree, models, alphas)
    stacks.set_branch_lengths(lengths)
    if pinv is not None:
        stacks.set_pinvs(np.asarray(pinv))
    return stacks, _singles(blocks, tree, models, alphas, lengths, pinv)


def _singles(blocks, tree, models, alphas, lengths, pinv=None):
    singles = []
    for p, block in enumerate(blocks):
        single = PartitionLikelihood([block], tree, [models[p]], alpha=alphas[p])
        single.set_branch_lengths(lengths)
        if pinv is not None:
            single.set_pinvs(pinv[p])
        singles.append(single)
    return singles


def _reference(single, edge, z):
    """(d1, d2, lnl) of a one-member stack at length ``z`` of ``edge``,
    from :func:`kernel.make_sumtable` and the reference functions."""
    single.refresh(edge)
    a, b = single.tree.edge_nodes(edge)
    clv_a, sc_a = single._child(a, 0)
    clv_b, sc_b = single._child(b, 0)
    table = kernel.make_sumtable(clv_a, clv_b, single._u[0], single._v[0],
                                 single._frequencies[0])
    scale = kernel.combine_scales(sc_a, sc_b)
    weights = single._weights[0]
    args = (table, single._eigenvalues[0], single.rates[0], z, weights, scale)
    pinv = single.pinvs[0]
    if pinv > 0.0:
        inv = single.invariant_probabilities(0)
        d1, d2 = kernel.branch_derivatives_pinv(*args, pinv, inv)
        site = kernel.sumtable_site_likelihoods(*args[:4])
        lnl = kernel.weighted_log_sum(
            weights, kernel.mix_invariant_loglikelihoods(site, scale, pinv, inv)
        )
    else:
        d1, d2 = kernel.branch_derivatives(*args)
        lnl = kernel.sumtable_loglikelihood(*args)
    return d1, d2, lnl


def _per_edge(singles, order, z, active):
    """The reference for every lane of ``active`` (None: all), 0
    elsewhere."""
    out = np.zeros((3,) + z.shape)
    for i, edge in enumerate(order):
        for p, single in enumerate(singles):
            if active is None or active[i, p]:
                out[:, i, p] = _reference(single, edge, z[i, p])
    return out


#: Lane masks: every lane, most lanes (the whole block is computed and
#: the rest zeroed), few lanes (gathered), and none of the AA stack's.
MASKS = ["all", "most", "few", "none-of-a-stack"]


def _mask(which, shape, rng):
    if which == "all":
        return None
    mask = rng.random(shape) < (0.9 if which == "most" else 0.25)
    if which == "none-of-a-stack":
        mask[:, 4] = False
    return mask


@pytest.mark.parametrize("pinv", [None, (0.2, 0.0, 0.35, 0.1, 0.3)], ids=["plain", "pinv"])
@pytest.mark.parametrize("which", MASKS)
def test_edge_stack_equals_per_edge(dataset, pinv, which):
    stacks, singles = _stacks(dataset, pinv)
    assert len(stacks.stacks) >= 2  # DNA and AA never share a stack
    order = smoothing_edge_order(stacks.stacks[0].tree)
    rng = np.random.default_rng(MASKS.index(which))
    z = rng.uniform(0.01, 0.6, (len(order), 5))
    active = _mask(which, z.shape, rng)
    ws = stacks.prepare_edges(order)
    d1, d2 = stacks.edge_derivatives(ws, z, active)
    lnl = stacks.edge_loglikelihoods(ws, z, active)
    r1, r2, rl = _per_edge(singles, order, z, active)
    close(d1, r1)
    close(d2, r2)
    close(lnl, rl)
    if active is None:
        assert np.isneginf(lnl[:, 1]).all()  # the dead pattern
    assert np.isfinite(d1).all()
    assert (d1[:, 3] == 0.0).all() and (d2[:, 3] == 0.0).all()  # zero width
    if active is not None:
        assert (d1[~active] == 0.0).all() and (lnl[~active] == 0.0).all()


@pytest.mark.parametrize("pinv", [None, (0.2, 0.0, 0.35, 0.1)], ids=["plain", "pinv"])
def test_one_stack_holding_every_partition(dataset, pinv):
    """The DNA blocks alone form one stack that holds every partition, so
    a round is one stack call whose lanes are the ``(E, P)`` ones; every
    mask (none, all, all true, no lane, few, most) equals the reference,
    for every edge at once and for one edge."""
    stacks, singles = _stacks(dataset, pinv, n_blocks=4)
    assert len(stacks.stacks) == 1
    order = smoothing_edge_order(stacks.stacks[0].tree)
    rng = np.random.default_rng(11)
    for edges in (order, order[2:3]):
        z = rng.uniform(0.01, 0.6, (len(edges), 4))
        ws = stacks.prepare_edges(edges)
        for active in (None, np.ones(z.shape, dtype=bool), np.zeros(z.shape, dtype=bool),
                       rng.random(z.shape) < 0.25, rng.random(z.shape) < 0.9):
            d1, d2 = stacks.edge_derivatives(ws, z, active)
            lnl = stacks.edge_loglikelihoods(ws, z, active)
            r1, r2, rl = _per_edge(singles, edges, z, active)
            close(d1, r1)
            close(d2, r2)
            close(lnl, rl)


def test_subset_of_edges_and_partitions(dataset):
    stacks, singles = _stacks(dataset)
    order = [4, 0, 7]
    ws = stacks.prepare_edges(order, [0, 2, 4])
    assert ws[0].table.shape[:2] == (3, 2)
    z = np.full((3, 5), 0.2)
    d1, d2 = stacks.edge_derivatives(ws, z)
    r1, r2, _ = _per_edge(singles, order, z, np.tile([True, False, True, False, True], (3, 1)))
    close(d1, r1)
    close(d2, r2)


def test_worker_slice_without_patterns_of_a_partition(dataset):
    """Sliced over 12 workers, worker 11 owns none of partition c's 10
    patterns but some of a's; the edge commands equal the reference on
    that worker's slices."""
    tree, lengths, data, models, alphas = dataset
    slices = slice_partition_data(data, 12, 11)
    state = WorkerState.from_slices(slices, tree.copy(), models, alphas, lengths)
    widths = [part.n_patterns for part in state.parts]
    assert widths[2] == 0 and widths[0] > 0
    order = smoothing_edge_order(tree)
    z = np.random.default_rng(3).uniform(0.05, 0.4, (len(order), 4))
    active = np.ones(z.shape, dtype=bool)
    active[::2, 0] = False
    state.execute(("prepare_edges", order, [0, 1, 2, 3]))
    d1, d2 = state.execute(("deriv_edges", z, active))
    lnl = state.execute(("lnl_edges", z, active))
    r1, r2, rl = _per_edge(_singles(slices, tree, models, alphas, lengths), order, z, active)
    close(d1, r1)
    close(d2, r2)
    close(lnl, rl)
    assert (d1[:, 2] == 0.0).all()


def test_stale_edge_workspace_refused(dataset):
    stacks, _ = _stacks(dataset)
    order = [0, 1, 2]
    ws = stacks.prepare_edges(order, [0, 2])
    z = np.full((3, 5), 0.1)
    stacks.set_alphas(np.full(5, 0.7), [3])  # another member: still valid
    stacks.edge_derivatives(ws, z)
    stacks.set_alphas(np.full(5, 0.7), [2])
    with pytest.raises(RuntimeError, match="stale EdgeWorkspace"):
        stacks.edge_derivatives(ws, z)
