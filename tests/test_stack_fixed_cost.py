"""The stack's per-member-free paths.

Batched setters make one special-function / eigensolver call per stack,
not one per member; the one-edge Newton workspace (sumtable as
``(1, A, m, K*s)``, one GEMM per round) gives the reference kernel's
values to 1e-12 with a dead pattern, with +I, with a partial active set
and with one active lane (basic-index views, the kernel unbatched); a
stale multi-member workspace is still refused; and Gamma shapes that are
NaN or not positive are rejected.
"""
import numpy as np
import pytest

from repro.core import PartitionedEngine
from repro.plk import (
    EigenSystem,
    PartitionData,
    PartitionedAlignment,
    PartitionLikelihood,
    PartitionView,
    SubstitutionModel,
    discrete_gamma_rates,
    kernel,
    uniform_scheme,
)
from repro.plk import gamma as gamma_module
from repro.seqgen import random_topology_with_lengths, simulate_alignment

RTOL = 1e-12
N_MEMBERS = 16


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=0.0)


@pytest.fixture(scope="module")
def sixteen():
    """Sixteen DNA partitions of 25 columns (unequal pattern counts after
    compression, so the stack pads) on 7 taxa; member 1 has a dead
    pattern."""
    rng = np.random.default_rng(27)
    tree, lengths = random_topology_with_lengths(7, rng, mean_length=0.15)
    aln = simulate_alignment(tree, lengths, SubstitutionModel.random_gtr(3), 0.8,
                             25 * N_MEMBERS, rng)
    data = PartitionedAlignment(aln, uniform_scheme(25 * N_MEMBERS, 25))
    blocks = list(data.data)
    tips = blocks[1].tip_states.copy()
    tips[0, 2, :] = 0.0  # no state fits taxon 0 at pattern 2
    blocks[1] = PartitionData(blocks[1].partition, tips, blocks[1].weights)
    models = [SubstitutionModel.random_gtr(40 + p) for p in range(N_MEMBERS)]
    return tree, lengths, data, blocks, models


def _stack(sixteen, alphas=1.0):
    tree, lengths, _, blocks, models = sixteen
    stack = PartitionLikelihood(blocks, tree, models, alpha=alphas)
    stack.set_branch_lengths(lengths)
    return stack


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneCallPerStack:
    def test_set_alphas_makes_one_gammaincinv_call(self, sixteen, monkeypatch):
        stack = _stack(sixteen)
        calls = _counting(monkeypatch, gamma_module, "gammaincinv")
        stack.set_alphas(np.linspace(0.2, 3.0, N_MEMBERS))
        assert len(calls) == 1
        for i in (0, 9):
            np.testing.assert_array_equal(
                stack.rates[i], discrete_gamma_rates(stack.alphas[i], 4)
            )

    def test_constructor_makes_one_gammaincinv_call(self, sixteen, monkeypatch):
        calls = _counting(monkeypatch, gamma_module, "gammaincinv")
        _stack(sixteen, np.linspace(0.2, 3.0, N_MEMBERS))
        assert len(calls) == 1

    def test_set_models_makes_one_eigh_call(self, sixteen, monkeypatch):
        stack = _stack(sixteen)
        fresh = [SubstitutionModel.random_gtr(900 + p) for p in range(N_MEMBERS)]
        calls = _counting(monkeypatch, np.linalg, "eigh")
        stack.set_models(fresh)
        assert len(calls) == 1
        for i in (0, 7, 15):
            eigen = stack.eigens[i]
            np.testing.assert_allclose(
                eigen.u @ np.diag(eigen.eigenvalues) @ eigen.v, fresh[i].q_matrix(), atol=1e-12
            )

    def test_engine_exchangeabilities_make_one_eigh_call(self, sixteen, monkeypatch):
        tree, lengths, data, _, models = sixteen
        engine = PartitionedEngine(data, tree.copy(), models=models,
                                   alphas=[1.0] * N_MEMBERS, initial_lengths=lengths)
        calls = _counting(monkeypatch, np.linalg, "eigh")
        engine.set_exchangeabilities(0, np.linspace(0.5, 2.0, N_MEMBERS))
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Newton workspaces against the reference kernel
# ---------------------------------------------------------------------------


def _reference(stack, edge, slots, z):
    """(d1, d2, lnl) per member from make_sumtable and the reference
    branch_derivatives / sumtable functions, one member at a time."""
    a, b = stack.tree.edge_nodes(edge)
    out = []
    for i, zi in zip(slots, z):
        clv_a, sc_a = stack._child(a, i)
        clv_b, sc_b = stack._child(b, i)
        table = kernel.make_sumtable(clv_a, clv_b, stack._u[i], stack._v[i],
                                     stack._frequencies[i])
        scale = kernel.combine_scales(sc_a, sc_b)
        args = (table, stack._eigenvalues[i], stack.rates[i], zi, stack._weights[i], scale)
        pinv = stack.pinvs[i]
        if pinv > 0.0:
            inv = stack.invariant_probabilities(i)
            d1, d2 = kernel.branch_derivatives_pinv(*args, pinv, inv)
            site = kernel.sumtable_site_likelihoods(*args[:4])
            lnl = kernel.weighted_log_sum(
                stack._weights[i], kernel.mix_invariant_loglikelihoods(site, scale, pinv, inv)
            )
        else:
            d1, d2 = kernel.branch_derivatives(*args)
            lnl = kernel.sumtable_loglikelihood(*args)
        out.append((d1, d2, lnl))
    return np.array(out).T


PINVS = {"plain": np.zeros(N_MEMBERS), "mixed": np.where(np.arange(N_MEMBERS) % 3 == 1, 0.2, 0.0)}
ACTIVE = {"all": None, "one": [1], "partial": [0, 1, 5, 9, 14]}


class TestWorkspaceAgainstReference:
    @pytest.mark.parametrize("which", list(ACTIVE))
    @pytest.mark.parametrize("pinv", list(PINVS))
    def test_prepared_for_the_active_set(self, sixteen, which, pinv):
        stack = _stack(sixteen, np.linspace(0.3, 2.0, N_MEMBERS))
        stack.set_pinvs(PINVS[pinv])
        active = ACTIVE[which]
        slots = list(range(N_MEMBERS)) if active is None else active
        z = np.linspace(0.03, 0.9, N_MEMBERS)[slots]
        for edge in (0, 4, stack.tree.n_edges - 1):
            ws = stack.prepare_edges([edge], active)
            d1, d2 = stack.edge_derivatives(ws, z[np.newaxis])
            lnl = stack.edge_loglikelihoods(ws, z[np.newaxis])[0]
            r1, r2, rl = _reference(stack, edge, slots, z)
            close(d1[0], r1)
            close(d2[0], r2)
            close(lnl, rl)
        if 1 in slots:  # the dead pattern fits no state, so +I cannot rescue it
            assert np.isneginf(lnl[slots.index(1)])

    @pytest.mark.parametrize("pinv", list(PINVS))
    def test_subset_of_a_workspace(self, sixteen, pinv):
        stack = _stack(sixteen, np.linspace(0.3, 2.0, N_MEMBERS))
        stack.set_pinvs(PINVS[pinv])
        ws = stack.prepare_edges([3])
        slots = ACTIVE["partial"]
        z = np.zeros((1, N_MEMBERS))
        z[0, slots] = np.linspace(0.05, 0.6, len(slots))
        lanes = np.zeros((1, N_MEMBERS), dtype=bool)
        lanes[0, slots] = True
        r1, r2, rl = _reference(stack, 3, slots, z[0, slots])
        d1, d2 = stack.edge_derivatives(ws, z, lanes)
        close(d1[0, slots], r1)
        close(d2[0, slots], r2)
        assert (d1[~lanes] == 0.0).all() and (d2[~lanes] == 0.0).all()
        close(stack.edge_loglikelihoods(ws, z, lanes)[0, slots], rl)
        one = np.zeros_like(lanes)
        one[0, slots[2]] = True  # one lane: basic-index views, the kernel unbatched
        d1, d2 = stack.edge_derivatives(ws, z, one)
        close([d1[0, slots[2]], d2[0, slots[2]]], [r1[2], r2[2]])


class TestKernelFallback:
    def test_zero_site_likelihood_falls_back_to_reference(self):
        """A pattern whose likelihood is exactly 0 without the dead
        sentinel makes the one-matmul sums non-finite; the result is then
        the reference's, which drops that pattern."""
        rng = np.random.default_rng(5)
        k, m, s = 4, 12, 4
        sumtable = rng.random((k, m, s)) + 0.1
        sumtable[:, 7, :] = 0.0
        lam = EigenSystem.from_model(SubstitutionModel.random_gtr(8)).eigenvalues
        rates = discrete_gamma_rates(0.7, k)
        weights = rng.integers(1, 4, m).astype(float)
        scale = np.zeros(m, dtype=np.int32)
        scale[3] = kernel.ZERO_SCALE
        table = np.ascontiguousarray(sumtable.transpose(1, 0, 2)).reshape(m, k * s)
        coef, powers = kernel.branch_coefficients(lam, rates)
        live = np.where(kernel.zero_pattern_mask(scale), 0.0, weights)
        slopes = kernel.table_slopes(table, coef, powers, 0.2)
        got = kernel.slope_derivatives(slopes, live, weights, scale)
        want = kernel.branch_derivatives(sumtable, lam, rates, 0.2, weights, scale)
        assert np.isfinite(got).all()
        close(got, want)


class TestStaleMultiMemberWorkspace:
    def test_refused_after_a_member_changes(self, sixteen):
        stack = _stack(sixteen)
        ws = stack.prepare_edges([2])
        z = np.full((1, N_MEMBERS), 0.1)
        stack.edge_derivatives(ws, z)
        sub = np.zeros((1, N_MEMBERS), dtype=bool)
        sub[0, [0, 3, 8]] = True
        stack.edge_derivatives(ws, z, sub)
        other = stack.prepare_edges([2], [0, 1])
        stack.set_alphas(0.7, 3)
        with pytest.raises(RuntimeError, match="stale"):
            stack.edge_derivatives(ws, z)
        with pytest.raises(RuntimeError, match="stale"):
            stack.edge_derivatives(ws, z, sub)
        with pytest.raises(RuntimeError, match="stale"):
            stack.edge_loglikelihoods(ws, z)
        # members 0 and 1 did not change: their workspace stays usable
        stack.edge_derivatives(other, z[:, :2])
        stack.set_models([SubstitutionModel.random_gtr(77)], 1)
        with pytest.raises(RuntimeError, match="stale"):
            stack.edge_derivatives(other, z[:, :2])


class TestTransitionCacheUpdates:
    """A refresh recomputes only the block of edges and members whose
    (length, epoch) key moved; the poisoned entries outside it stay as
    they are, and the recomputed ones equal the eigensystem's P(t)."""

    def _poisoned(self, sixteen):
        stack = _stack(sixteen)
        stack.loglikelihoods(0)
        stack._pmat[...] = np.nan
        return stack

    def _check(self, stack, edges, members):
        for i in range(N_MEMBERS):
            for e in range(stack.tree.n_edges):
                got = stack._pmat[i, e]
                if e in edges and i in members:
                    want = EigenSystem.for_model(stack.models[i]).transition_matrices(
                        stack.lengths[e, i], stack.rates[i]
                    )
                    np.testing.assert_allclose(
                        got, np.swapaxes(want, -1, -2), rtol=RTOL, atol=1e-15
                    )
                else:
                    assert np.isnan(got).all()

    def test_one_member_update(self, sixteen):
        stack = self._poisoned(sixteen)
        stack.set_alphas(0.7, 3)
        stack.invalidate_all(3)
        stack.loglikelihoods(0)
        self._check(stack, range(stack.tree.n_edges), [3])

    def test_one_edge_update(self, sixteen):
        stack = self._poisoned(sixteen)
        stack.set_branch_length(4, 0.21)
        stack.loglikelihoods(0)
        self._check(stack, [4], range(N_MEMBERS))


class TestAlphaValidation:
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_set_alphas_rejects(self, sixteen, bad):
        stack = _stack(sixteen)
        before = stack.alphas.copy()
        values = np.full(N_MEMBERS, 0.8)
        values[4] = bad
        with pytest.raises(ValueError, match="alpha"):
            stack.set_alphas(values)
        np.testing.assert_array_equal(stack.alphas, before)

    def test_every_entry_point_rejects(self, sixteen):
        tree, lengths, data, blocks, models = sixteen
        engine = PartitionedEngine(data, tree.copy(), models=models,
                                   alphas=[1.0] * N_MEMBERS, initial_lengths=lengths)
        values = np.ones(N_MEMBERS)
        values[:2] = [-1.0, np.nan]
        with pytest.raises(ValueError, match="alpha"):
            engine.set_alphas(values)
        np.testing.assert_array_equal(engine.alphas(), np.ones(N_MEMBERS))
        with pytest.raises(ValueError, match="alpha"):
            PartitionLikelihood(blocks[:2], tree, models[:2], alpha=[0.5, np.nan])
        view = PartitionView(_stack(sixteen), 3)
        with pytest.raises(ValueError, match="alpha"):
            view.alpha = 0.0
