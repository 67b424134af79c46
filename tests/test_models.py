"""Unit + property tests for substitution models (Q matrices)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plk import AA, DNA, SubstitutionModel, n_exchange_rates


class TestConstruction:
    def test_jc69(self):
        m = SubstitutionModel.jc69()
        np.testing.assert_allclose(m.frequencies, 0.25)
        q = m.q_matrix()
        # JC69: all off-diagonals equal, normalized to rate 1.
        off = q[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, off[0])
        np.testing.assert_allclose(np.diag(q), -1.0)

    def test_k80_transition_bias(self):
        m = SubstitutionModel.k80(kappa=4.0)
        q = m.q_matrix()
        # A->G (transition) is kappa times A->C (transversion)
        np.testing.assert_allclose(q[0, 2] / q[0, 1], 4.0)
        np.testing.assert_allclose(q[1, 3] / q[1, 0], 4.0)

    def test_rate_count_validation(self):
        with pytest.raises(ValueError, match="rates"):
            SubstitutionModel(DNA, np.ones(5), np.full(4, 0.25))

    def test_frequency_count_validation(self):
        with pytest.raises(ValueError, match="frequencies"):
            SubstitutionModel(DNA, np.ones(6), np.full(5, 0.2))

    def test_negative_rate_rejected(self):
        rates = np.ones(6)
        rates[2] = -1
        with pytest.raises(ValueError, match="positive"):
            SubstitutionModel(DNA, rates, np.full(4, 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, bad):
        rates = np.array([1.0, bad, 1.0, 1.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="finite and positive"):
            SubstitutionModel.gtr(rates, np.full(4, 0.25))

    def test_frequencies_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SubstitutionModel(DNA, np.ones(6), np.full(4, 0.3))

    def test_n_exchange_rates(self):
        assert n_exchange_rates(4) == 6
        assert n_exchange_rates(20) == 190

    def test_aa_models(self):
        assert SubstitutionModel.poisson_aa().states == 20
        m = SubstitutionModel.synthetic_aa(seed=1)
        assert m.rates.shape == (190,)
        # heterogeneous: rates spread over orders of magnitude
        assert m.rates.max() / m.rates.min() > 10

    def test_synthetic_aa_deterministic(self):
        a = SubstitutionModel.synthetic_aa(seed=5)
        b = SubstitutionModel.synthetic_aa(seed=5)
        np.testing.assert_array_equal(a.rates, b.rates)

    def test_with_rate(self):
        m = SubstitutionModel.jc69().with_rate(2, 3.5)
        assert m.rates[2] == 3.5
        assert m.rates[0] == 1.0

    def test_normalized_reference_rate(self):
        m = SubstitutionModel.gtr(np.array([2, 4, 1, 1, 4, 2.0]), np.full(4, 0.25))
        assert m.normalized().rates[-1] == 1.0


@st.composite
def gtr_models(draw):
    rates = np.array([draw(st.floats(0.05, 20.0)) for _ in range(6)])
    raw = np.array([draw(st.floats(0.05, 1.0)) for _ in range(4)])
    return SubstitutionModel.gtr(rates, raw / raw.sum())


class TestQMatrixProperties:
    @given(gtr_models())
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_zero(self, m):
        np.testing.assert_allclose(m.q_matrix().sum(axis=1), 0.0, atol=1e-12)

    @given(gtr_models())
    @settings(max_examples=60, deadline=None)
    def test_normalized_to_unit_rate(self, m):
        q = m.q_matrix()
        np.testing.assert_allclose(-np.dot(m.frequencies, np.diag(q)), 1.0)

    @given(gtr_models())
    @settings(max_examples=60, deadline=None)
    def test_detailed_balance(self, m):
        """Time-reversibility: pi_i * Q_ij == pi_j * Q_ji."""
        q = m.q_matrix()
        flux = m.frequencies[:, None] * q
        np.testing.assert_allclose(flux, flux.T, atol=1e-12)

    @given(gtr_models())
    @settings(max_examples=60, deadline=None)
    def test_stationary_distribution(self, m):
        """pi Q == 0: the frequencies are the stationary distribution."""
        np.testing.assert_allclose(m.frequencies @ m.q_matrix(), 0.0, atol=1e-12)

    @given(gtr_models())
    @settings(max_examples=60, deadline=None)
    def test_offdiagonals_nonnegative(self, m):
        q = m.q_matrix()
        off = q[~np.eye(4, dtype=bool)]
        assert (off >= 0).all()
