"""Discrete Gamma rate tests (Yang 1994)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from repro.plk import discrete_gamma_rates


class TestBasics:
    def test_mean_is_one(self):
        for alpha in (0.05, 0.3, 1.0, 5.0, 50.0):
            rates = discrete_gamma_rates(alpha, 4)
            assert rates.mean() == pytest.approx(1.0)

    def test_ascending(self):
        rates = discrete_gamma_rates(0.5, 4)
        assert (np.diff(rates) > 0).all()

    def test_single_category_is_uniform(self):
        np.testing.assert_array_equal(discrete_gamma_rates(0.7, 1), [1.0])

    def test_category_count(self):
        for k in (2, 4, 8, 16):
            assert discrete_gamma_rates(1.0, k).shape == (k,)

    def test_invalid_category_count(self):
        with pytest.raises(ValueError):
            discrete_gamma_rates(1.0, 0)

    def test_large_alpha_approaches_equal_rates(self):
        """alpha -> infinity: no heterogeneity, all categories ~1."""
        rates = discrete_gamma_rates(900.0, 4)
        np.testing.assert_allclose(rates, 1.0, atol=0.05)

    def test_small_alpha_is_extreme(self):
        """Small alpha: most categories near 0, one large."""
        rates = discrete_gamma_rates(0.05, 4)
        assert rates[0] < 1e-3
        assert rates[-1] > 3.0

    def test_median_rule(self):
        rates = discrete_gamma_rates(0.8, 4, median=True)
        assert rates.mean() == pytest.approx(1.0)
        assert (np.diff(rates) > 0).all()

    def test_alpha_clamped(self):
        # Below the RAxML minimum the result equals the clamped value.
        np.testing.assert_allclose(
            discrete_gamma_rates(0.001, 4), discrete_gamma_rates(0.02, 4)
        )


class TestAgainstNumericalIntegration:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.7])
    def test_category_means_match_quadrature(self, alpha):
        """Each mean-rule category rate equals the conditional mean of
        Gamma(alpha, alpha) over its quantile interval (numerical
        integration oracle)."""
        k = 4
        rates = discrete_gamma_rates(alpha, k)
        dist = stats.gamma(a=alpha, scale=1.0 / alpha)
        cuts = [0.0, *dist.ppf(np.arange(1, k) / k), np.inf]
        for i in range(k):
            val, _ = integrate.quad(
                lambda x: x * dist.pdf(x), cuts[i], min(cuts[i + 1], 200.0)
            )
            expected = val * k  # conditional mean: divide by prob 1/k
            assert rates[i] == pytest.approx(expected, rel=1e-4)


class TestProperties:
    @given(st.floats(0.05, 100.0), st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_mean_one_everywhere(self, alpha, k):
        rates = discrete_gamma_rates(alpha, k)
        assert rates.mean() == pytest.approx(1.0)
        assert (rates > 0).all()

    @given(st.floats(0.05, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_variance_decreases_with_alpha(self, alpha):
        """More categories spread monotonically with heterogeneity: the
        discrete variance is bounded by the true Gamma variance 1/alpha."""
        rates = discrete_gamma_rates(alpha, 4)
        assert rates.var() <= 1.0 / alpha + 1e-9


class TestVectorised:
    """An array of shapes gives the scalar calls' rows bit for bit."""

    ALPHAS = np.array([0.001, 0.02, 0.05, 0.3, 0.5, 1.0, 2.7, 50.0, 1000.0, 5000.0])

    @pytest.mark.parametrize("median", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_rows_equal_scalar_calls(self, k, median):
        batched = discrete_gamma_rates(self.ALPHAS, k, median=median)
        assert batched.shape == (len(self.ALPHAS), k)
        scalar = np.stack([discrete_gamma_rates(a, k, median=median) for a in self.ALPHAS])
        np.testing.assert_array_equal(batched, scalar)

    def test_clamp_ends(self):
        rates = discrete_gamma_rates(self.ALPHAS, 4)
        np.testing.assert_array_equal(rates[0], rates[1])    # 0.001 -> 0.02
        np.testing.assert_array_equal(rates[-1], rates[-2])  # 5000 -> 1000

    def test_scalar_shapes_kept(self):
        assert discrete_gamma_rates(0.7, 4).shape == (4,)
        assert discrete_gamma_rates(np.float64(0.7), 4).shape == (4,)
        assert discrete_gamma_rates([0.7], 4).shape == (1, 4)
