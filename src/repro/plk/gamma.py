"""Discrete Gamma rate heterogeneity (Yang 1994).

Different alignment columns evolve at different speeds.  The Gamma model
draws each site's rate from a Gamma(alpha, alpha) distribution (mean 1);
the discrete approximation splits the distribution into K equal-probability
categories and represents each by either its mean (default, what RAxML
uses) or its median.  The per-site likelihood is then the average of the
per-category likelihoods, which multiplies the kernel's work per column by
K (K = 4 throughout the paper).
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaincinv

__all__ = ["discrete_gamma_rates", "GAMMA_CATEGORIES"]

GAMMA_CATEGORIES = 4
_MIN_ALPHA = 0.02
_MAX_ALPHA = 1000.0


def discrete_gamma_rates(
    alpha, categories: int = GAMMA_CATEGORIES, median: bool = False
) -> np.ndarray:
    """Category rates of the discrete Gamma(alpha, alpha) model.

    Parameters
    ----------
    alpha:
        Shape parameter, or an array of them; small alpha = strong
        heterogeneity.  Clamped to RAxML's feasible interval [0.02, 1000].
    categories:
        Number of equal-probability categories, K.
    median:
        Use category medians instead of means.  Means are renormalized
        exactly; medians are rescaled to mean 1 (as in Yang 1994).

    Returns
    -------
    ``(K,)`` ascending rates with mean exactly 1 for a scalar ``alpha``;
    ``(A, K)``, one row per shape, for an array of ``A`` shapes.  Every
    row equals the scalar call bit for bit: the special functions are
    evaluated elementwise, so a whole partition stack costs one call of
    each instead of one per partition.

    >>> discrete_gamma_rates(0.5).round(4)
    array([0.0334, 0.2519, 0.8203, 2.8944])
    >>> discrete_gamma_rates([0.5, 2.0]).round(4)
    array([[0.0334, 0.2519, 0.8203, 2.8944],
           [0.2933, 0.655 , 1.07  , 1.9817]])
    """
    if categories < 1:
        raise ValueError("need at least one rate category")
    scalar = np.ndim(alpha) == 0
    alpha = np.clip(np.asarray(alpha, dtype=np.float64), _MIN_ALPHA, _MAX_ALPHA)
    alpha = alpha.reshape(-1, 1)                                    # (A, 1)
    k = categories
    if k == 1:
        rates = np.ones((alpha.shape[0], 1))
    elif median:
        mids = (np.arange(k) + 0.5) / k
        rates = gammaincinv(alpha, mids) / alpha
    else:
        # Quantile boundaries of Gamma(shape=alpha, rate=alpha): the rate
        # parameter cancels inside gammaincinv since scipy uses scale 1;
        # divide by alpha to convert.  The mean of Gamma(alpha, alpha)
        # over [a, b] with total prob 1/k is
        #   k * [ I(alpha+1, b*alpha) - I(alpha+1, a*alpha) ]
        # where I is the regularized lower incomplete gamma; the last
        # category's upper bound is infinite, where I is exactly 1.
        cuts = gammaincinv(alpha, np.arange(1, k) / k) / alpha      # (A, k-1)
        inner = gammainc(alpha + 1.0, cuts * alpha)
        upper = np.ones((alpha.shape[0], k))
        upper[:, :-1] = inner
        lower = np.zeros((alpha.shape[0], k))
        lower[:, 1:] = inner
        rates = k * (upper - lower)
    rates = np.maximum(rates, 1e-10)
    rates = rates / rates.mean(axis=-1, keepdims=True)
    return rates[0] if scalar else rates
