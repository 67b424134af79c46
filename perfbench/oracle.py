"""An independent log-likelihood for JC69 + discrete Gamma (4 mean
categories): plain Felsenstein pruning over raw alignment columns, with
its own Gamma discretisation, sharing no code with ``repro``'s kernels,
pattern compression or models.  It reads only the topology and branch
lengths through the public ``Tree`` accessors.
"""
from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaincinv

__all__ = ["gamma_means", "jc69_gamma_loglikelihood"]

_CODES = np.full(256, -1, dtype=np.int64)
for _i, _c in enumerate(b"ACGT"):
    _CODES[_c] = _i


def gamma_means(alpha: float, k: int = 4) -> np.ndarray:
    """Yang (1994) equal-probability category means of Gamma(alpha, alpha)."""
    cuts = np.concatenate([[0.0], gammaincinv(alpha, np.arange(1, k) / k), [np.inf]])
    cdf = np.where(np.isinf(cuts), 1.0, gammainc(alpha + 1.0, np.where(np.isinf(cuts), 0.0, cuts)))
    rates = k * np.diff(cdf)
    return rates / rates.mean()


def jc69_gamma_loglikelihood(rows: list[bytes], tree, lengths: np.ndarray,
                             alpha: float = 1.0) -> float:
    """Log-likelihood of the columns in ``rows`` (one ``ACGT`` byte string
    per leaf id) on ``tree`` with per-edge ``lengths``."""
    rates = gamma_means(alpha)
    tips = [_CODES[np.frombuffer(r, dtype=np.uint8)] for r in rows]
    n_sites = tips[0].size

    def partial(node: int, parent: int) -> np.ndarray:
        if tree.is_leaf(node):
            out = np.zeros((rates.size, n_sites, 4))
            out[:, np.arange(n_sites), tips[node]] = 1.0
            return out
        out = np.ones((rates.size, n_sites, 4))
        for child in tree.neighbors(node):
            if child == parent:
                continue
            t = lengths[tree.edge_between(node, child)]
            below = partial(child, node)
            decay = np.exp(-4.0 / 3.0 * rates * t)[:, None, None]
            # JC69: P = 1/4 + decay * (I - 1/4), applied without a matrix.
            out *= 0.25 * below.sum(axis=2, keepdims=True) * (1.0 - decay) + decay * below
        return out

    root = tree.n_taxa  # an inner node
    site = 0.25 * partial(root, -1).sum(axis=2).mean(axis=0)
    return float(np.log(site).sum())
