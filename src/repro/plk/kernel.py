"""Vectorized likelihood-kernel primitives (newview / evaluate / sumtable).

These four array-level operations are the PLK's inner loops — the code the
paper parallelizes over alignment patterns:

* :func:`newview` — recompute one inner node's conditional likelihood
  vector (CLV) from its two children (one pruning step).
* :func:`evaluate` — combine the two CLVs meeting at the virtual root into
  the log-likelihood score (the reduction / synchronization point).
* :func:`make_sumtable` + :func:`branch_derivatives` — RAxML's
  ``makenewz`` machinery: precompute per-site eigenbasis coefficients for a
  branch, then obtain the log-likelihood and its first and second
  derivatives w.r.t. the branch length in O(m * K * states) per
  Newton-Raphson iteration (no tree re-traversal).

Array layout: CLVs are ``(K, m, states)`` C-contiguous, category-major, so
every operation is a batched BLAS matmul over the pattern axis and a worker
thread's pattern slice is a view, never a copy (see the HPC guide notes on
views and cache-friendly contiguity).

Numerical scaling: per-pattern likelihood entries underflow for deep trees;
whenever a pattern's CLV max drops below 2^-256 the pattern is rescaled by
2^+256 and a per-pattern scaling counter increments (RAxML's scheme).  The
counters are additive along the tree and enter the final score as
``-count * 256 * ln 2``.

Impossible patterns: a pattern whose CLV is exactly all-zero (conflicting
hard state assignments) has likelihood exactly 0 — log-likelihood -inf.
Such a pattern must NOT be rescaled (0 * 2^256 stays 0 while the counter
would grow, silently turning -inf into a finite ``-count * 256 ln 2``).
Instead :func:`rescale` marks it with the :data:`ZERO_SCALE` sentinel in
the scaling counter and flushes its CLV entries to 1.0, so (a) every
log-domain consumer recognizes it via :func:`zero_pattern_mask` and emits
an explicit -inf, and (b) a single dead pattern does not permanently
defeat the contiguous ``result.min()`` fast path at every ancestor node.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "SCALE_THRESHOLD",
    "SCALE_FACTOR",
    "LOG_SCALE_FACTOR",
    "ZERO_SCALE",
    "propagate",
    "newview",
    "rescale",
    "root_site_likelihoods",
    "zero_pattern_mask",
    "combine_scales",
    "scaled_log_likelihoods",
    "weighted_log_sum",
    "evaluate",
    "make_sumtable",
    "branch_derivatives",
    "branch_derivatives_pinv",
    "mix_invariant_loglikelihoods",
    "sumtable_loglikelihood",
]

SCALE_FACTOR = np.float64(2.0) ** 256
SCALE_THRESHOLD = np.float64(2.0) ** -256
LOG_SCALE_FACTOR = 256.0 * np.log(2.0)

#: Scaling-counter sentinel for an impossible (all-zero) pattern.  Chosen
#: so that (a) the sum of two children's counters — sentinel plus any
#: realistic accumulated count, or two sentinels — still exceeds
#: ``_ZERO_CUTOFF`` without overflowing int32, and (b) a consumer that
#: misses the explicit dead check still computes ``log(1) - 2^20 * 177.4``
#: ≈ -1.9e8, i.e. an effectively impossible pattern rather than a silently
#: plausible one.
ZERO_SCALE = np.int32(1 << 20)
_ZERO_CUTOFF = int(1 << 19)

MIN_BRANCH = 1e-8
MAX_BRANCH = 50.0


def zero_pattern_mask(scale: np.ndarray | None) -> np.ndarray | None:
    """Boolean mask of patterns marked impossible (likelihood exactly 0)
    by :func:`rescale`, or ``None`` when ``scale`` is ``None``.

    The sentinel survives the additive counter combination of
    :func:`newview` (child sums stay above the detection cutoff), so the
    mask is valid at any tree depth.
    """
    if scale is None:
        return None
    return scale >= _ZERO_CUTOFF


def propagate(p: np.ndarray, clv: np.ndarray) -> np.ndarray:
    """Move a conditional vector across a branch: ``out[k,m,s] =
    sum_t p[k,s,t] * clv[k,m,t]``.

    ``clv`` may be a tip indicator matrix ``(m, states)`` (categories do
    not differentiate tips) or a full CLV ``(K, m, states)``.
    """
    pt = np.ascontiguousarray(p.transpose(0, 2, 1))
    if clv.ndim == 2:
        return np.matmul(clv[np.newaxis, :, :], pt)
    return np.matmul(clv, pt)


def newview(
    p1: np.ndarray,
    clv1: np.ndarray,
    scale1: np.ndarray | None,
    p2: np.ndarray,
    clv2: np.ndarray,
    scale2: np.ndarray | None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One pruning step: the CLV of a parent from its two children.

    Parameters
    ----------
    p1, p2:
        ``(K, states, states)`` transition matrices of the child branches.
    clv1, clv2:
        Child CLVs ``(K, m, states)`` or tip matrices ``(m, states)``.
    scale1, scale2:
        Child per-pattern scaling counters ``(m,)`` (None for tips).
    out:
        Optional preallocated ``(K, m, states)`` output buffer.

    Returns
    -------
    (clv, scale): the parent CLV and its accumulated scaling counter.
    """
    left = propagate(p1, clv1)
    right = propagate(p2, clv2)
    if out is None:
        result = left
        np.multiply(left, right, out=result)
    else:
        np.multiply(left, right, out=out)
        result = out
    m = result.shape[1]
    scale = np.zeros(m, dtype=np.int32)
    if scale1 is not None:
        scale += scale1
    if scale2 is not None:
        scale += scale2
    rescale(result, scale)
    return result, scale


def rescale(result: np.ndarray, scale: np.ndarray) -> None:
    """Underflow handling for :func:`newview`: rescale tiny patterns in
    place and mark impossible ones.

    * Underflowing patterns (0 < max < 2^-256) are multiplied by 2^256 and
      their counter increments (RAxML's scheme).
    * Patterns whose maximum is exactly 0 are IMPOSSIBLE, not tiny:
      rescaling cannot revive them (0 * 2^256 == 0) while the growing
      counter would silently turn their -inf log-likelihood into a finite
      ``-count * 256 ln 2``.  They are marked with :data:`ZERO_SCALE` and
      their entries flushed to 1.0 so the contiguous ``result.min()`` fast
      path below stays effective at every ancestor (a single permanent
      zero entry would otherwise force the per-pattern reduction on every
      call for the rest of the traversal).
    * Patterns already marked dead by a child keep the canonical sentinel
      (the additive counter combination in :func:`newview` perturbs it).

    Fast path: CLV entries are non-negative, so if the global minimum is
    above the threshold no pattern can need scaling — one contiguous
    reduction instead of the per-pattern axis reduction.  Zero-width
    slices occur when a worker owns no patterns of a short partition —
    the exact situation behind the paper's idle threads.
    """
    m = result.shape[1]
    if m == 0:
        return
    inherited = scale >= _ZERO_CUTOFF
    if inherited.any():
        # Canonicalize: a dead child's sentinel arrives summed with the
        # sibling's ordinary counter; pin it back to exactly ZERO_SCALE.
        scale[inherited] = ZERO_SCALE
        # The dead columns were flushed to 1.0 when first detected, so
        # their propagated products are healthy and min() stays a valid
        # fast-path guard.
    if result.min() >= SCALE_THRESHOLD:
        return
    maxima = result.max(axis=(0, 2))
    tiny = (maxima < SCALE_THRESHOLD) & (maxima > 0.0)
    zero = (maxima <= 0.0) & ~inherited
    if tiny.any():
        result[:, tiny, :] *= SCALE_FACTOR
        scale[tiny] += 1
    if zero.any():
        result[:, zero, :] = 1.0
        scale[zero] = ZERO_SCALE


def root_site_likelihoods(
    p: np.ndarray,
    clv_left: np.ndarray,
    clv_right: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """Per-pattern, category-averaged likelihoods at the virtual root."""
    moved = propagate(p, clv_right)            # (K, m, s)
    if clv_left.ndim == 2:
        weighted = clv_left[np.newaxis, :, :] * frequencies
    else:
        weighted = clv_left * frequencies
    per_cat = np.einsum("kms,kms->km", weighted, moved)
    return per_cat.mean(axis=0)


def combine_scales(
    scale_a: np.ndarray | None, scale_b: np.ndarray | None
) -> np.ndarray | None:
    """Additive combination of two per-pattern scaling counters (either
    may be ``None`` for a tip)."""
    if scale_a is None:
        return scale_b
    if scale_b is None:
        return scale_a
    return scale_a + scale_b


def scaled_log_likelihoods(
    site: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """Per-pattern log-likelihoods from (possibly scaled) site likelihoods.

    THE log-domain entry point shared by :func:`evaluate`,
    :func:`sumtable_loglikelihood`, :func:`mix_invariant_loglikelihoods`
    and :meth:`~repro.plk.likelihood.PartitionLikelihood.site_loglikelihoods`,
    so zero site likelihoods behave identically everywhere:

    * ``site <= 0`` (exact zeros, or tiny negatives from einsum rounding)
      maps to -inf without emitting ``RuntimeWarning`` or NaN;
    * patterns carrying the :data:`ZERO_SCALE` sentinel are forced to
      -inf explicitly — their stored CLV values are the flushed dummies,
      not likelihoods;
    * ordinary patterns get the usual ``log(site) - count * 256 ln 2``
      unwinding of the scaling counters.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(np.maximum(site, 0.0))
    if scale is not None:
        dead = scale >= _ZERO_CUTOFF
        if dead.any():
            logs = np.where(dead, -np.inf, logs - scale * LOG_SCALE_FACTOR)
        else:
            logs = logs - scale * LOG_SCALE_FACTOR
    return logs


def weighted_log_sum(weights: np.ndarray, logs: np.ndarray) -> float:
    """``sum_i w_i * logs_i`` that treats -inf site log-likelihoods
    exactly: any -inf pattern with positive weight makes the total -inf;
    -inf patterns with zero weight are dropped (a plain ``dot`` would
    poison the sum with ``0 * -inf = NaN``)."""
    neg = np.isneginf(logs)
    if not neg.any():
        return float(np.dot(weights, logs))
    if np.any(np.asarray(weights)[neg] > 0):
        return float("-inf")
    return float(np.dot(weights, np.where(neg, 0.0, logs)))


def evaluate(
    p: np.ndarray,
    clv_left: np.ndarray,
    scale_left: np.ndarray | None,
    clv_right: np.ndarray,
    scale_right: np.ndarray | None,
    frequencies: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Log-likelihood at the virtual root on the branch joining
    ``clv_left`` and ``clv_right`` (transition matrix ``p`` for the full
    branch length).  This is the reduction the paper identifies as the
    natural synchronization point."""
    site = root_site_likelihoods(p, clv_left, clv_right, frequencies)
    logs = scaled_log_likelihoods(site, combine_scales(scale_left, scale_right))
    return weighted_log_sum(weights, logs)


def make_sumtable(
    clv_left: np.ndarray,
    clv_right: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """Eigenbasis coefficient table for Newton-Raphson on one branch.

    With ``P_k(z) = U exp(L r_k z) V`` the root-site likelihood is

        l_i(z) = (1/K) sum_k sum_j T[k,i,j] * exp(lambda_j r_k z)

    where ``T[k,i,j] = (sum_s pi_s clvL[k,i,s] U[s,j]) *
    (sum_t V[j,t] clvR[k,i,t])`` — this function computes T once; every NR
    iteration then costs only an exp + two weighted sums (exactly RAxML's
    ``makenewz`` split between sumtable setup and the core iteration).
    """
    if clv_left.ndim == 2:
        clv_left = clv_left[np.newaxis]
    if clv_right.ndim == 2:
        clv_right = clv_right[np.newaxis]
    piu = frequencies[:, np.newaxis] * u          # (s, j)
    left = np.matmul(clv_left, piu)               # (K, m, j)
    right = np.matmul(clv_right, np.ascontiguousarray(v.T))  # (K, m, j)
    return left * right


def sumtable_site_likelihoods(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    z: float,
) -> np.ndarray:
    """Per-pattern (still scaled) Gamma-mixture likelihoods from a
    sumtable at branch length ``z``."""
    expo = np.exp(np.outer(rates, eigenvalues) * z)    # (K, j)
    return np.einsum("kmj,kj->m", sumtable, expo) / sumtable.shape[0]


def sumtable_loglikelihood(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    z: float,
    weights: np.ndarray,
    scale: np.ndarray | None,
) -> float:
    """Log-likelihood from a precomputed sumtable at branch length ``z``."""
    site = sumtable_site_likelihoods(sumtable, eigenvalues, rates, z)
    return weighted_log_sum(weights, scaled_log_likelihoods(site, scale))


def mix_invariant_loglikelihoods(
    site_gamma: np.ndarray,
    scale: np.ndarray | None,
    pinv: float,
    inv_prob: np.ndarray,
) -> np.ndarray:
    """Per-pattern log-likelihoods under the +I mixture.

    ``site_gamma`` are the (scaled) Gamma-mixture site likelihoods,
    ``scale`` the per-pattern scaling counters, ``inv_prob[i]`` the prior
    probability mass of the states compatible with every tip at pattern i
    (zero for variable patterns).  The mixture is

        l_i = (1 - pinv) * gamma_i + pinv * inv_prob_i

    computed in log space (``logaddexp``) so deep-tree scaling survives.
    The Gamma component goes through :func:`scaled_log_likelihoods` — the
    same zero/dead handling as the unmixed paths — so a pattern whose
    Gamma likelihood is exactly 0 contributes only its invariant mass.
    """
    log_gamma = scaled_log_likelihoods(site_gamma, scale) + np.log1p(-pinv)
    with np.errstate(divide="ignore"):
        log_inv = np.where(
            inv_prob > 0.0, np.log(pinv) + np.log(np.maximum(inv_prob, 1e-300)), -np.inf
        )
    return np.logaddexp(log_gamma, log_inv)


def branch_derivatives_pinv(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    z: float,
    weights: np.ndarray,
    scale: np.ndarray | None,
    pinv: float,
    inv_prob: np.ndarray,
) -> tuple[float, float]:
    """Branch-length derivatives under the +I mixture.

    Only the Gamma component depends on the branch length, so with
    ``l = (1-p) g + p c`` (c constant per pattern):

        dlnL/dz  = sum_i w_i (1-p) g'_i / l_i
        d2lnL/dz = sum_i w_i [ (1-p) g''_i / l_i - ((1-p) g'_i / l_i)^2 ]

    The Gamma terms carry the scaling factor 2^(256 * c_i); it is unwound
    here (patterns scaled once or more have vanishing Gamma likelihoods in
    absolute terms, which is exactly when the invariant component
    dominates).
    """
    coef = np.outer(rates, eigenvalues)
    expo = np.exp(coef * z)
    k = sumtable.shape[0]
    g = np.einsum("kmj,kj->m", sumtable, expo) / k
    g1 = np.einsum("kmj,kj->m", sumtable, coef * expo) / k
    g2 = np.einsum("kmj,kj->m", sumtable, coef * coef * expo) / k
    if scale is not None:
        unscale = np.exp(-scale.astype(np.float64) * LOG_SCALE_FACTOR)
        g = g * unscale
        g1 = g1 * unscale
        g2 = g2 * unscale
    q = 1.0 - pinv
    site = q * g + pinv * inv_prob
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio1 = q * g1 / site
        ratio2 = q * g2 / site
    _drop_undefined_ratios(ratio1, ratio2, scale)
    dlnl = float(np.dot(weights, ratio1))
    d2lnl = float(np.dot(weights, ratio2 - ratio1 * ratio1))
    return dlnl, d2lnl


def _drop_undefined_ratios(
    ratio1: np.ndarray, ratio2: np.ndarray, scale: np.ndarray | None
) -> None:
    """Zero the derivative contributions of patterns whose likelihood is
    exactly 0 (site == 0 makes l'/l undefined; a dead pattern's -inf
    log-likelihood is flat in the branch length, so 0 is the correct
    contribution — and it keeps one impossible pattern from poisoning the
    whole Newton step with NaN/inf)."""
    dead = zero_pattern_mask(scale)
    bad = ~(np.isfinite(ratio1) & np.isfinite(ratio2))
    if dead is not None:
        bad |= dead
    if bad.any():
        ratio1[bad] = 0.0
        ratio2[bad] = 0.0


def branch_derivatives(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    z: float,
    weights: np.ndarray,
    scale: np.ndarray | None = None,
) -> tuple[float, float]:
    """First and second derivative of the log-likelihood w.r.t. the branch
    length, from the sumtable (one Newton-Raphson iteration's work).

    Ordinary scaling counters cancel in the ratios l'/l and l''/l; the
    counter array is consulted only to drop patterns carrying the
    :data:`ZERO_SCALE` dead sentinel (their flushed CLV dummies would
    otherwise contribute plausible-looking finite ratios).
    """
    coef = np.outer(rates, eigenvalues)               # (K, j) = r_k lambda_j
    expo = np.exp(coef * z)
    k = sumtable.shape[0]
    site = np.einsum("kmj,kj->m", sumtable, expo) / k
    d1 = np.einsum("kmj,kj->m", sumtable, coef * expo) / k
    d2 = np.einsum("kmj,kj->m", sumtable, coef * coef * expo) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio1 = d1 / site
        ratio2 = d2 / site
    _drop_undefined_ratios(ratio1, ratio2, scale)
    dlnl = float(np.dot(weights, ratio1))
    d2lnl = float(np.dot(weights, ratio2 - ratio1 * ratio1))
    return dlnl, d2lnl
