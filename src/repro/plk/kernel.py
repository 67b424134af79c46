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
  Newton-Raphson iteration (no tree re-traversal).  These take the
  ``(K, m, states)`` layout and are the reference; the partition stack
  runs the same algebra as :func:`branch_table` (the sumtable as
  ``(m, K * states)``) + :func:`table_slopes` + :func:`slope_derivatives`,
  where one Newton round is an exp and one GEMM, the category sum
  happening inside the contraction.

Array layout: CLVs are ``(K, m, states)`` C-contiguous, category-major, so
every operation is a batched BLAS matmul over the pattern axis and a worker
thread's pattern slice is a view, never a copy.

Partition stacks: every primitive also accepts leading partition axes —
CLVs ``(..., K, m, states)``, tip matrices ``(..., m, states)``, scaling
counters ``(..., m)``, transition matrices ``(..., K, states, states)`` and
eigensystems, rates, frequencies, weights, branch lengths and pinv with the
same leading axes — and the reductions then return one value per
partition.  One call over a ``(P, K, m, states)`` stack replaces P calls,
which at a few hundred patterns per partition are almost all dispatch
(:mod:`repro.plk.stacking`).  Calls without leading axes keep their
unbatched shapes and scalar results.

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

import math

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
    "branch_table",
    "branch_coefficients",
    "table_site_likelihoods",
    "table_slopes",
    "slope_derivatives",
    "slope_derivatives_pinv",
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


def propagate(p: np.ndarray, clv: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Move a conditional vector across a branch: ``out[...,k,m,s] =
    sum_t p[...,k,s,t] * clv[...,k,m,t]``.

    ``clv`` may be a tip indicator matrix ``(..., m, states)`` (categories
    do not differentiate tips; one dimension fewer than ``p``) or a full
    CLV ``(..., K, m, states)``.  With ``transposed``, ``p`` holds the
    matrices with their last two axes already swapped (C-contiguous: the
    layout the matmul reads), which saves a caller that reuses one P(t)
    across calls — the stack's cache — a copy per call.
    """
    pt = p if transposed else np.ascontiguousarray(np.swapaxes(p, -1, -2))
    if clv.ndim < p.ndim:
        return np.matmul(clv[..., np.newaxis, :, :], pt)
    return np.matmul(clv, pt)


def newview(
    p1: np.ndarray,
    clv1: np.ndarray,
    scale1: np.ndarray | None,
    p2: np.ndarray,
    clv2: np.ndarray,
    scale2: np.ndarray | None,
    out: np.ndarray | None = None,
    transposed: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One pruning step: the CLV of a parent from its two children.

    Parameters
    ----------
    p1, p2:
        ``(..., K, states, states)`` transition matrices of the child
        branches (their transposes with ``transposed``).
    clv1, clv2:
        Child CLVs ``(..., K, m, states)`` or tip matrices
        ``(..., m, states)``.
    scale1, scale2:
        Child per-pattern scaling counters ``(..., m)`` (None for tips).
    out:
        Optional preallocated ``(..., K, m, states)`` output buffer.

    Returns
    -------
    (clv, scale): the parent CLV and its accumulated scaling counter.
    """
    left = propagate(p1, clv1, transposed)
    right = propagate(p2, clv2, transposed)
    if out is None:
        result = left
        np.multiply(left, right, out=result)
    else:
        np.multiply(left, right, out=out)
        result = out
    scale = np.zeros(result.shape[:-3] + result.shape[-2:-1], dtype=np.int32)
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
    if result.size == 0:
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
    maxima = result.max(axis=(-3, -1))
    tiny = (maxima < SCALE_THRESHOLD) & (maxima > 0.0)
    zero = (maxima <= 0.0) & ~inherited
    if tiny.any():
        # Multiplying by 1.0 or by a power of two is exact, so the
        # untouched patterns keep their bits.
        factor = np.where(tiny, SCALE_FACTOR, 1.0)
        result *= factor[..., np.newaxis, :, np.newaxis]
        scale[tiny] += 1
    if zero.any():
        np.copyto(result, 1.0, where=zero[..., np.newaxis, :, np.newaxis])
        scale[zero] = ZERO_SCALE


def root_site_likelihoods(
    p: np.ndarray,
    clv_left: np.ndarray,
    clv_right: np.ndarray,
    frequencies: np.ndarray,
    transposed: bool = False,
) -> np.ndarray:
    """Per-pattern, category-averaged likelihoods at the virtual root."""
    moved = propagate(p, clv_right, transposed)    # (..., K, m, s)
    if clv_left.ndim < p.ndim:
        clv_left = clv_left[..., np.newaxis, :, :]
    weighted = clv_left * frequencies[..., np.newaxis, np.newaxis, :]
    per_cat = np.einsum("...kms,...kms->...km", weighted, moved)
    return per_cat.mean(axis=-2)


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


def _dot(weights: np.ndarray, values: np.ndarray):
    """``weights . values`` over the last axis: a float when unbatched,
    one value per leading index otherwise (a matmul, which matches
    ``np.dot`` row by row)."""
    if values.ndim == 1:
        return float(np.dot(weights, values))
    return np.matmul(weights[..., np.newaxis, :], values[..., :, np.newaxis])[..., 0, 0]


def weighted_log_sum(weights: np.ndarray, logs: np.ndarray):
    """``sum_i w_i * logs_i`` that treats -inf site log-likelihoods
    exactly: any -inf pattern with positive weight makes the total -inf;
    -inf patterns with zero weight are dropped (a plain ``dot`` would
    poison the sum with ``0 * -inf = NaN``).  Sums over the last axis:
    one value per partition of a stack."""
    neg = np.isneginf(logs)
    if not neg.any():
        return _dot(weights, logs)
    total = _dot(weights, np.where(neg, 0.0, logs))
    fatal = (neg & (np.asarray(weights) > 0)).any(axis=-1)
    if logs.ndim == 1:
        return float("-inf") if fatal else total
    total[fatal] = -np.inf
    return total


def evaluate(
    p: np.ndarray,
    clv_left: np.ndarray,
    scale_left: np.ndarray | None,
    clv_right: np.ndarray,
    scale_right: np.ndarray | None,
    frequencies: np.ndarray,
    weights: np.ndarray,
):
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
    if clv_left.ndim < u.ndim + 1:
        clv_left = clv_left[..., np.newaxis, :, :]
    if clv_right.ndim < u.ndim + 1:
        clv_right = clv_right[..., np.newaxis, :, :]
    piu = frequencies[..., :, np.newaxis] * u                    # (..., s, j)
    left = np.matmul(clv_left, piu[..., np.newaxis, :, :])       # (..., K, m, j)
    vt = np.ascontiguousarray(np.swapaxes(v, -1, -2))
    right = np.matmul(clv_right, vt[..., np.newaxis, :, :])      # (..., K, m, j)
    return left * right


def branch_table(
    clv_left: np.ndarray,
    clv_right: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    frequencies: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`make_sumtable` in the Newton layout ``(..., m, K * s)``:
    pattern-major, with the Gamma categories and eigenmodes flattened
    into one axis, so the category sum happens inside the contraction
    against a :func:`branch_coefficients` basis (one GEMM per round).
    ``out`` (a contiguous ``(..., m, K * s)`` array) receives the table
    in place of a new one."""
    table = make_sumtable(clv_left, clv_right, u, v, frequencies)  # (..., K, m, j)
    k, m, j = table.shape[-3:]
    if out is not None:
        np.copyto(out.reshape(table.shape[:-3] + (m, k, j)), np.swapaxes(table, -3, -2))
        return out
    table = np.ascontiguousarray(np.swapaxes(table, -3, -2))
    return table.reshape(table.shape[:-3] + (m, k * j))


def branch_coefficients(
    eigenvalues: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The epoch-fixed half of a Newton round on a :func:`branch_table`:
    ``coef[..., k*s + j] = r_k lambda_j`` (``(..., K*s)``) and
    ``powers[..., k*s + j, :] = [1, c, c^2] / K`` (``(..., K*s, 3)``),
    the derivative basis before its exponential (the category mean is
    folded in)."""
    coef = rates[..., :, np.newaxis] * eigenvalues[..., np.newaxis, :]
    coef = coef.reshape(coef.shape[:-2] + (-1,))
    k = rates.shape[-1]
    powers = np.empty(coef.shape + (3,))
    powers[..., 0] = 1.0 / k
    np.divide(coef, k, out=powers[..., 1])
    np.multiply(coef, powers[..., 1], out=powers[..., 2])
    return coef, powers


def table_site_likelihoods(
    table: np.ndarray, coef: np.ndarray, z, categories: int
) -> np.ndarray:
    """Per-pattern (still scaled) Gamma-mixture likelihoods from a
    :func:`branch_table` at branch length ``z``: one matmul."""
    expo = np.exp(coef * np.asarray(z)[..., np.newaxis])
    return np.matmul(table, expo[..., np.newaxis])[..., 0] / categories


def table_slopes(table: np.ndarray, coef: np.ndarray, powers: np.ndarray, z) -> np.ndarray:
    """``(..., m, 3)``: per-pattern site likelihoods and their first two
    branch-length derivatives from a :func:`branch_table` — an exp and
    ONE matmul against the ``(..., K*s, 3)`` basis ``[e, c e, c^2 e] / K``
    (``e = exp(c z)``; ``coef`` and ``powers`` from
    :func:`branch_coefficients`)."""
    expo = np.exp(coef * np.asarray(z)[..., np.newaxis])
    return np.matmul(table, powers * expo[..., np.newaxis])


def _exponentials(eigenvalues, rates, z):
    """``(coef, exp(coef * z))`` with ``coef[..., k, j] = r_k lambda_j``."""
    coef = rates[..., :, np.newaxis] * eigenvalues[..., np.newaxis, :]
    return coef, np.exp(coef * np.asarray(z)[..., np.newaxis, np.newaxis])


def sumtable_site_likelihoods(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    z,
) -> np.ndarray:
    """Per-pattern (still scaled) Gamma-mixture likelihoods from a
    sumtable at branch length ``z``."""
    _, expo = _exponentials(eigenvalues, rates, z)
    return np.einsum("...kmj,...kj->...m", sumtable, expo) / sumtable.shape[-3]


def _site_and_slopes(sumtable, eigenvalues, rates, z):
    """Site likelihoods and their first two branch-length derivatives:
    ONE matmul of the sumtable against the stacked ``[e, c e, c^2 e]``
    (``e = exp(c z)``), then the category mean."""
    coef, expo = _exponentials(eigenvalues, rates, z)
    basis = np.empty(expo.shape + (3,))                                 # (..., K, j, 3)
    basis[..., 0] = expo
    np.multiply(coef, expo, out=basis[..., 1])
    np.multiply(coef * coef, expo, out=basis[..., 2])
    sums = np.matmul(sumtable, basis).sum(axis=-3) / sumtable.shape[-3]  # (..., m, 3)
    return sums[..., 0], sums[..., 1], sums[..., 2]


def sumtable_loglikelihood(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    z,
    weights: np.ndarray,
    scale: np.ndarray | None,
):
    """Log-likelihood from a precomputed sumtable at branch length ``z``."""
    site = sumtable_site_likelihoods(sumtable, eigenvalues, rates, z)
    return weighted_log_sum(weights, scaled_log_likelihoods(site, scale))


def mix_invariant_loglikelihoods(
    site_gamma: np.ndarray,
    scale: np.ndarray | None,
    pinv,
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
    pinv = np.asarray(pinv, dtype=np.float64)[..., np.newaxis]
    log_gamma = scaled_log_likelihoods(site_gamma, scale) + np.log1p(-pinv)
    with np.errstate(divide="ignore"):
        log_inv = np.where(
            inv_prob > 0.0, np.log(pinv) + np.log(np.maximum(inv_prob, 1e-300)), -np.inf
        )
    return np.logaddexp(log_gamma, log_inv)


def _derivative_sums(weights, ratio1, ratio2, scale):
    """``(sum w r1, sum w (r2 - r1^2))`` after dropping undefined ratios."""
    _drop_undefined_ratios(ratio1, ratio2, scale)
    return _dot(weights, ratio1), _dot(weights, ratio2 - ratio1 * ratio1)


def branch_derivatives_pinv(
    sumtable: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    z,
    weights: np.ndarray,
    scale: np.ndarray | None,
    pinv,
    inv_prob: np.ndarray,
):
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
    g, g1, g2 = _site_and_slopes(sumtable, eigenvalues, rates, z)
    return _pinv_derivatives(g, g1, g2, weights, scale, pinv, inv_prob)


def slope_derivatives_pinv(slopes, weights, scale, pinv, inv_prob):
    """:func:`branch_derivatives_pinv` from :func:`table_slopes` output."""
    return _pinv_derivatives(
        slopes[..., 0], slopes[..., 1], slopes[..., 2], weights, scale, pinv, inv_prob
    )


def _pinv_derivatives(g, g1, g2, weights, scale, pinv, inv_prob):
    if scale is not None:
        unscale = np.exp(-scale.astype(np.float64) * LOG_SCALE_FACTOR)
        g = g * unscale
        g1 = g1 * unscale
        g2 = g2 * unscale
    pinv = np.asarray(pinv, dtype=np.float64)[..., np.newaxis]
    q = 1.0 - pinv
    site = q * g + pinv * inv_prob
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio1 = q * g1 / site
        ratio2 = q * g2 / site
    return _derivative_sums(weights, ratio1, ratio2, scale)


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
    z,
    weights: np.ndarray,
    scale: np.ndarray | None = None,
):
    """First and second derivative of the log-likelihood w.r.t. the branch
    length, from the sumtable (one Newton-Raphson iteration's work).

    Ordinary scaling counters cancel in the ratios l'/l and l''/l; the
    counter array is consulted only to drop patterns carrying the
    :data:`ZERO_SCALE` dead sentinel (their flushed CLV dummies would
    otherwise contribute plausible-looking finite ratios).
    """
    site, d1, d2 = _site_and_slopes(sumtable, eigenvalues, rates, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio1 = d1 / site
        ratio2 = d2 / site
    return _derivative_sums(weights, ratio1, ratio2, scale)


def slope_derivatives(
    slopes: np.ndarray,
    live_weights: np.ndarray,
    weights: np.ndarray,
    scale: np.ndarray | None,
):
    """:func:`branch_derivatives` from :func:`table_slopes` output: one
    ratio ``[l'/l, l''/l]`` and ONE weighted matmul.

    ``live_weights`` are the pattern weights with the dead
    (:data:`ZERO_SCALE`) patterns zeroed, so no per-call dead scan is
    needed: a dead pattern's flushed dummies give finite ratios that
    meet weight 0.  Should the sums come out non-finite (a pattern whose
    likelihood is exactly 0 without the sentinel), the same values are
    recomputed with :func:`branch_derivatives`'s drop-undefined-ratios
    handling, so the result is always that function's.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = slopes[..., 1:] / slopes[..., :1]                  # (..., m, 2)
        ratios[..., 1] -= ratios[..., 0] * ratios[..., 0]
        sums = np.matmul(live_weights[..., np.newaxis, :], ratios)[..., 0, :]
    if math.isfinite(sums.sum()):
        return sums[..., 0], sums[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio1 = slopes[..., 1] / slopes[..., 0]
        ratio2 = slopes[..., 2] / slopes[..., 0]
    return _derivative_sums(weights, ratio1, ratio2, scale)
