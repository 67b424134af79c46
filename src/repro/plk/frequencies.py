"""Base-frequency estimation.

Two standard ways to set the stationary frequencies pi of a partition's
model (Section III: "the prior probabilities of observing the nucleotides
... can be determined empirically from the alignment"):

* :func:`empirical_frequencies` — the count estimate RAxML uses by
  default: average the (ambiguity-normalized) character indicators over
  all cells of the partition, weighting patterns by multiplicity.
* ML optimization — handled by
  :func:`repro.core.strategies.optimize_frequencies`, which Brent-optimizes
  the free frequency ratios one at a time per partition (batched across
  partitions under newPAR), using :func:`frequency_ratios` /
  :func:`ratios_to_frequencies` below as the parameterization: frequencies
  are ``x_i / sum(x)`` with the last ratio pinned to 1.
"""
from __future__ import annotations

import numpy as np

from .partition import PartitionData

__all__ = [
    "empirical_frequencies",
    "frequency_ratios",
    "ratios_to_frequencies",
]

_MIN_FREQ = 1e-4


def empirical_frequencies(data: PartitionData) -> np.ndarray:
    """Count-based stationary frequencies for one partition.

    Ambiguity codes contribute fractionally (an ``R`` adds half a count to
    A and to G); fully-ambiguous cells (gaps) contribute the same to every
    state and therefore only flatten the estimate slightly, matching
    standard practice.
    """
    tips = data.tip_states  # (n_taxa, m, s) indicators
    weights = data.weights.astype(np.float64)
    per_cell = tips / tips.sum(axis=2, keepdims=True)
    counts = np.einsum("nms,m->s", per_cell, weights)
    freqs = counts / counts.sum()
    freqs = np.maximum(freqs, _MIN_FREQ)
    return freqs / freqs.sum()


def frequency_ratios(frequencies: np.ndarray) -> np.ndarray:
    """Free-parameter view of a frequency vector: ratios against the last
    state (which is pinned to 1).  Rows of an ``(A, s)`` array are
    converted one per row."""
    frequencies = np.asarray(frequencies, dtype=np.float64)
    return frequencies[..., :-1] / frequencies[..., -1:]


def ratios_to_frequencies(ratios: np.ndarray) -> np.ndarray:
    """Inverse of :func:`frequency_ratios` (also row by row)."""
    ratios = np.asarray(ratios, dtype=np.float64)
    full = np.concatenate([ratios, np.ones(ratios.shape[:-1] + (1,))], axis=-1)
    full = np.maximum(full, _MIN_FREQ)
    return full / full.sum(axis=-1, keepdims=True)
