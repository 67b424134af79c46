"""Time-reversible substitution models (the Q matrix of Section III).

A general time-reversible (GTR) model is parameterized by a symmetric
exchangeability matrix ``S`` (given as the strict upper triangle, with the
last rate fixed to 1.0 as the reference, exactly as RAxML does) and the
stationary base frequencies ``pi``.  The instantaneous rate matrix is

    Q[i, j] = S[i, j] * pi[j]      (i != j)
    Q[i, i] = -sum_{j != i} Q[i, j]

normalized so the expected substitution rate at stationarity is one
(``-sum_i pi_i Q_ii == 1``), which makes branch lengths expected
substitutions per site.

DNA convenience constructors cover JC69, K80, HKY85 and full GTR.  For
protein data the paper uses empirical viral alignments; we provide the
Poisson (equal-rates) amino-acid model plus a deterministic synthetic
heterogeneous 20-state model (``synthetic_aa``) as the stand-in for
empirical matrices like WAG/JTT — the load-balance behaviour depends only
on the 20x20 dimensionality, not the specific empirical rates (DESIGN.md
substitution table).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .datatypes import AA, DNA, DataType

__all__ = ["SubstitutionModel", "n_exchange_rates", "q_matrices"]


def n_exchange_rates(states: int) -> int:
    """Number of free exchangeability entries (strict upper triangle)."""
    return states * (states - 1) // 2


@functools.lru_cache(maxsize=None)
def _symmetric_index(states: int) -> np.ndarray:
    """``(s, s)`` index into a rate vector with a zero appended: entry
    ``(i, j)`` names the exchangeability of states i and j, the diagonal
    names the zero."""
    index = np.full((states, states), n_exchange_rates(states))
    rows, cols = np.triu_indices(states, k=1)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    index.setflags(write=False)
    return index


def q_matrices(rates: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
    """Normalised rate matrices of ``A`` models of one state count:
    ``rates`` ``(A, s(s-1)/2)`` and ``frequencies`` ``(A, s)`` give
    ``(A, s, s)``.  The one Q builder (:meth:`SubstitutionModel.q_matrix`
    is the case A = 1): every step is elementwise or a reduction per
    matrix, so a matrix does not depend on the batch it is built in.  The
    normaliser ``mu`` is one ``matmul`` of each frequency row with the
    strided diagonal *view* — the BLAS dot a one-model ``np.dot(pi,
    np.diag(q))`` makes, so the bits are those of that one-model form."""
    a, s = frequencies.shape
    if rates.shape != (a, n_exchange_rates(s)):
        raise ValueError(f"expected {n_exchange_rates(s)} rates per model, got {rates.shape}")
    padded = np.concatenate([rates, np.zeros((a, 1))], axis=1)
    q = np.take(padded, _symmetric_index(s), axis=1) * frequencies[:, np.newaxis, :]
    diag = np.arange(s)
    q[:, diag, diag] = -q.sum(axis=2)
    # Normalize to one expected substitution per unit time.
    mu = -np.matmul(
        frequencies[:, np.newaxis, :], np.diagonal(q, axis1=1, axis2=2)[:, :, np.newaxis]
    )
    return q / mu


@dataclass(frozen=True)
class SubstitutionModel:
    """An immutable reversible substitution model for one partition.

    Attributes
    ----------
    datatype:
        The state space (DNA or AA).
    rates:
        Strict-upper-triangle exchangeabilities, length ``s(s-1)/2``.  By
        convention the last entry is the reference and equals 1.0 after
        :meth:`normalized`.
    frequencies:
        Stationary state frequencies, positive, summing to 1.
    """

    datatype: DataType
    rates: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=np.float64).copy()
        freqs = np.asarray(self.frequencies, dtype=np.float64).copy()
        s = self.datatype.states
        if rates.shape != (n_exchange_rates(s),):
            raise ValueError(
                f"{self.datatype.name}: need {n_exchange_rates(s)} rates, "
                f"got {rates.shape}"
            )
        if freqs.shape != (s,):
            raise ValueError(f"need {s} frequencies, got {freqs.shape}")
        # NaN fails both comparisons, so it is refused with inf and <= 0.
        if not ((rates > 0) & (rates < np.inf)).all():
            raise ValueError("exchangeability rates must be finite and positive")
        if np.any(freqs <= 0):
            raise ValueError("frequencies must be positive")
        if not np.isclose(freqs.sum(), 1.0, atol=1e-8):
            raise ValueError(f"frequencies sum to {freqs.sum()}, not 1")
        freqs = freqs / freqs.sum()
        rates.setflags(write=False)
        freqs.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "frequencies", freqs)

    @property
    def states(self) -> int:
        return self.datatype.states

    def normalized(self) -> "SubstitutionModel":
        """Scale rates so the last (reference) exchangeability is 1.0."""
        return SubstitutionModel(
            self.datatype, self.rates / self.rates[-1], self.frequencies
        )

    def with_frequencies(self, freqs: np.ndarray) -> "SubstitutionModel":
        return SubstitutionModel(self.datatype, self.rates, freqs)

    def with_rate(self, index: int, value: float) -> "SubstitutionModel":
        """Copy with one exchangeability replaced (Brent optimizes these
        one at a time, like RAxML)."""
        rates = self.rates.copy()
        rates[index] = value
        return SubstitutionModel(self.datatype, rates, self.frequencies)

    def q_matrix(self) -> np.ndarray:
        """The normalized instantaneous rate matrix Q (states x states)."""
        return q_matrices(self.rates[np.newaxis], self.frequencies[np.newaxis])[0]

    @classmethod
    def frozen(cls, datatype: DataType, rates: np.ndarray, frequencies: np.ndarray
               ) -> "SubstitutionModel":
        """A model over read-only copies of ``rates`` and ``frequencies``
        taken as they are: no check and no renormalisation, so the model
        reads back exactly the arrays a likelihood stack holds (which
        were checked when they were written)."""
        model = object.__new__(cls)
        object.__setattr__(model, "datatype", datatype)
        for name, values in (("rates", rates), ("frequencies", frequencies)):
            values = np.array(values, dtype=np.float64)
            values.setflags(write=False)
            object.__setattr__(model, name, values)
        return model

    # ------------------------------------------------------------------
    # Named constructors
    # ------------------------------------------------------------------

    @classmethod
    def jc69(cls) -> "SubstitutionModel":
        """Jukes-Cantor 1969: equal rates, equal frequencies."""
        return cls(DNA, np.ones(6), np.full(4, 0.25))

    @classmethod
    def k80(cls, kappa: float = 2.0) -> "SubstitutionModel":
        """Kimura 1980: transition/transversion ratio ``kappa``, equal
        frequencies.  State order ACGT; transitions are A<->G and C<->T."""
        rates = np.array([1.0, kappa, 1.0, 1.0, kappa, 1.0])
        return cls(DNA, rates, np.full(4, 0.25))

    @classmethod
    def hky85(cls, kappa: float, frequencies: np.ndarray) -> "SubstitutionModel":
        """Hasegawa-Kishino-Yano 1985: K80 rates with free frequencies."""
        rates = np.array([1.0, kappa, 1.0, 1.0, kappa, 1.0])
        return cls(DNA, rates, np.asarray(frequencies, dtype=np.float64))

    @classmethod
    def gtr(cls, rates: np.ndarray, frequencies: np.ndarray) -> "SubstitutionModel":
        """Full GTR from 6 exchangeabilities (AC, AG, AT, CG, CT, GT) and
        4 frequencies."""
        return cls(
            DNA,
            np.asarray(rates, dtype=np.float64),
            np.asarray(frequencies, dtype=np.float64),
        )

    @classmethod
    def poisson_aa(cls) -> "SubstitutionModel":
        """The Poisson protein model: all exchangeabilities equal, uniform
        frequencies.  The amino-acid analogue of JC69."""
        return cls(AA, np.ones(n_exchange_rates(20)), np.full(20, 0.05))

    @classmethod
    def synthetic_aa(cls, seed: int = 0) -> "SubstitutionModel":
        """A deterministic heterogeneous 20-state model standing in for an
        empirical matrix (WAG/JTT-like spread of exchangeabilities and
        non-uniform frequencies).  Rates are log-normal with ~1.5 orders of
        magnitude spread, matching the qualitative shape of empirical
        protein matrices."""
        rng = np.random.default_rng(seed + 0x5EED)
        rates = np.exp(rng.normal(0.0, 1.4, size=n_exchange_rates(20)))
        rates /= rates[-1]
        freqs = rng.dirichlet(np.full(20, 8.0))
        return cls(AA, rates, freqs)

    @classmethod
    def random_gtr(cls, seed: int = 0) -> "SubstitutionModel":
        """A deterministic random GTR model, for tests and simulation."""
        rng = np.random.default_rng(seed + 1234)
        rates = np.exp(rng.normal(0.0, 0.7, size=6))
        rates /= rates[-1]
        freqs = rng.dirichlet(np.full(4, 10.0))
        return cls(DNA, rates, freqs)
