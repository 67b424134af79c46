"""Eigendecomposition of reversible rate matrices and P(t) computation.

For a reversible Q with stationary distribution pi, the similarity
transform ``B = D Q D^{-1}`` with ``D = diag(sqrt(pi))`` is symmetric, so Q
has a real eigensystem computable with the stable symmetric solver:

    B = W L W^T  (W orthogonal)  =>  Q = U L V,  U = D^{-1} W,  V = W^T D

and the transition matrix for elapsed time t is ``P(t) = U exp(L t) V``.

The decomposition also yields the branch-length derivative machinery used
by Newton-Raphson (Section III of the paper): since only the exponentials
depend on t,

    P'(t)  = U (L   exp(L t)) V
    P''(t) = U (L^2 exp(L t)) V

and per-site likelihoods across a branch become weighted sums of
``exp(lambda_j * r_k * t)`` terms (see :mod:`repro.plk.kernel`'s sumtable).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .models import SubstitutionModel

__all__ = ["EigenSystem"]

# Process-wide memo for :meth:`EigenSystem.for_model`.  SubstitutionModel
# is frozen with read-only arrays, so an eigensystem computed once is
# valid for the model's whole lifetime.  Keyed by object identity (the
# model holds ndarrays and is unhashable); a weakref finalizer evicts the
# entry when the model is collected, so a recycled id() can never alias.
_EIGEN_CACHE: dict[int, "EigenSystem"] = {}


@dataclass(frozen=True)
class EigenSystem:
    """Cached eigensystem of a substitution model's Q matrix.

    Attributes
    ----------
    eigenvalues:
        ``(states,)`` real eigenvalues of Q; all <= 0 with exactly one zero
        (the stationary mode).
    u, v:
        Right/left eigenvector matrices with ``Q = u @ diag(eigenvalues) @ v``
        and ``u @ v == I``.
    frequencies:
        Stationary frequencies pi (copied from the model).
    """

    eigenvalues: np.ndarray
    u: np.ndarray
    v: np.ndarray
    frequencies: np.ndarray

    @classmethod
    def from_model(cls, model: SubstitutionModel) -> "EigenSystem":
        return cls.from_models([model])[0]

    @classmethod
    def from_models(cls, models) -> list["EigenSystem"]:
        """Eigensystems of several models of one state count, from ONE
        batched ``eigh`` over ``(A, s, s)``.  LAPACK still runs once per
        matrix, so each result equals a one-model decomposition bit for
        bit; only the per-call dispatch is shared.  Building each Q stays
        per model."""
        models = list(models)
        if not models:
            return []
        q = np.stack([m.q_matrix() for m in models])                # (A, s, s)
        pi = np.stack([m.frequencies for m in models])              # (A, s)
        sqrt_pi = np.sqrt(pi)
        b = (sqrt_pi[:, :, np.newaxis] * q) / sqrt_pi[:, np.newaxis, :]
        # Enforce exact symmetry before eigh (q construction is symmetric up
        # to rounding).
        b = 0.5 * (b + np.swapaxes(b, -1, -2))
        lam, w = np.linalg.eigh(b)
        u = w / sqrt_pi[:, :, np.newaxis]
        v = np.swapaxes(w, -1, -2) * sqrt_pi[:, np.newaxis, :]
        for arr in (lam, u, v):
            arr.setflags(write=False)
        return [
            cls(eigenvalues=lam[i], u=u[i], v=v[i], frequencies=m.frequencies)
            for i, m in enumerate(models)
        ]

    @classmethod
    def for_model(cls, model: SubstitutionModel) -> "EigenSystem":
        """Memoized :meth:`from_model`: one decomposition per model object.

        A service holding model objects across requests (and every
        :class:`~repro.plk.likelihood.PartitionLikelihood` built from
        them, including in forked worker children) shares a single
        eigendecomposition instead of recomputing ``eigh`` per request.
        """
        return cls.for_models([model])[0]

    @classmethod
    def for_models(cls, models) -> list["EigenSystem"]:
        """Memoized :meth:`from_models`: the models without a cached
        eigensystem are decomposed together, in one ``eigh``."""
        models = list(models)
        missing = list({id(m): m for m in models if id(m) not in _EIGEN_CACHE}.values())
        for model, eigen in zip(missing, cls.from_models(missing)):
            key = id(model)
            _EIGEN_CACHE[key] = eigen
            weakref.finalize(model, _EIGEN_CACHE.pop, key, None)
        return [_EIGEN_CACHE[id(m)] for m in models]

    @property
    def states(self) -> int:
        return self.eigenvalues.shape[0]

    def transition_matrix(self, t: float, rate: float = 1.0) -> np.ndarray:
        """P(rate * t) for a single rate; ``(states, states)``."""
        expl = np.exp(self.eigenvalues * (rate * t))
        return (self.u * expl[None, :]) @ self.v

    def transition_matrices(self, t: float, rates: np.ndarray) -> np.ndarray:
        """P(r_k * t) for all Gamma categories; ``(ncat, states, states)``.

        Vectorized over categories: one batched matmul.
        """
        rates = np.asarray(rates, dtype=np.float64)
        expl = np.exp(np.outer(rates * t, self.eigenvalues))  # (ncat, s)
        return (self.u[None, :, :] * expl[:, None, :]) @ self.v

    def transition_derivatives(
        self, t: float, rates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P, dP/dt, d2P/dt2) stacked over Gamma categories.

        Note the chain rule: category k evolves at ``r_k * t`` so the
        derivative w.r.t. the *branch length* t carries a factor r_k.
        """
        rates = np.asarray(rates, dtype=np.float64)
        scaled = np.outer(rates, self.eigenvalues)           # (ncat, s) = r_k*lam_j
        expl = np.exp(scaled * t)
        p = (self.u[None] * expl[:, None, :]) @ self.v
        dp = (self.u[None] * (scaled * expl)[:, None, :]) @ self.v
        d2p = (self.u[None] * (scaled**2 * expl)[:, None, :]) @ self.v
        return p, dp, d2p
