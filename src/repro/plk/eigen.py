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

A likelihood stack decomposes the members a model write touches in one
batched :func:`decompose` and keeps the results only as its stacked
arrays.  :class:`EigenSystem` is the one-model object
(:meth:`EigenSystem.from_model`, or a stack's ``eigens``, built from its
arrays on each read); no decomposition is memoised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import SubstitutionModel, q_matrices

__all__ = ["EigenSystem", "decompose"]


def decompose(q: np.ndarray, frequencies: np.ndarray):
    """``(eigenvalues, u, v)`` of the ``(A, s, s)`` reversible rate
    matrices ``q`` with stationary ``(A, s)`` ``frequencies``, shaped
    ``(A, s)``, ``(A, s, s)``, ``(A, s, s)``: one batched ``eigh`` of the
    symmetrised ``D Q D^-1``."""
    sqrt_pi = np.sqrt(frequencies)
    b = (sqrt_pi[:, :, np.newaxis] * q) / sqrt_pi[:, np.newaxis, :]
    # Enforce exact symmetry before eigh (q construction is symmetric up
    # to rounding).
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    lam, w = np.linalg.eigh(b)
    u = w / sqrt_pi[:, :, np.newaxis]
    v = np.swapaxes(w, -1, -2) * sqrt_pi[:, np.newaxis, :]
    return lam, u, v


@dataclass(frozen=True)
class EigenSystem:
    """Eigensystem of a substitution model's Q matrix.

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
        """The eigensystem of ``model``: the A = 1 case of
        :func:`~repro.plk.models.q_matrices` and :func:`decompose`, so it
        equals bit for bit the member of any batch the model is
        decomposed in (LAPACK runs once per matrix)."""
        pi = model.frequencies[np.newaxis]
        lam, u, v = decompose(q_matrices(model.rates[np.newaxis], pi), pi)
        for arr in (lam, u, v):
            arr.setflags(write=False)
        return cls(eigenvalues=lam[0], u=u[0], v=v[0], frequencies=model.frequencies)

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
