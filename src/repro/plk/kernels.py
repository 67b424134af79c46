"""Selectable kernel backends behind one seam.

:mod:`repro.plk.kernel` defines the array-level semantics of the PLK —
newview / evaluate / sumtable — with the numpy implementation as the
executable reference.  This module packages those semantics behind a small
:class:`KernelBackend` protocol so the *implementation* of the inner loop
can be swapped per run:

``numpy``
    The reference: thin delegation to :mod:`repro.plk.kernel`, unchanged
    numerics, unchanged allocation behavior.  Every other backend is
    validated against it (``tests/test_kernel_backends.py``).
``blocked``
    Cache-blocked BLAS: the transposed/contiguous transition matrices are
    prepared ONCE per edge (:class:`PreparedP`) instead of the per-call
    ``ascontiguousarray`` in :func:`repro.plk.kernel.propagate`, and
    ``newview`` walks the pattern axis in blocks sized to stay
    cache-resident — each block is two batched ``dgemm`` calls into the
    output plus an in-place multiply, with one persistent scratch buffer
    instead of two full-width temporaries per call.
``numba``
    JIT-compiled fused newview loop (one pass, no temporaries at all)
    when numba is importable; otherwise it degrades gracefully to the
    numpy reference with a :class:`RuntimeWarning` — selecting ``numba``
    is always safe, never a hard dependency.
``repeats``
    Repeat-aware marker backend: primitives delegate verbatim to an
    inner backend (numpy by default; ``repeats+blocked`` /
    ``repeats+numba`` compose), but ``supports_repeats = True`` tells
    :class:`~repro.plk.likelihood.PartitionLikelihood` to build the
    per-node repeat index (:mod:`repro.plk.repeats`), run ``newview``
    only over each node's unique site classes, and expand by gather at
    the evaluate/sumtable boundaries.  The *work avoidance* lives in the
    engine; the seam only carries the capability flag, so all three flop
    backends get the algorithmic speedup through one code path.

Scaling/underflow semantics are shared: every backend funnels through
:func:`repro.plk.kernel.rescale` and the log-domain helpers, so the
dead-pattern sentinel and counter arithmetic are bit-identical across
backends by construction.

Selection: ``get_kernel(name)`` — ``name=None`` reads ``REPRO_KERNEL``
from the environment (default ``numpy``), mirroring how workers inherit
the choice in process teams.  Backend instances hold per-instance scratch
and therefore are NOT shared across threads; each worker resolves its own
(:class:`~repro.parallel.worker.WorkerState` does this once at startup).
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from . import kernel

__all__ = [
    "KERNELS",
    "KERNEL_CHOICES",
    "KernelBackend",
    "PreparedP",
    "NumpyKernel",
    "BlockedKernel",
    "NumbaKernel",
    "RepeatsKernel",
    "get_kernel",
    "normalize_kernel_name",
    "numba_available",
]

#: Selectable backend names, in the order shown by ``--kernel`` help.
KERNELS = ("numpy", "blocked", "numba", "repeats")

#: Everything ``--kernel`` accepts: the base backends plus the composite
#: repeat-aware spellings (``repeats`` alone wraps the numpy reference).
KERNEL_CHOICES = KERNELS + ("repeats+blocked", "repeats+numba")

#: Environment variable consulted when no explicit kernel is requested.
KERNEL_ENV = "REPRO_KERNEL"


@dataclass(frozen=True)
class PreparedP:
    """Per-edge precomputation of a ``(K, states, states)`` transition
    matrix stack: the original ``p`` plus its contiguous transpose ``pt``
    (``pt[k, t, s] == p[k, s, t]``), so ``propagate`` is a single batched
    ``clv @ pt`` with no per-call copy."""

    p: np.ndarray
    pt: np.ndarray

    @classmethod
    def from_matrices(cls, p: np.ndarray) -> "PreparedP":
        return cls(p=p, pt=np.ascontiguousarray(p.transpose(0, 2, 1)))


def raw_p(p: np.ndarray | PreparedP) -> np.ndarray:
    """The plain ``(K, s, s)`` matrix stack of either representation."""
    return p.p if isinstance(p, PreparedP) else p


def transposed_p(p: np.ndarray | PreparedP) -> np.ndarray:
    """The contiguous transpose, reusing the precomputed one if present."""
    if isinstance(p, PreparedP):
        return p.pt
    return np.ascontiguousarray(p.transpose(0, 2, 1))


@runtime_checkable
class KernelBackend(Protocol):
    """What :class:`~repro.plk.likelihood.PartitionLikelihood` needs from
    an inner-loop implementation.

    ``p`` arguments accept whatever :meth:`prepare_p` returned — the
    engine caches that handle per edge, so backends amortize per-edge
    preprocessing across every newview/evaluate touching the edge.
    Derivative-side operations (`sumtable_loglikelihood`,
    `branch_derivatives`) are shared pure functions in
    :mod:`repro.plk.kernel`; backends only own the pattern-axis-heavy
    primitives.
    """

    name: str

    def prepare_p(self, p: np.ndarray):
        """Per-edge preprocessing of a transition-matrix stack."""

    def propagate(self, p, clv: np.ndarray) -> np.ndarray:
        """Move a CLV (or tip matrix) across a branch."""

    def newview(self, p1, clv1, scale1, p2, clv2, scale2, out=None):
        """One pruning step -> (clv, scale)."""

    def root_site_likelihoods(self, p, clv_left, clv_right, frequencies):
        """Per-pattern category-averaged likelihoods at the virtual root."""

    def evaluate(self, p, clv_left, scale_left, clv_right, scale_right,
                 frequencies, weights) -> float:
        """Log-likelihood at the virtual root."""

    def make_sumtable(self, clv_left, clv_right, u, v, frequencies):
        """Eigenbasis coefficient table for Newton-Raphson on one branch."""


class NumpyKernel:
    """The reference backend: direct delegation to :mod:`repro.plk.kernel`.

    ``prepare_p`` is the identity — this backend's numerics and allocation
    behavior are exactly the pre-seam kernel, which is what the
    cross-backend equivalence suite pins the others against.
    """

    name = "numpy"

    def prepare_p(self, p: np.ndarray) -> np.ndarray:
        return p

    def propagate(self, p, clv: np.ndarray) -> np.ndarray:
        return kernel.propagate(raw_p(p), clv)

    def newview(self, p1, clv1, scale1, p2, clv2, scale2, out=None):
        return kernel.newview(raw_p(p1), clv1, scale1, raw_p(p2), clv2,
                              scale2, out)

    def root_site_likelihoods(self, p, clv_left, clv_right, frequencies):
        return kernel._root_site_likelihoods(
            raw_p(p), clv_left, clv_right, frequencies
        )

    def evaluate(self, p, clv_left, scale_left, clv_right, scale_right,
                 frequencies, weights) -> float:
        return kernel.evaluate(raw_p(p), clv_left, scale_left, clv_right,
                               scale_right, frequencies, weights)

    def make_sumtable(self, clv_left, clv_right, u, v, frequencies):
        return kernel.make_sumtable(clv_left, clv_right, u, v, frequencies)


def _as_3d(clv: np.ndarray) -> np.ndarray:
    """Tip matrices ``(m, s)`` as broadcastable ``(1, m, s)`` views."""
    return clv[np.newaxis] if clv.ndim == 2 else clv


class BlockedKernel(NumpyKernel):
    """Cache-blocked backend.

    ``newview`` processes the pattern axis in blocks sized so the working
    set (output block + scratch block + the two child blocks) stays within
    ``block_bytes`` of cache per buffer; each block is two batched BLAS
    matmuls written straight into the output and one in-place multiply.
    The transposed transition matrices come precomputed per edge via
    :class:`PreparedP` and the small eigen-side products of
    ``make_sumtable`` (``pi*U``, contiguous ``V.T``) are cached per
    eigensystem, removing the remaining per-call ``ascontiguousarray``
    copies of the reference.

    Instances keep a persistent scratch buffer — one instance per worker,
    never shared across threads.
    """

    name = "blocked"

    def __init__(self, block_bytes: int = 1 << 18):
        self._block_bytes = int(block_bytes)
        self._scratch: np.ndarray | None = None
        # id-keyed with strong refs kept alongside, so a recycled id of a
        # garbage-collected array can never alias a stale entry.
        self._eig_cache: dict[tuple[int, int, int], tuple] = {}
        # raw (unprepared) matrix stacks memoize their contiguous
        # transpose on matrix identity, same idiom as _eig_cache: cold
        # paths that repeatedly hand the same raw ``p`` stop paying the
        # per-call ascontiguousarray of :func:`transposed_p`.
        self._pt_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _transposed(self, p) -> np.ndarray:
        if isinstance(p, PreparedP):
            return p.pt
        hit = self._pt_cache.get(id(p))
        if hit is not None and hit[0] is p:
            return hit[1]
        if len(self._pt_cache) > 32:
            self._pt_cache.clear()
        pt = np.ascontiguousarray(p.transpose(0, 2, 1))
        self._pt_cache[id(p)] = (p, pt)
        return pt

    # -- geometry ------------------------------------------------------

    def _block_patterns(self, n_cat: int, states: int, m: int) -> int:
        per_pattern = n_cat * states * 8  # one float64 plane column
        b = self._block_bytes // max(per_pattern, 1)
        return max(64, min(m, int(b)))

    def _scratch_for(self, n_cat: int, b: int, states: int) -> np.ndarray:
        sc = self._scratch
        if sc is None or sc.shape[0] != n_cat or sc.shape[1] < b or sc.shape[2] != states:
            sc = np.empty((n_cat, b, states))
            self._scratch = sc
        return sc

    # -- primitives ----------------------------------------------------

    def prepare_p(self, p: np.ndarray) -> PreparedP:
        return PreparedP.from_matrices(p)

    def propagate(self, p, clv: np.ndarray) -> np.ndarray:
        return np.matmul(_as_3d(clv), self._transposed(p))

    def newview(self, p1, clv1, scale1, p2, clv2, scale2, out=None):
        pt1 = self._transposed(p1)
        pt2 = self._transposed(p2)
        c1 = _as_3d(clv1)
        c2 = _as_3d(clv2)
        n_cat, states = pt1.shape[0], pt1.shape[2]
        m = c1.shape[1]
        b = self._block_patterns(n_cat, states, m)
        if m <= 4 * b:
            # The whole working set is cache-resident: one batched dgemm
            # per child, full width, beats the block loop's slicing
            # overhead.  The right child lands in the persistent scratch
            # (no second full-width allocation per call) and the prepared
            # transposes skip the reference's per-call copies.
            result = np.matmul(c1, pt1, out=out)
            tmp = self._scratch_for(n_cat, m, states)[:, :m, :]
            np.matmul(c2, pt2, out=tmp)
            np.multiply(result, tmp, out=result)
        else:
            result = np.empty((n_cat, m, states)) if out is None else out
            scratch = self._scratch_for(n_cat, b, states)
            for lo in range(0, m, b):
                hi = min(m, lo + b)
                blk = result[:, lo:hi, :]
                np.matmul(c1[:, lo:hi, :], pt1, out=blk)
                tmp = scratch[:, : hi - lo, :]
                np.matmul(c2[:, lo:hi, :], pt2, out=tmp)
                blk *= tmp
        scale = np.zeros(m, dtype=np.int32)
        if scale1 is not None:
            scale += scale1
        if scale2 is not None:
            scale += scale2
        kernel.rescale(result, scale)
        return result, scale

    def root_site_likelihoods(self, p, clv_left, clv_right, frequencies):
        moved = np.matmul(_as_3d(clv_right), self._transposed(p))
        weighted = _as_3d(clv_left) * frequencies
        per_cat = np.einsum("kms,kms->km", weighted, moved)
        return per_cat.mean(axis=0)

    def evaluate(self, p, clv_left, scale_left, clv_right, scale_right,
                 frequencies, weights) -> float:
        site = self.root_site_likelihoods(p, clv_left, clv_right, frequencies)
        logs = kernel.scaled_log_likelihoods(
            site, kernel.combine_scales(scale_left, scale_right)
        )
        return kernel.weighted_log_sum(weights, logs)

    def make_sumtable(self, clv_left, clv_right, u, v, frequencies):
        piu, vt = self._eigen_products(u, v, frequencies)
        left = np.matmul(_as_3d(clv_left), piu)
        right = np.matmul(_as_3d(clv_right), vt)
        return left * right

    def _eigen_products(self, u, v, frequencies):
        key = (id(u), id(v), id(frequencies))
        hit = self._eig_cache.get(key)
        if hit is not None and hit[0] is u and hit[1] is v and hit[2] is frequencies:
            return hit[3], hit[4]
        if len(self._eig_cache) > 32:
            self._eig_cache.clear()
        piu = frequencies[:, np.newaxis] * u
        vt = np.ascontiguousarray(v.T)
        self._eig_cache[key] = (u, v, frequencies, piu, vt)
        return piu, vt


def numba_available() -> bool:
    """Whether the numba JIT is importable in this interpreter."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


_jitted_newview = None


def _build_jitted_newview():
    """Compile (once per process) the fused newview loop.

    One pass over ``(k, i, a)`` computes both propagations and their
    product with zero temporaries; tips arrive as ``(1, m, s)`` views and
    broadcast via the ``k1``/``k2`` index pin.
    """
    global _jitted_newview
    if _jitted_newview is not None:
        return _jitted_newview
    import numba

    @numba.njit(cache=False, nogil=True)
    def nv(pt1, c1, pt2, c2, out):  # pragma: no cover - needs numba
        n_cat, m, states = out.shape
        for k in range(n_cat):
            k1 = k if c1.shape[0] > 1 else 0
            k2 = k if c2.shape[0] > 1 else 0
            for i in range(m):
                for a in range(states):
                    acc1 = 0.0
                    acc2 = 0.0
                    for t in range(states):
                        acc1 += pt1[k, t, a] * c1[k1, i, t]
                        acc2 += pt2[k, t, a] * c2[k2, i, t]
                    out[k, i, a] = acc1 * acc2

    _jitted_newview = nv
    return nv


class NumbaKernel(NumpyKernel):
    """JIT backend with graceful degradation.

    When numba is importable the pruning step runs as a single fused,
    nogil-compiled loop (shared :func:`repro.plk.kernel.rescale` keeps the
    scaling semantics identical); everything else inherits the numpy
    reference.  When numba is absent the instance IS the numpy reference
    (plus a one-time :class:`RuntimeWarning`), so ``--kernel numba`` never
    fails — it just doesn't accelerate.
    """

    name = "numba"

    def __init__(self):
        self.jitted = numba_available()
        self._nv = _build_jitted_newview() if self.jitted else None
        if not self.jitted:
            warnings.warn(
                "numba is not installed; kernel 'numba' is falling back to "
                "the numpy reference backend",
                RuntimeWarning,
                stacklevel=3,
            )

    def prepare_p(self, p: np.ndarray):
        if not self.jitted:
            return p
        return PreparedP.from_matrices(p)

    def newview(self, p1, clv1, scale1, p2, clv2, scale2, out=None):
        if not self.jitted:
            return super().newview(p1, clv1, scale1, p2, clv2, scale2, out)
        pt1 = transposed_p(p1)
        pt2 = transposed_p(p2)
        c1 = np.ascontiguousarray(_as_3d(clv1))
        c2 = np.ascontiguousarray(_as_3d(clv2))
        n_cat, states = pt1.shape[0], pt1.shape[2]
        m = c1.shape[1]
        result = np.empty((n_cat, m, states)) if out is None else out
        if m:
            self._nv(pt1, c1, pt2, c2, result)
        scale = np.zeros(m, dtype=np.int32)
        if scale1 is not None:
            scale += scale1
        if scale2 is not None:
            scale += scale2
        kernel.rescale(result, scale)
        return result, scale


class RepeatsKernel:
    """Repeat-aware wrapper backend.

    Delegates every primitive verbatim to ``inner`` (numpy reference by
    default) and advertises ``supports_repeats = True`` — the flag
    :class:`~repro.plk.likelihood.PartitionLikelihood` reads to switch on
    repeat-compressed CLV storage.  Composition is by name:
    ``repeats`` wraps numpy, ``repeats+blocked`` / ``repeats+numba`` wrap
    the respective flop backends, so algorithmic work avoidance stacks
    with flop-level acceleration.
    """

    supports_repeats = True

    def __init__(self, inner: KernelBackend | None = None):
        self.inner = inner if inner is not None else NumpyKernel()
        inner_name = getattr(self.inner, "name", "numpy")
        self.name = "repeats" if inner_name == "numpy" else f"repeats+{inner_name}"

    def prepare_p(self, p: np.ndarray):
        return self.inner.prepare_p(p)

    def propagate(self, p, clv: np.ndarray) -> np.ndarray:
        return self.inner.propagate(p, clv)

    def newview(self, p1, clv1, scale1, p2, clv2, scale2, out=None):
        return self.inner.newview(p1, clv1, scale1, p2, clv2, scale2, out)

    def root_site_likelihoods(self, p, clv_left, clv_right, frequencies):
        return self.inner.root_site_likelihoods(
            p, clv_left, clv_right, frequencies
        )

    def evaluate(self, p, clv_left, scale_left, clv_right, scale_right,
                 frequencies, weights) -> float:
        return self.inner.evaluate(p, clv_left, scale_left, clv_right,
                                   scale_right, frequencies, weights)

    def make_sumtable(self, clv_left, clv_right, u, v, frequencies):
        return self.inner.make_sumtable(clv_left, clv_right, u, v,
                                        frequencies)


_FACTORIES = {
    "numpy": NumpyKernel,
    "blocked": BlockedKernel,
    "numba": NumbaKernel,
}


def normalize_kernel_name(name: str | None = None) -> str:
    """Validate a kernel name and return its canonical spelling.

    Applies the same layered default as :func:`get_kernel` (``None`` →
    ``REPRO_KERNEL`` env → ``"numpy"``) but never instantiates a backend,
    so callers that only need validation (CLI parsers, the parallel
    engine, serve job specs) don't trigger numba's fallback warning.
    ``repeats+numpy`` canonicalizes to ``repeats``.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV, "").strip() or "numpy"
    base, sep, inner = name.partition("+")
    if sep:
        if base == "repeats" and inner in _FACTORIES:
            return "repeats" if inner == "numpy" else name
    elif base in _FACTORIES or base == "repeats":
        return base
    raise ValueError(
        f"unknown kernel backend {name!r}; choose from "
        f"{', '.join(KERNEL_CHOICES)}"
    )


def get_kernel(name: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a kernel backend by name.

    ``None`` consults the ``REPRO_KERNEL`` environment variable and falls
    back to ``"numpy"`` — the same layered default as the CLI's
    ``--kernel``.  An already-constructed backend instance passes through
    untouched (so an engine can hand its resolved backend to
    sub-components).  Each call with a *name* returns a FRESH instance:
    backends hold per-instance scratch and must not be shared across
    worker threads.  Composite names (``repeats``, ``repeats+blocked``,
    ``repeats+numba``) build a :class:`RepeatsKernel` around the named
    inner backend.
    """
    if name is not None and not isinstance(name, str):
        return name
    name = normalize_kernel_name(name)
    if name == "repeats" or name.startswith("repeats+"):
        inner = name.partition("+")[2] or "numpy"
        return RepeatsKernel(_FACTORIES[inner]())
    return _FACTORIES[name]()
