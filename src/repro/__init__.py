"""repro: a reproduction of "Load Balance in the Phylogenetic Likelihood
Kernel" (Stamatakis & Ott, ICPP 2009).

Subpackages
-----------
``repro.plk``
    The Phylogenetic Likelihood Kernel substrate: alignments, models,
    trees, and the vectorized pruning/evaluation/derivative kernels.
``repro.optimize``
    Brent and Newton-Raphson, scalar and batched-lock-step.
``repro.search``
    Parsimony starting trees, NNI/SPR, hill-climbing ML search.
``repro.seqgen``
    Sequence simulation and the paper's benchmark datasets.
``repro.core``
    The paper's contribution: the partitioned engine, the oldPAR/newPAR
    scheduling strategies, and kernel-op trace capture.
``repro.parallel``
    The real master-worker team of forked processes.
``repro.simmachine``
    The simulated multicore testbed (Nehalem, Clovertown, Barcelona,
    Sun x4600) replaying captured traces.
``repro.bench``
    Benchmark harness and paper-style reports.
"""
from . import bench, core, optimize, parallel, plk, search, seqgen, simmachine

__version__ = "1.0.0"

__all__ = [
    "bench",
    "core",
    "optimize",
    "parallel",
    "plk",
    "search",
    "seqgen",
    "simmachine",
    "__version__",
]
