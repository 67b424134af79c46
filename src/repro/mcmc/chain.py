"""Bayesian MCMC over partitioned models (paper Section IV implications).

The paper argues that Bayesian programs face the *same* load-balance
problem as "classic" ML: a proposal that touches one partition's
parameters triggers likelihood work only on that partition's columns, so
per-partition proposals produce oldPAR-shaped schedules.  Its recommended
redesign: "the mechanism and underlying statistics should be designed such
as to allow for applying simultaneous changes to one of the parameter
types across all partitions", and "branch length changes should be
simultaneously proposed for all partitions of the same topological
connection".

:class:`BayesianChain` implements both scheduling modes over the shared
likelihood engine:

``per_partition``
    every generation proposes one parameter of ONE partition — each
    evaluation is a one-partition parallel region (the status quo the
    paper criticizes);
``simultaneous``
    every generation proposes the same parameter type across ALL
    partitions at once — one whole-alignment region — and accepts/rejects
    per partition independently (valid because, with per-partition branch
    lengths and models, the posterior factorizes over partitions given the
    shared topology).

Both modes target the same posterior; only the schedule differs —
mirroring the oldPAR/newPAR relationship exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.engine import PartitionedEngine
from ..core.trace import NullRecorder, TraceRecorder
from ..plk.partition import PartitionedAlignment
from ..plk.tree import Tree
from .priors import PriorSet
from .proposals import MultiplierProposal

__all__ = ["BayesianChain", "ChainSamples", "MetropolisCoupledSampler"]

SCHEDULING_MODES = ("per_partition", "simultaneous")
MOVE_TYPES = ("branch", "alpha", "rate")

_ALPHA_BOUNDS = (0.02, 100.0)
_BRANCH_BOUNDS = (1e-7, 10.0)
_RATE_BOUNDS = (1e-3, 100.0)


@dataclass
class ChainSamples:
    """Thinned posterior samples collected by :meth:`BayesianChain.run`."""

    loglikelihood: list[float] = field(default_factory=list)
    alphas: list[np.ndarray] = field(default_factory=list)
    tree_lengths: list[np.ndarray] = field(default_factory=list)

    def alpha_matrix(self) -> np.ndarray:
        """(n_samples, n_partitions) alpha draws."""
        return np.asarray(self.alphas)

    def tree_length_matrix(self) -> np.ndarray:
        return np.asarray(self.tree_lengths)


class BayesianChain:
    """One MCMC chain over a partitioned dataset on a fixed topology.

    Parameters
    ----------
    data, tree:
        As for :class:`~repro.core.engine.PartitionedEngine`; the chain
        uses per-partition branch lengths (the mode where scheduling
        matters most).
    scheduling:
        ``"per_partition"`` or ``"simultaneous"`` (see module docstring).
    temperature:
        MC3 inverse-heat beta; 1.0 = the cold chain.
    recorder:
        Optional trace recorder — Bayesian runs capture schedules exactly
        like ML runs.
    """

    def __init__(
        self,
        data: PartitionedAlignment,
        tree: Tree,
        seed: int = 0,
        scheduling: str = "simultaneous",
        priors: PriorSet | None = None,
        temperature: float = 1.0,
        recorder: TraceRecorder | NullRecorder | None = None,
        initial_lengths: np.ndarray | None = None,
    ):
        if scheduling not in SCHEDULING_MODES:
            raise ValueError(f"scheduling must be one of {SCHEDULING_MODES}")
        self.scheduling = scheduling
        self.temperature = float(temperature)
        self.rng = np.random.default_rng(seed)
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.priors = priors if priors is not None else PriorSet()
        self.engine = PartitionedEngine(
            data,
            tree,
            branch_mode="per_partition",
            initial_lengths=initial_lengths,
            recorder=self.recorder,
        )
        self.n_partitions = self.engine.n_partitions
        self._dna = self.engine.states() == 4
        self._proposals = {
            "branch": MultiplierProposal(2 * np.log(2.0), *_BRANCH_BOUNDS),
            "alpha": MultiplierProposal(2 * np.log(1.5), *_ALPHA_BOUNDS),
            "rate": MultiplierProposal(2 * np.log(1.3), *_RATE_BOUNDS),
        }
        # cached per-partition log-likelihoods at the current state
        self._lnl = self.engine.partition_loglikelihoods()
        self.generation = 0
        self.accepted = 0
        self.proposed = 0

    # ------------------------------------------------------------------

    @property
    def loglikelihood(self) -> float:
        return float(self._lnl.sum())

    def log_prior(self) -> float:
        """Total log prior of the current state."""
        total = 0.0
        for p, part in enumerate(self.engine.parts):
            total += float(self.priors.branch(part.branch_lengths).sum())
            total += float(self.priors.alpha(np.array([part.alpha]))[0])
            if self._dna[p]:
                total += float(self.priors.rate(part.model.rates[:-1]).sum())
        return total

    def acceptance_rate(self) -> float:
        return self.accepted / max(self.proposed, 1)

    # ------------------------------------------------------------------
    # One generation
    # ------------------------------------------------------------------

    def step(self) -> None:
        """One generation: one proposal event (whose shape depends on the
        scheduling mode)."""
        move = MOVE_TYPES[int(self.rng.integers(0, len(MOVE_TYPES)))]
        if move == "branch":
            edge = int(self.rng.integers(0, self.engine.n_edges))
            self._move_branch(edge)
        elif move == "alpha":
            self._move_alpha()
        else:
            self._move_rate(int(self.rng.integers(0, 5)))
        self.generation += 1

    # -- generic machinery -------------------------------------------------

    def _partition_batches(self, eligible: np.ndarray) -> list[np.ndarray]:
        """Which partitions each proposal event touches: all at once
        (simultaneous) or one event per partition (per_partition)."""
        idx = np.flatnonzero(eligible)
        if self.scheduling == "simultaneous":
            return [idx] if len(idx) else []
        return [np.array([p]) for p in idx]

    def _evaluate(self, partitions: np.ndarray, root_edge: int) -> np.ndarray:
        """Likelihoods of the given partitions in ONE parallel region."""
        self.recorder.begin_region(f"mcmc_{self.scheduling}")
        out = self.engine.loglikelihoods(root_edge, partitions)
        self.recorder.end_region()
        return out

    def _accept_mask(
        self, partitions: np.ndarray, delta_posterior: np.ndarray
    ) -> np.ndarray:
        """Per-partition Metropolis decisions (heated by temperature)."""
        u = self.rng.random(len(partitions))
        accept = np.log(u) < self.temperature * delta_posterior[partitions]
        self.proposed += len(partitions)
        self.accepted += int(accept.sum())
        return accept

    def _decide(
        self, batch: np.ndarray, lnl_new: np.ndarray, delta_prior, hastings
    ) -> np.ndarray:
        """Accept/reject the proposal on ``batch``; accepted partitions
        take their new log-likelihoods.  Returns the accept mask."""
        delta = np.zeros(self.n_partitions)
        delta[batch] = lnl_new[batch] - self._lnl[batch] + delta_prior + hastings
        accept = self._accept_mask(batch, delta)
        self._lnl[batch[accept]] = lnl_new[batch[accept]]
        return accept

    # -- moves --------------------------------------------------------------

    def _move_branch(self, edge: int) -> None:
        """Propose new lengths for ONE topological branch — across all
        partitions at once (simultaneous) or partition by partition."""
        proposal = self._proposals["branch"]
        current = self.engine.branch_lengths()[edge]  # (P,)
        for batch in self._partition_batches(np.ones(self.n_partitions, bool)):
            new, hastings = proposal.propose(current[batch], self.rng)
            delta_prior = (
                self.priors.branch(new) - self.priors.branch(current[batch])
            )
            trial = current.copy()
            trial[batch] = new
            self.engine.set_edge_lengths(edge, trial, batch)
            lnl_new = self._evaluate(batch, root_edge=edge)
            accept = self._decide(batch, lnl_new, delta_prior, hastings)
            current[batch[accept]] = trial[batch[accept]]
            self.engine.set_edge_lengths(edge, current, batch[~accept])

    def _move_alpha(self) -> None:
        proposal = self._proposals["alpha"]
        current = self.engine.alphas()
        for batch in self._partition_batches(np.ones(self.n_partitions, bool)):
            new, hastings = proposal.propose(current[batch], self.rng)
            delta_prior = self.priors.alpha(new) - self.priors.alpha(current[batch])
            trial = current.copy()
            trial[batch] = new
            self.engine.set_alphas(trial, batch)
            lnl_new = self._evaluate(batch, root_edge=0)
            accept = self._decide(batch, lnl_new, delta_prior, hastings)
            self.engine.set_alphas(current, batch[~accept])

    def _move_rate(self, rate_index: int) -> None:
        """Propose one GTR exchangeability across the DNA partitions."""
        if not self._dna.any():
            return
        proposal = self._proposals["rate"]
        current = self.engine.exchangeabilities(rate_index, self._dna)
        for batch in self._partition_batches(self._dna):
            new, hastings = proposal.propose(current[batch], self.rng)
            delta_prior = self.priors.rate(new) - self.priors.rate(current[batch])
            trial = current.copy()
            trial[batch] = new
            self.engine.set_exchangeabilities(rate_index, trial, batch)
            lnl_new = self._evaluate(batch, root_edge=0)
            accept = self._decide(batch, lnl_new, delta_prior, hastings)
            self.engine.set_exchangeabilities(rate_index, current, batch[~accept])

    # ------------------------------------------------------------------

    def run(self, generations: int, sample_every: int = 10) -> ChainSamples:
        """Run the chain, collecting thinned samples."""
        samples = ChainSamples()
        for g in range(generations):
            self.step()
            if (g + 1) % sample_every == 0:
                samples.loglikelihood.append(self.loglikelihood)
                samples.alphas.append(
                    np.array([p.alpha for p in self.engine.parts])
                )
                samples.tree_lengths.append(
                    np.array([p.branch_lengths.sum() for p in self.engine.parts])
                )
        return samples


class MetropolisCoupledSampler:
    """Metropolis-coupled MCMC (MC3): one cold chain plus heated chains,
    with state swaps — MrBayes' scheme, built on :class:`BayesianChain`.

    The paper notes MC3 multiplies the memory footprint (separate inner
    likelihood vectors per chain); that is literal here: each chain owns a
    full engine with its own CLVs.
    """

    def __init__(
        self,
        data: PartitionedAlignment,
        tree: Tree,
        n_chains: int = 2,
        heat: float = 0.2,
        seed: int = 0,
        scheduling: str = "simultaneous",
        initial_lengths: np.ndarray | None = None,
    ):
        if n_chains < 1:
            raise ValueError("need at least one chain")
        self.rng = np.random.default_rng(seed + 777)
        self.chains = [
            BayesianChain(
                data,
                tree.copy(),
                seed=seed + k,
                scheduling=scheduling,
                temperature=1.0 / (1.0 + heat * k),
                initial_lengths=initial_lengths,
            )
            for k in range(n_chains)
        ]
        self.swaps_proposed = 0
        self.swaps_accepted = 0

    @property
    def cold(self) -> BayesianChain:
        return max(self.chains, key=lambda c: c.temperature)

    def step(self) -> None:
        """One generation in every chain plus one swap attempt."""
        for chain in self.chains:
            chain.step()
        if len(self.chains) < 2:
            return
        i = int(self.rng.integers(0, len(self.chains) - 1))
        a, b = self.chains[i], self.chains[i + 1]
        post_a = a.loglikelihood + a.log_prior()
        post_b = b.loglikelihood + b.log_prior()
        log_r = (a.temperature - b.temperature) * (post_b - post_a)
        self.swaps_proposed += 1
        if np.log(self.rng.random()) < log_r:
            a.temperature, b.temperature = b.temperature, a.temperature
            self.swaps_accepted += 1

    def run(self, generations: int, sample_every: int = 10) -> ChainSamples:
        """Run all chains; samples come from whichever chain is cold."""
        samples = ChainSamples()
        for g in range(generations):
            self.step()
            if (g + 1) % sample_every == 0:
                cold = self.cold
                samples.loglikelihood.append(cold.loglikelihood)
                samples.alphas.append(
                    np.array([p.alpha for p in cold.engine.parts])
                )
                samples.tree_lengths.append(
                    np.array([p.branch_lengths.sum() for p in cold.engine.parts])
                )
        return samples
