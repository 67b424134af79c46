"""Shared-memory segment lifecycle on the process backend: the live stats
plane is the only /dev/shm user, and nothing survives teardown.
"""
import numpy as np
import pytest

from repro.parallel import ParallelPLK, live_segments
from repro.plk import PartitionedAlignment, SubstitutionModel, uniform_scheme
from repro.seqgen import random_topology_with_lengths, simulate_alignment


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(23)
    tree, lengths = random_topology_with_lengths(6, rng)
    aln = simulate_alignment(
        tree, lengths, SubstitutionModel.random_gtr(3), 1.0, 240, rng
    )
    data = PartitionedAlignment(aln, uniform_scheme(240, 80))
    models = [SubstitutionModel.random_gtr(p) for p in range(3)]
    alphas = [0.9, 1.1, 1.6]
    return data, tree, lengths, models, alphas


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = live_segments()
    yield
    assert live_segments() == before


@pytest.mark.timeout(120)
class TestProcessTeamSegments:
    def make_team(self, setup, **kw):
        data, tree, lengths, models, alphas = setup
        return ParallelPLK(
            data, tree, models, alphas, 2,
            initial_lengths=lengths, **kw,
        )

    def test_plain_team_creates_no_segment(self, setup):
        before = live_segments()
        with self.make_team(setup) as team:
            team.loglikelihood(0)
            assert live_segments() == before

    def test_segments_exist_while_open_and_vanish_on_close(self, setup):
        before = live_segments()
        team = self.make_team(setup, live=True)
        try:
            assert len(live_segments()) == len(before) + 1  # the stats plane
            team.loglikelihood(0)
        finally:
            team.close()
        assert live_segments() == before

    def test_replies_travel_over_the_pipe(self, setup):
        with self.make_team(setup) as team:
            team.optimize_branch(0, "new", z0=np.full(3, 0.1))
            stats = team.comms_stats()
        assert stats["pipe_tx_bytes"] > 0
        assert stats["pipe_rx_bytes"] > 0
        assert stats["shm_rx_bytes"] == 0
