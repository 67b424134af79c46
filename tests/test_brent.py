"""Batched-Brent tests: correctness vs scipy, lock-step masking semantics.

The central newPAR correctness claim: the batched solver reaches the same
optima as independent scalar runs — simultaneity changes the schedule, not
the result.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from repro.optimize import BatchedBrent, brent_minimize


class TestScalar:
    def test_quadratic(self):
        x, fx, n = brent_minimize(lambda v: (v - 2.0) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-3)
        assert n < 30

    def test_matches_scipy(self):
        fn = lambda v: np.cos(v) + 0.1 * v
        ours, _, _ = brent_minimize(fn, 0.5, 6.0, xtol=1e-6)
        ref = minimize_scalar(fn, bounds=(0.5, 6.0), method="bounded").x
        assert ours == pytest.approx(ref, abs=1e-4)

    def test_minimum_at_boundary(self):
        x, _, _ = brent_minimize(lambda v: v, 1.0, 3.0)
        assert x == pytest.approx(1.0, abs=1e-3)

    def test_guess_respected(self):
        calls = []

        def fn(v):
            calls.append(v)
            return (v - 1.5) ** 2

        brent_minimize(fn, 0.0, 10.0, guess=1.5)
        assert calls[0] == pytest.approx(1.5, abs=1e-3)

    def test_narrow_bracket_guess_stays_inside(self):
        """Bracket narrower than 2*(xtol + eps*|g|): the clipped initial
        point must stay inside [a, b] (previously np.clip with crossed
        bounds pushed it to b - pad < a)."""
        lo, hi = 1.0, 1.0 + 1e-5
        evaluated = []

        def fn(v):
            evaluated.append(v)
            assert lo <= v <= hi
            return (v - 1.5) ** 2

        x, _, _ = brent_minimize(fn, lo, hi, guess=5.0, xtol=1e-3)
        assert lo <= x <= hi
        assert all(lo <= v <= hi for v in evaluated)

    def test_narrow_bracket_batched_lanes(self):
        """Same guard lane-wise: only the narrow lane gets the capped pad."""
        solver = BatchedBrent(
            np.array([0.0, 2.0]), np.array([1e-6, 3.0]), xtol=1e-3
        )
        seen = []

        def fn(x, active):
            seen.append((x.copy(), active.copy()))
            return (x - 2.5) ** 2

        res = solver.run(fn, guess=np.array([0.5, 2.5]))
        lo = np.array([0.0, 2.0])
        hi = np.array([1e-6, 3.0])
        for x, active in seen:  # inactive lanes are computed but never read
            assert np.all(x[active] >= lo[active])
            assert np.all(x[active] <= hi[active])
        assert res.x[1] == pytest.approx(2.5, abs=1e-2)


class TestBatched:
    def test_independent_lanes_match_scalar(self):
        """The newPAR invariant: batch == per-lane scalar runs."""
        targets = np.array([0.3, 1.7, 4.2, 0.9])
        fn = lambda x, active: (x - targets) ** 4 + 3.0
        solver = BatchedBrent(np.full(4, 0.01), np.full(4, 10.0), xtol=1e-6)
        batch = solver.run(fn, guess=np.full(4, 2.0))
        for lane in range(4):
            x, fx, _ = brent_minimize(
                lambda v, t=targets[lane]: (v - t) ** 4 + 3.0,
                0.01,
                10.0,
                guess=2.0,
                xtol=1e-6,
            )
            assert batch.x[lane] == pytest.approx(x, abs=1e-5)
        assert batch.converged.all()

    def test_iteration_counts_differ_per_lane(self):
        """Different curvature -> different convergence speed; this
        variance IS the paper's load-imbalance source."""
        fn = lambda x, active: np.where(
            np.arange(4) % 2 == 0, (x - 1.0) ** 2, np.abs(x - 3.0) ** 1.2
        )
        solver = BatchedBrent(np.full(4, 0.01), np.full(4, 10.0))
        res = solver.run(fn)
        assert len(set(res.iterations.tolist())) > 1
        assert res.rounds == res.iterations.max()

    def test_inactive_lanes_never_evaluated(self):
        seen = []

        def fn(x, active):
            seen.append(active.copy())
            return (x - 1.0) ** 2

        solver = BatchedBrent(np.full(3, 0.01), np.full(3, 5.0))
        mask = np.array([True, False, True])
        res = solver.run(fn, mask=mask)
        for act in seen:
            assert not act[1]
        assert res.iterations[1] == 0
        assert not res.converged[1]

    def test_convergence_mask_shrinks(self):
        """Once a lane converges it stops being evaluated (the paper's
        boolean convergence vector)."""
        active_history = []

        def fn(x, active):
            active_history.append(active.sum())
            # lane 0: sharp quadratic (fast); lane 1: quartic plateau (slow)
            return np.array([(x[0] - 1.0) ** 2 * 100, (x[1] - 3.0) ** 4 * 1e-3])

        solver = BatchedBrent(np.full(2, 0.01), np.full(2, 6.0), xtol=1e-8)
        solver.run(fn)
        assert active_history[0] == 2
        assert active_history[-1] == 1  # one lane retired early

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            BatchedBrent(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            BatchedBrent(np.array([1.0, 2.0]), np.array([3.0]))

    @given(
        st.lists(st.floats(0.1, 9.9), min_size=1, max_size=8),
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_finds_quadratic_minima(self, targets, seed):
        t = np.array(targets)
        k = len(t)
        fn = lambda x, active: (x - t) ** 2
        solver = BatchedBrent(np.full(k, 0.0), np.full(k, 10.0), xtol=1e-6)
        guess = np.random.default_rng(seed).uniform(0.5, 9.5, k)
        res = solver.run(fn, guess=guess)
        np.testing.assert_allclose(res.x, t, atol=1e-3)

    @given(
        st.lists(st.floats(0.1, 9.9), min_size=2, max_size=8),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_masked_lane_is_the_one_lane_solve(self, targets, data):
        """oldPAR's solve: a k-lane run masked to lane p takes bitwise the
        iterates of the one-lane run, whatever the other lanes hold."""
        t = np.array(targets)
        k = len(t)
        p = data.draw(st.integers(0, k - 1))
        guess = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)))

        def curve(x, t):
            return np.abs(x - t) ** 1.5 + np.sin(3.0 * x)

        def fn(x, active):  # inactive lanes answer NaN: never read
            return np.where(active, curve(x, t), np.nan)

        masked = BatchedBrent(np.full(k, 0.0), np.full(k, 10.0), xtol=1e-6).run(
            fn, guess=guess, mask=np.arange(k) == p
        )
        one = BatchedBrent(np.zeros(1), np.full(1, 10.0), xtol=1e-6).run(
            lambda x, active: curve(x, t[p : p + 1]), guess=guess[p : p + 1]
        )
        assert masked.x[p] == one.x[0] and masked.fx[p] == one.fx[0]
        assert masked.iterations[p] == one.iterations[0]
        assert masked.iterations.sum() == one.iterations[0]
