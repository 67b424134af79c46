"""Batched Newton-Raphson tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize import BatchedNewton, newton_optimize


def concave_family(maxima, sharpness=2.0):
    """lnL_i(z) = -sharpness * (z - maxima_i)^2 derivative oracle."""

    def fn(z, active):
        return -2 * sharpness * (z - maxima), np.full_like(z, -2 * sharpness)

    return fn


class TestScalar:
    def test_quadratic(self):
        z, iters, conv = newton_optimize(lambda z: (-2 * (z - 0.7), -2.0), 0.1)
        assert conv
        assert z == pytest.approx(0.7, abs=1e-6)
        assert iters <= 3

    def test_clamped_to_bounds(self):
        # maximum at 100, above the ceiling of 50
        z, _, conv = newton_optimize(lambda z: (-2 * (z - 100.0), -2.0), 1.0)
        assert z == pytest.approx(50.0)

    def test_lower_bound(self):
        z, _, _ = newton_optimize(lambda z: (-2 * (z + 5.0), -2.0), 1.0)
        assert z == pytest.approx(1e-8)

    def test_non_concave_fallback(self):
        """Convex region: gradient ascent still moves toward the optimum
        of f(z) = -(z-2)^4 whose d2 is ~0 near the start."""
        fn = lambda z: (-4 * (z - 2.0) ** 3, -12 * (z - 2.0) ** 2)
        z, _, conv = newton_optimize(fn, 1.999999)  # d2 ~ 0 here
        assert abs(z - 2.0) < 0.01


class TestBatched:
    def test_matches_scalar(self):
        maxima = np.array([0.05, 0.3, 1.4, 7.0])
        res = BatchedNewton().run(concave_family(maxima), np.full(4, 1.0))
        np.testing.assert_allclose(res.z, maxima, atol=1e-5)
        assert res.converged.all()
        for lane, m in enumerate(maxima):
            z, _, _ = newton_optimize(
                lambda z, mm=m: (-4.0 * (z - mm), -4.0), 1.0
            )
            assert res.z[lane] == pytest.approx(z, abs=1e-5)

    def test_iteration_counts_vary(self):
        """Mixed curvatures converge in different numbers of steps."""

        def fn(z, active):
            d1 = np.array([-2 * (z[0] - 1.0), -4 * (z[1] - 2.0) ** 3])
            d2 = np.array([-2.0, -12 * (z[1] - 2.0) ** 2])
            return d1, d2

        res = BatchedNewton().run(fn, np.array([0.5, 0.5]))
        assert res.iterations[0] < res.iterations[1]
        assert res.rounds == res.iterations.max()

    def test_mask_excludes_lanes(self):
        maxima = np.array([1.0, 2.0, 3.0])
        mask = np.array([True, False, True])
        res = BatchedNewton().run(concave_family(maxima), np.full(3, 0.5), mask=mask)
        assert res.iterations[1] == 0
        assert res.z[1] == pytest.approx(0.5)  # untouched

    def test_active_set_shrinks(self):
        sizes = []

        def fn(z, active):
            sizes.append(int(active.sum()))
            d1 = np.array([-200 * (z[0] - 1.0), -0.5 * (z[1] - 4.0)])
            d2 = np.array([-200.0, -0.5])
            return d1, d2

        BatchedNewton(ztol=1e-10).run(fn, np.array([0.9, 0.1]))
        assert sizes[0] == 2
        assert sizes[-1] <= 2
        assert len(set(sizes)) >= 1

    def test_inactive_lanes_never_queried(self):
        masks = []

        def fn(z, active):
            masks.append(active.copy())
            return -2 * (z - 1.0), np.full_like(z, -2.0)

        BatchedNewton().run(fn, np.full(3, 0.2), mask=np.array([True, True, False]))
        assert all(not m[2] for m in masks)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            BatchedNewton(lower=2.0, upper=1.0)

    @given(
        st.lists(st.floats(0.01, 20.0), min_size=1, max_size=10),
        st.floats(0.5, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_converges_to_maxima(self, maxima, sharp):
        m = np.array(maxima)
        res = BatchedNewton().run(
            concave_family(m, sharp), np.full(len(m), 0.5)
        )
        np.testing.assert_allclose(res.z, m, atol=1e-4)
        assert res.converged.all()

    @given(
        st.lists(st.tuples(st.floats(0.2, 20.0), st.floats(0.5, 10.0)), min_size=2, max_size=8),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_masked_lane_is_the_one_lane_solve(self, curves, data):
        """oldPAR's solve: a k-lane run masked to lane p takes bitwise the
        iterates of the one-lane run, whatever the other lanes hold."""
        a, b = (np.array(c) for c in zip(*curves))
        k = len(a)
        p = data.draw(st.integers(0, k - 1))
        z0 = np.array(data.draw(st.lists(st.floats(1e-3, 5.0), min_size=k, max_size=k)))

        def oracle(a, b):  # lnL = a log z - b z, maximum at z = a / b
            return lambda z, active: (a / z - b, -a / (z * z))

        full = oracle(a, b)

        def fn(z, active):  # inactive lanes answer NaN: never read
            d1, d2 = full(z, active)
            return np.where(active, d1, np.nan), np.where(active, d2, np.nan)

        masked = BatchedNewton().run(fn, z0, mask=np.arange(k) == p)
        one = BatchedNewton().run(oracle(a[p : p + 1], b[p : p + 1]), z0[p : p + 1])
        assert masked.z[p] == one.z[0]
        assert masked.iterations[p] == one.iterations[0]
        assert masked.iterations.sum() == one.iterations[0]
