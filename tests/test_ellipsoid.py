import numpy as np
import pytest

from nukc.ellipsoid import (
    EllipsoidNumericsError,
    EllipsoidState,
    ellipsoid_update,
    initial_ellipsoid,
)


class TestGeometry:
    def test_initial_ball_covers_unit_cube(self):
        state = initial_ellipsoid(6)
        assert np.allclose(state.center, 0.5)
        # every cube vertex x satisfies (x-c)' A^-1 (x-c) <= 1
        corner = np.ones(6)
        quad = (corner - state.center) @ np.linalg.solve(
            state.shape, corner - state.center
        )
        assert quad <= 1.0 + 1e-12

    def test_worked_two_dimensional_update(self):
        # unit disk, cut direction (1, 0): the known closed-form result
        state = EllipsoidState(center=np.zeros(2), shape=np.eye(2))
        new = ellipsoid_update(state, np.array([1.0, 0.0]))
        assert np.allclose(new.center, [-1.0 / 3.0, 0.0], atol=1e-12)
        assert np.allclose(new.shape, np.diag([4.0 / 9.0, 4.0 / 3.0]), atol=1e-12)

    def test_update_keeps_halfspace_points(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            state = initial_ellipsoid(d)
            a = rng.normal(size=d)
            new = ellipsoid_update(state, a)
            # points of the old ellipsoid on the kept side stay inside
            L = np.linalg.cholesky(state.shape)
            for _ in range(20):
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                x = state.center + L @ (u * rng.uniform(0.0, 1.0))
                if a @ x <= a @ state.center:
                    quad = (x - new.center) @ np.linalg.solve(new.shape, x - new.center)
                    assert quad <= 1.0 + 1e-9

    def test_one_dimensional_update_halves(self):
        state = EllipsoidState(center=np.array([0.5]), shape=np.array([[0.25]]))
        new = ellipsoid_update(state, np.array([1.0]))
        # interval [0,1] cut at 0.5 keeping the left half [0, 0.5]
        assert new.center[0] == pytest.approx(0.25)
        assert new.shape[0, 0] == pytest.approx(0.0625)

    def test_rejects_zero_direction(self):
        state = initial_ellipsoid(3)
        with pytest.raises(ValueError):
            ellipsoid_update(state, np.zeros(3))

    def test_numerics_error_on_bad_shape(self):
        state = EllipsoidState(center=np.zeros(2), shape=-np.eye(2))
        with pytest.raises(EllipsoidNumericsError):
            ellipsoid_update(state, np.array([1.0, 0.0]))
