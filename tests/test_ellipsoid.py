import math

import numpy as np
import pytest

from nukc.ellipsoid import (
    EllipsoidNumericsError,
    EllipsoidState,
    OracleContractError,
    Rounded,
    RoundOrCutConfig,
    Separating,
    default_max_iters,
    det_shrink_ratio,
    ellipsoid_update,
    initial_ellipsoid,
    run_round_or_cut,
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

    def test_determinant_ratio_matches_update(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 5, 12):
            base = rng.normal(size=(d, d))
            shape = base @ base.T + d * np.eye(d)
            state = EllipsoidState(center=np.zeros(d), shape=shape)
            new = ellipsoid_update(state, rng.normal(size=d))
            measured = np.linalg.det(new.shape) / np.linalg.det(shape)
            assert measured == pytest.approx(det_shrink_ratio(d), rel=1e-9)

    def test_shrink_ratio_closed_form(self):
        assert det_shrink_ratio(1) == pytest.approx(0.25)
        assert det_shrink_ratio(2) == pytest.approx(16.0 / 27.0, rel=1e-12)
        for d in (8, 20):
            expected = (d * d / (d * d - 1.0)) ** d * (d - 1.0) / (d + 1.0)
            assert det_shrink_ratio(d) == pytest.approx(expected, rel=1e-12)

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


class TestDefaults:
    def test_iteration_cap_formula(self):
        for d in (1, 2, 20, 64):
            assert default_max_iters(d) == math.ceil(
                2.0 * d * (d + 1) * math.log(d * 1e4)
            )


class TestEngine:
    def test_finds_small_target_box(self):
        target = np.array([0.31, 0.62])

        def oracle(x):
            if np.all(np.abs(x - target) <= 0.05):
                return Rounded(("hit", x.copy()))
            i = int(np.argmax(np.abs(x - target)))
            a = np.zeros(2)
            a[i] = 1.0 if x[i] > target[i] else -1.0
            return Separating(a=a, b=float(a @ target) + 0.05)

        res = run_round_or_cut(2, oracle)
        assert res.status == "rounded"
        tag, point = res.payload
        assert tag == "hit" and np.all(np.abs(point - target) <= 0.05)

    def test_infeasible_exhausts_cap_and_collects_cuts(self):
        # Chases the hyperplane x0 = 0 with ever-smaller violated cuts; the
        # kept region never empties, so only the cap can end the run.
        def oracle(x):
            a = np.array([1.0, 0.0]) if x[0] > 0 else np.array([-1.0, 0.0])
            return Separating(a=a, b=abs(float(x[0])) / 2.0)

        res = run_round_or_cut(2, oracle, RoundOrCutConfig(max_iters=17))
        assert res.status == "infeasible"
        assert res.iterations == 17
        assert len(res.cuts) == 17
        assert all(cut.kind == "raw" for cut in res.cuts)

    def test_cut_beyond_width_certifies_empty(self):
        # Violation 1.0 exceeds the starting half-width sqrt(1/2) along e0,
        # so the very first cut already excludes the whole ellipsoid.
        def oracle(x):
            return Separating(a=np.array([1.0, 0.0]), b=float(x[0]) - 1.0)

        res = run_round_or_cut(2, oracle)
        assert res.status == "infeasible"
        assert res.iterations == 0
        assert len(res.cuts) == 1

    def test_stop_radius_ends_run_before_cap(self):
        # Alternating axis cuts shrink both semi-axes toward the point p
        # without ever certifying emptiness; stop_radius must bail us out.
        p = np.array([0.3, 0.7])
        calls = {"i": 0}

        def oracle(x):
            i = calls["i"] % 2
            calls["i"] += 1
            a = np.zeros(2)
            a[i] = 1.0 if x[i] > p[i] else -1.0
            return Separating(a=a, b=float(a @ p) + abs(float(x[i] - p[i])) / 2.0)

        res = run_round_or_cut(2, oracle, RoundOrCutConfig(stop_radius=0.05))
        assert res.status == "infeasible"
        assert 0 < res.iterations < default_max_iters(2)

    def test_contract_violation_raises(self):
        def oracle(x):
            return Separating(a=np.array([1.0, 0.0]), b=float(x[0]) + 1.0)

        with pytest.raises(OracleContractError):
            run_round_or_cut(2, oracle)

    def test_rounds_immediately_at_center(self):
        def oracle(x):
            return Rounded("done")

        res = run_round_or_cut(4, oracle)
        assert res.status == "rounded"
        assert res.iterations == 0
