import numpy as np
import pytest

from nukc import (
    CoverageVector,
    Cut,
    MetricError,
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    WellSepNUkCInstance,
    ball,
    covered_points,
    eval_cut,
    verify_solution,
)
from nukc.model import coverage_of_solution


def square_instance(**overrides) -> NUkCInstance:
    """Unit square corners; side 1, diagonal sqrt(2)."""
    metric = MetricSpace.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    params = dict(metric=metric, r1=1.0, r2=0.5, k1=1, k2=1, m=3)
    params.update(overrides)
    return NUkCInstance(**params)


class TestMetricSpace:
    def test_from_points_euclidean(self):
        metric = MetricSpace.from_points([(0, 0), (3, 4)])
        assert metric.n == 2
        assert metric.dist[0, 1] == pytest.approx(5.0)
        assert metric.dist[1, 0] == pytest.approx(5.0)
        assert metric.coords is not None

    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MetricError):
            MetricSpace.from_matrix(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(MetricError):
            MetricSpace.from_matrix(d)

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(MetricError):
            MetricSpace.from_matrix(d)

    def test_rejects_triangle_violation(self):
        d = np.array(
            [
                [0.0, 1.0, 5.0],
                [1.0, 0.0, 1.0],
                [5.0, 1.0, 0.0],
            ]
        )
        with pytest.raises(MetricError, match="triangle"):
            MetricSpace.from_matrix(d)

    def test_accepts_shortest_path_metric(self):
        d = np.array(
            [
                [0.0, 1.0, 2.0],
                [1.0, 0.0, 1.0],
                [2.0, 1.0, 0.0],
            ]
        )
        metric = MetricSpace.from_matrix(d)
        assert metric.n == 3
        assert metric.coords is None

    def test_arrays_are_write_protected(self):
        metric = MetricSpace.from_points([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            metric.dist[0, 1] = 7.0

    def test_restrict_keeps_submatrix(self):
        metric = MetricSpace.from_points([(0, 0), (1, 0), (5, 0)])
        sub = metric.restrict([0, 2])
        assert sub.n == 2
        assert sub.dist[0, 1] == pytest.approx(5.0)
        assert sub.coords.tolist() == [[0.0, 0.0], [5.0, 0.0]]
        with pytest.raises(ValueError):
            sub.dist[0, 1] = 7.0
        with pytest.raises(ValueError):
            sub.coords[0, 0] = 7.0

    def test_restrict_allows_repeated_indices(self):
        metric = MetricSpace.from_matrix([[0.0, 2.0], [2.0, 0.0]])
        sub = metric.restrict([1, 1, 0])
        assert sub.dist.tolist() == [[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
        assert sub.coords is None
        assert metric.restrict([]).n == 0

    @pytest.mark.parametrize("points", [[-1], [0, 3], [1, 7, 0]])
    def test_restrict_rejects_out_of_range_index(self, points):
        metric = MetricSpace.from_points([(0, 0), (1, 0), (5, 0)])
        bad = next(v for v in points if not 0 <= v < 3)
        with pytest.raises(ValueError, match=f"index {bad} out of range"):
            metric.restrict(points)

    def test_equality_by_contents(self):
        a = MetricSpace.from_points([(0, 0), (1, 0)])
        b = MetricSpace.from_points([(0, 0), (1, 0)])
        assert a == b


class TestInstances:
    def test_radius_order_enforced(self):
        with pytest.raises(ValueError):
            square_instance(r1=0.5, r2=0.5)
        with pytest.raises(ValueError):
            square_instance(r2=-0.1)

    def test_zero_small_radius_allowed(self):
        inst = square_instance(r2=0.0)
        assert inst.r2 == 0.0

    def test_scaled_multiplies_radii(self):
        inst = square_instance()
        double = inst.scaled(2.0)
        assert double.r1 == pytest.approx(2.0)
        assert double.r2 == pytest.approx(1.0)
        assert double.m == inst.m

    def test_wellsep_requires_strict_separation(self):
        # corners at distance 1 with 4*r1 = 1: equality must be rejected
        inst = square_instance(r1=0.25, r2=0.1)
        with pytest.raises(ValueError):
            WellSepNUkCInstance(base=inst, y=(0, 1))
        ok = WellSepNUkCInstance(base=square_instance(r1=0.2, r2=0.1), y=(0, 3))
        assert ok.y == (0, 3)


class TestCoverageAndCuts:
    def test_vector_round_trip(self):
        cov = CoverageVector(np.array([0.5, 0.0]), np.array([0.25, 1.0]))
        again = CoverageVector.from_vector(cov.to_vector())
        assert np.array_equal(again.cov1, cov.cov1)
        assert np.array_equal(again.cov2, cov.cov2)

    def test_from_vector_rejects_odd_length(self):
        with pytest.raises(ValueError):
            CoverageVector.from_vector(np.zeros(3))

    def test_eval_cut_is_slack(self):
        cov = CoverageVector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        cut = Cut(a1=np.array([1.0, 0.0]), a2=np.array([0.0, 1.0]), b=1.5, kind="t")
        assert eval_cut(cut, cov) == pytest.approx(-0.5)

    def test_ball_is_closed(self):
        metric = MetricSpace.from_points([(0, 0), (1, 0), (2.5, 0)])
        assert list(ball(metric, 0, 1.0)) == [0, 1]


class TestSolutions:
    def test_verify_accepts_planted_square(self):
        inst = square_instance()
        sol = NUkCSolution(centers1=(0,), centers2=(3,), dilation=1.0)
        ok, count = verify_solution(inst, sol, 1.0)
        assert ok and count == 4

    def test_verify_rejects_budget_violation(self):
        inst = square_instance()
        sol = NUkCSolution(centers1=(0, 1), centers2=(), dilation=1.0)
        ok, _ = verify_solution(inst, sol, 1.0)
        assert not ok

    def test_verify_rejects_bad_index(self):
        inst = square_instance()
        sol = NUkCSolution(centers1=(9,), centers2=(), dilation=1.0)
        ok, _ = verify_solution(inst, sol, 1.0)
        assert not ok

    def test_verify_counts_at_dilation(self):
        inst = square_instance(m=4, k2=0)
        sol = NUkCSolution(centers1=(0,), centers2=(), dilation=1.0)
        ok, count = verify_solution(inst, sol, 1.0)
        assert not ok and count == 3  # diagonal corner is sqrt(2) away
        ok, count = verify_solution(inst, sol, 1.5)
        assert ok and count == 4

    def test_covered_points_zero_radius(self):
        inst = square_instance(r2=0.0)
        sol = NUkCSolution(centers1=(), centers2=(2,), dilation=1.0)
        assert list(covered_points(inst, sol, 1.0)) == [2]

    def test_coverage_prefers_large_class(self):
        inst = square_instance()
        cov = coverage_of_solution(inst, (0,), (1,))
        # point 1 is inside both balls; it must count only as large coverage
        assert cov.cov1[1] == 1.0
        assert cov.cov2[1] == 0.0

    def test_negative_dilation_rejected(self):
        with pytest.raises(ValueError):
            NUkCSolution(centers1=(), centers2=(), dilation=-0.5)
