import tracemalloc

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
    covered_points,
    eval_cut,
    instance_from_json,
    verify_solution,
)
from nukc import model as model_module
from nukc.model import coverage_of_solution

from conftest import near_symmetric_instance, random_instance


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

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"), (-1.0, "nonnegative"),
    ])
    def test_rejects_entries_with_their_message(self, bad, message):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[0, 2] = d[2, 0] = bad
        for build in (MetricSpace.from_matrix, MetricSpace._trusted):
            with pytest.raises(MetricError, match=message):
                build(d)

    def test_empty_metric_constructs(self):
        assert MetricSpace.from_matrix(np.zeros((0, 0))).n == 0
        assert MetricSpace._trusted(np.zeros((0, 0))).n == 0

    def test_rejects_triangle_violation(self):
        d = np.array(
            [
                [0.0, 1.0, 5.0],
                [1.0, 0.0, 1.0],
                [5.0, 1.0, 0.0],
            ]
        )
        with pytest.raises(MetricError, match=r"triangle inequality violated at pair \(0, 2\)"):
            MetricSpace.from_matrix(d)

    def test_triangle_check_matches_the_tensor(self):
        # The check, one middle index at a time, must accept, reject and
        # report exactly as the n x n x n tensor of all sums d[i,j] + d[j,k].
        rng = np.random.default_rng(5)
        verdicts = set()
        for _ in range(120):
            n = int(rng.integers(1, 40))
            d = MetricSpace.from_points(rng.uniform(0, 10, size=(n, 2))).dist.copy()
            if rng.random() < 0.7 and n > 2:
                i, k = rng.choice(n, size=2, replace=False)
                d[i, k] = d[k, i] = d[i, k] * float(rng.uniform(0.3, 3.0))
            slack = (d[:, :, None] + d[None, :, :]).min(axis=1) - d
            if slack.min() < -1e-9:
                i, k = np.unravel_index(np.argmin(slack), slack.shape)
                message = f"at pair ({i}, {k}) by {-slack.min():.3g}"
                with pytest.raises(MetricError) as err:
                    MetricSpace.from_matrix(d)
                assert str(err.value).endswith(message)
            else:
                assert np.array_equal(MetricSpace.from_matrix(d).dist, d)
            verdicts.add(bool(slack.min() < -1e-9))
        assert verdicts == {True, False}

    def test_from_points_matches_the_difference_formula(self):
        # Generated instances must not change: the Euclidean distances are
        # the same floats as sqrt of the summed squared coordinate differences.
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, dim = int(rng.integers(2, 60)), int(rng.integers(1, 4))
            pts = rng.uniform(-1, 1, size=(n, dim)) * 10.0 ** rng.integers(-3, 7)
            diff = pts[:, None, :] - pts[None, :, :]
            expect = np.sqrt((diff * diff).sum(axis=2))
            expect = np.maximum(expect, expect.T)
            np.fill_diagonal(expect, 0.0)
            assert np.array_equal(MetricSpace.from_points(pts).dist, expect)

    def test_from_points_is_exactly_symmetric(self):
        # from_points skips the symmetry check: cdist computes (i, j) and
        # (j, i) alike, so the matrix equals its transpose bit for bit.
        rng = np.random.default_rng(12)
        for _ in range(40):
            n, dim = int(rng.integers(2, 80)), int(rng.integers(1, 4))
            pts = rng.uniform(-1e6, 1e6, size=(n, dim)) * 10.0 ** -rng.integers(0, 7)
            d = MetricSpace.from_points(pts).dist
            assert np.array_equal(d, d.T)

    @staticmethod
    def near_collinear(seed: int, scale: float) -> np.ndarray:
        rng = np.random.default_rng(seed)
        t = rng.random(30)
        return (t[:, None] * np.array([0.6, 0.8]) + 1e-9 * rng.random((30, 2))) * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_large_coordinates_load(self, seed):
        # Rounding of Euclidean distances at 1e7 exceeds METRIC_EPS, so a
        # triangle check rejects these genuine point sets; points skip it.
        pts = self.near_collinear(seed, 1e7)
        with pytest.raises(MetricError, match="triangle"):
            MetricSpace.from_matrix(MetricSpace.from_points(pts).dist)
        metric = MetricSpace.from_points(pts)
        doc = {"points": pts.tolist(), "r1": 1e6, "r2": 1e5, "k1": 1, "k2": 1, "m": 2}
        assert np.array_equal(instance_from_json(doc).metric.dist, metric.dist)

    @staticmethod
    def peak_bytes(build) -> int:
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_construction_memory_is_quadratic(self):
        # An n x n x n array of all sums d[i,j] + d[j,k] would take 8 GB and
        # 512 MB here; one n x n matrix is 8 MB and 1.3 MB.  from_points keeps
        # cdist's matrix: a second n x n array would reach 16 MB.
        pts = np.random.default_rng(3).random((1000, 2))
        assert self.peak_bytes(lambda: MetricSpace.from_points(pts)) < 12 * 2**20
        d = MetricSpace.from_points(pts[:400]).dist
        assert self.peak_bytes(lambda: MetricSpace.from_matrix(d)) < 32 * 2**20

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

    @pytest.mark.parametrize("mask", [np.array([True, False]), [False, True, True]])
    def test_restrict_rejects_boolean_mask(self, mask):
        metric = MetricSpace.from_points([(0, 0), (1, 0), (5, 0)])
        with pytest.raises(ValueError, match="boolean mask"):
            metric.restrict(mask)

    @pytest.mark.parametrize("points, bad", [([0.5, 2.7], "0.5"), ([1, 2.7], "2.7"), ([2, True], "True")])
    def test_restrict_rejects_non_integral_index(self, points, bad):
        # int() would truncate [0.5, 2.7] to the sub-metric on points [0, 2].
        metric = MetricSpace.from_points([(0, 0), (1, 0), (5, 0)])
        with pytest.raises(ValueError, match=f"restrict index {bad}"):
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

    @pytest.mark.parametrize("field", ["k1", "k2", "m"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.True_, np.float64(1.0), "1", None])
    def test_counts_must_be_integers(self, field, value):
        # A float budget never reaches 0 in the greedy, which then opened 4
        # large centers on k1 = 1.5 and failed its own verification.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            square_instance(**{field: value})

    def test_numpy_integer_counts_pass(self):
        inst = square_instance(k1=np.int64(1), k2=np.int32(1), m=np.uint8(3))
        assert (inst.k1, inst.k2, inst.m) == (1, 1, 3)

    def test_wellsep_requires_strict_separation(self):
        # corners at distance 1 with 4*r1 = 1: equality must be rejected
        inst = square_instance(r1=0.25, r2=0.1)
        with pytest.raises(ValueError):
            WellSepNUkCInstance(base=inst, y=(0, 1))
        ok = WellSepNUkCInstance(base=square_instance(r1=0.2, r2=0.1), y=(0, 3))
        assert ok.y == (0, 3)

    @pytest.mark.parametrize("y", [(0.5,), (3, 1.5), (True,), (np.True_,), ("0",)])
    def test_wellsep_rejects_non_integer_y(self, y):
        bad = next(v for v in y if type(v) is not int)
        with pytest.raises(ValueError, match=f"Y entry {bad!r} is not an integer"):
            WellSepNUkCInstance(base=square_instance(r1=0.2, r2=0.1), y=y)

    def test_wellsep_names_the_first_close_pair_in_y_order(self):
        # Pairs (3, 1) and (1, 0) are both 1 apart; (3, 1) comes first in Y.
        with pytest.raises(ValueError, match=r"d\(3,1\)=1.0 <= 4\*r1=1.0"):
            WellSepNUkCInstance(base=square_instance(r1=0.25, r2=0.1), y=(3, 1, 0))


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
        assert metric.covers(0, 1.0).tolist() == [True, True, False]
        assert metric.covers([2, 0], 1.5).tolist() == [[False, True, True], [True, True, False]]
        assert metric.covers(None, 0.0).tolist() == np.eye(3, dtype=bool).tolist()
        assert metric.covers((), 1.0).shape == (0, 3)
        assert metric.covers(slice(1, 3), 1.5).tolist() == [[True, True, True], [False, True, True]]


    def test_ball_rows_are_the_covers_rows(self):
        # The r2 rows are taken from the r1 table's entries: still exactly
        # the covers rows, on near-symmetric metrics and with r2 = 0 too.
        rng = np.random.default_rng(4)
        for t in range(90):
            if t % 3 == 2:
                metric = MetricSpace.from_points(rng.uniform(0.0, 10.0, size=(40, 2)))
                r1 = float(rng.uniform(0.5, 3.0))
                inst = NUkCInstance(metric, r1, r1 * float(rng.choice([0.0, 0.5])), 1, 1, 1)
            else:
                inst = near_symmetric_instance(rng) if t % 3 else random_instance(rng, max_n=12)
            for (start, points), r in zip(inst.balls, (inst.r1, inst.r2)):
                for u in range(inst.n):
                    want = np.flatnonzero(inst.metric.covers(u, r))
                    assert points[start[u] : start[u + 1]].tolist() == want.tolist()


    def test_ball_table_is_the_same_in_any_row_blocks(self, monkeypatch):
        # Blocks of one row, of a few rows and of the whole mask give the same
        # arrays, bit for bit, dtypes included; n = 0 still has its one block.
        rng = np.random.default_rng(8)
        instances = [NUkCInstance(MetricSpace.from_points(np.zeros((0, 2))), 1.0, 0.5, 1, 1, 0)]
        for t in range(12):
            metric = MetricSpace.from_points(rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 50)), 2)))
            r1 = float(rng.uniform(0.5, 4.0))
            instances.append(NUkCInstance(metric, r1, r1 * float(rng.choice([0.0, 0.4])), 1, 1, 1))
        for inst in instances:
            whole = inst.balls
            for block in (1, 7, 3 * inst.n + 1):
                monkeypatch.setattr(model_module, "_BALL_BLOCK", block)
                blocked = NUkCInstance(inst.metric, inst.r1, inst.r2, 1, 1, inst.m).balls
                for got, want in zip(blocked, whole):
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("centers1, centers2, bad", [((0.5,), (), "0.5"), ((), (True,), "True"),
                                                         ((1,), (2, 3.5), "3.5")])
    def test_non_integral_center_rejected(self, centers1, centers2, bad):
        # int() would truncate 0.5 to center 0 and True to center 1.
        with pytest.raises(ValueError, match=f"center {bad} is not an integer index"):
            NUkCSolution(centers1, centers2, 1.0)

    def test_negative_dilation_rejected(self):
        with pytest.raises(ValueError):
            NUkCSolution(centers1=(), centers2=(), dilation=-0.5)
        with pytest.raises(ValueError, match="nan"):
            NUkCSolution((), (), float("nan"))
