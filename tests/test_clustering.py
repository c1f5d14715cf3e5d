import numpy as np
import pytest

from nukc import MetricSpace, hs_partition

from conftest import random_metric


def line_metric(*xs: float) -> MetricSpace:
    return MetricSpace.from_points([(x, 0.0) for x in xs])


def check_partition_invariants(metric, points, radius, cov, result):
    """The four contracted properties of the greedy radius partition."""
    d = metric.dist
    parent = result.parent_of()
    # (a) every child lies within the radius of its representative
    for rep, children in result.child.items():
        for v in children:
            assert d[rep, v] <= radius + 1e-12
    # (b) representatives are pairwise strictly more than radius apart
    reps = result.reps
    for i, u in enumerate(reps):
        for v in reps[i + 1 :]:
            assert d[u, v] > radius
    # (c) the classes partition the input point set
    all_children = [v for children in result.child.values() for v in children]
    assert sorted(all_children) == sorted(points)
    assert set(parent) == set(points)
    # (d) a representative's coverage is at least each of its children's
    for rep, children in result.child.items():
        for v in children:
            assert cov[rep] >= cov[v]


class TestGreedyPartition:
    def test_single_cluster(self):
        metric = line_metric(0.0, 0.5, 1.0)
        cov = np.array([0.1, 0.9, 0.2])
        res = hs_partition(metric, range(3), 1.0, cov)
        assert res.reps == (1,)
        assert res.child[1] == (0, 1, 2)

    def test_two_clusters_by_coverage_order(self):
        metric = line_metric(0.0, 0.5, 10.0)
        cov = np.array([0.2, 0.1, 0.9])
        res = hs_partition(metric, range(3), 1.0, cov)
        assert res.reps == (2, 0)
        assert res.child[0] == (0, 1)

    def test_tie_breaks_prefer_priority_then_index(self):
        metric = line_metric(0.0, 0.5, 1.0)
        cov = np.zeros(3)
        res = hs_partition(metric, range(3), 2.0, cov)
        assert res.reps == (0,)  # all tied: lowest index
        res = hs_partition(
            metric, range(3), 2.0, cov, priority=np.array([False, False, True])
        )
        assert res.reps == (2,)  # priority wins the tie
        cov2 = np.array([0.5, 0.0, 0.0])
        res = hs_partition(
            metric, range(3), 2.0, cov2, priority=np.array([False, False, True])
        )
        assert res.reps == (0,)  # higher coverage beats priority

    def test_subset_of_points(self):
        metric = line_metric(0.0, 0.5, 1.0, 30.0)
        cov = np.array([0.0, 1.0, 0.0, 0.5])
        res = hs_partition(metric, [1, 3], 1.0, cov)
        assert res.reps == (1, 3)
        assert res.child[1] == (1,)

    def test_rejects_repeated_points(self):
        metric = line_metric(0.0, 1.0)
        with pytest.raises(ValueError):
            hs_partition(metric, [0, 0], 1.0, np.zeros(2))

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_rejects_out_of_range_points(self, bad):
        # Unchecked, -1 would read point 11's row and name a representative -1.
        metric = line_metric(*range(12))
        with pytest.raises(ValueError, match=f"index {bad} out of range"):
            hs_partition(metric, [0, bad], 0.1, np.zeros(12))

    @pytest.mark.parametrize("points, bad", [([0.5, 1.7], "0.5"), ([0, False], "False")])
    def test_rejects_non_integral_points(self, points, bad):
        # int() would truncate [0.5, 1.7] and partition points [0, 1].
        metric = line_metric(0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match=f"point {bad} is not an integer index"):
            hs_partition(metric, points, 1.0, np.zeros(3))

    def test_rejects_negative_radius(self):
        metric = line_metric(0.0, 1.0)
        with pytest.raises(ValueError):
            hs_partition(metric, [0, 1], -0.5, np.zeros(2))

    def test_zero_radius_separates_distinct_points(self):
        metric = line_metric(0.0, 0.0, 1.0)  # two coincident points
        cov = np.array([0.0, 0.3, 0.2])
        res = hs_partition(metric, range(3), 0.0, cov)
        assert res.reps == (1, 2)
        assert res.child[1] == (0, 1)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        metric = random_metric(rng, 8)
        cov = rng.uniform(size=8)
        a = hs_partition(metric, range(8), 0.7, cov)
        b = hs_partition(metric, range(8), 0.7, cov)
        assert a.reps == b.reps and a.child == b.child

    def test_invariants_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            metric = random_metric(rng, n)
            points = list(range(n))
            if rng.random() < 0.3 and n > 2:
                points = sorted(
                    int(v)
                    for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
                )
            radius = float(rng.uniform(0.0, 3.0))
            cov = rng.uniform(size=n)
            priority = rng.random(n) < 0.5 if rng.random() < 0.5 else None
            res = hs_partition(metric, points, radius, cov, priority=priority)
            check_partition_invariants(metric, points, radius, cov, res)

    def test_matches_the_set_scan(self):
        # Ties in coverage, priority and distance (radius set to a distance
        # of the metric), subsets in any order, zero radius.
        rng = np.random.default_rng(7)
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            metric = random_metric(rng, n)
            points = [int(v) for v in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            radius = float(rng.choice(metric.dist.ravel())) * float(rng.choice([1.0, 1.0, 0.7]))
            cov = rng.integers(0, 3, size=n) / 2.0
            priority = rng.random(n) < 0.5 if rng.random() < 0.5 else None
            got = hs_partition(metric, points, radius, cov, priority=priority)
            want = set_scan_partition(metric, points, radius, cov, priority)
            assert (got.reps, got.child) == want, (points, radius, cov, priority)


def set_scan_partition(metric, points, radius, cov, priority):
    """The scan over an insertion-ordered set of unassigned points that
    ``hs_partition`` replaced: the reference for its output."""
    def key(v):
        return (-cov[v], 0 if (priority is not None and bool(priority[v])) else 1, v)

    d = metric.dist
    unassigned = dict.fromkeys(sorted(points, key=key))
    reps, child = [], {}
    while unassigned:
        u = next(iter(unassigned))
        members = tuple(sorted(v for v in unassigned if d[u, v] <= radius))
        for v in members:
            del unassigned[v]
        reps.append(u)
        child[u] = members
    return tuple(reps), child
