"""Instance generators: planted ground truth, determinism, metric validity."""

import numpy as np
import pytest

from nukc import (
    MetricSpace,
    NUkCSolution,
    graph_instance,
    planted_instance,
    planted_kcenter_instance,
    uniform_instance,
    verify_solution,
)


class TestPlanted:
    def test_truth_witnesses_feasibility(self):
        for seed in range(12):
            inst, truth = planted_instance(seed, clusters=3, points_per_cluster=4)
            witness = NUkCSolution(
                centers1=truth.centers1, centers2=truth.centers2, dilation=1.0
            )
            ok, count = verify_solution(inst, witness, 1.0)
            assert ok and count >= inst.m
            assert len(truth.centers1) == inst.k1
            assert len(truth.centers2) == inst.k2
            assert len(truth.outliers) == inst.n - inst.m

    def test_outliers_marked_in_cluster_map(self):
        inst, truth = planted_instance(7)
        for v in truth.outliers:
            assert truth.cluster_of[v] == -1
        assert sum(c == -1 for c in truth.cluster_of) == len(truth.outliers)
        assert len(truth.cluster_of) == inst.n

    def test_deterministic(self):
        a, ta = planted_instance(42)
        b, tb = planted_instance(42)
        assert np.array_equal(a.metric.dist, b.metric.dist)
        assert ta == tb

    def test_first_cluster_always_large(self):
        # Both budgets must matter, so k1 >= 1 whatever the class draw does.
        for seed in range(8):
            inst, _ = planted_instance(seed, clusters=2)
            assert inst.k1 >= 1
            assert inst.k1 + inst.k2 == 2


class TestPlantedKCenter:
    def test_poses_robust_kcenter(self):
        inst, truth = planted_kcenter_instance(3, clusters=2, outliers=2)
        assert inst.r2 == 0.0
        assert inst.k2 == 2
        assert inst.m == inst.n
        witness = NUkCSolution(
            centers1=truth.centers1, centers2=truth.centers2, dilation=1.0
        )
        ok, count = verify_solution(inst, witness, 1.0)
        assert ok and count == inst.n

    def test_strays_covered_by_zero_balls(self):
        _, truth = planted_kcenter_instance(9)
        assert truth.centers2 == truth.outliers


class TestUniform:
    def test_shape_and_default_target(self):
        inst = uniform_instance(1, n=10, r1=0.3, r2=0.1, k1=2, k2=2)
        assert inst.n == 10
        assert inst.m == 8
        assert inst.r1 == 0.3 and inst.r2 == 0.1

    def test_explicit_target_and_determinism(self):
        a = uniform_instance(5, n=6, r1=0.4, r2=0.2, k1=1, k2=1, m=4)
        b = uniform_instance(5, n=6, r1=0.4, r2=0.2, k1=1, k2=1, m=4)
        assert a.m == 4
        assert np.array_equal(a.metric.dist, b.metric.dist)


class TestGraph:
    def test_connected_and_radii_ordered(self):
        for seed in range(10):
            inst = graph_instance(seed, n=9, k1=2, k2=1)
            assert np.all(np.isfinite(inst.metric.dist))
            assert inst.r1 > inst.r2 >= 0.0
            assert inst.m == 8  # ceil(0.8 * 9)

    def test_extra_edges_only_shorten_paths(self):
        sparse = graph_instance(4, n=8, k1=1, k2=1, extra_edges=0)
        dense = graph_instance(4, n=8, k1=1, k2=1, extra_edges=20)
        assert np.all(dense.metric.dist <= sparse.metric.dist + 1e-12)

    def test_metric_equals_its_transpose_exactly(self):
        # The metric skips the symmetry check: (d + d.T) / 2 is symmetric bit for bit.
        for seed in range(30):
            n = int(np.random.default_rng(seed).integers(2, 80))
            d = graph_instance(seed, n=n, k1=2, k2=2).metric.dist
            assert np.array_equal(d, d.T)

    def test_deterministic(self):
        a = graph_instance(2, n=7, k1=1, k2=2)
        b = graph_instance(2, n=7, k1=1, k2=2)
        assert np.array_equal(a.metric.dist, b.metric.dist)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "make",
    [
        lambda s: planted_instance(s, 3, 5, 2)[0],
        lambda s: planted_instance(s, 6, 9, 6)[0],
        lambda s: planted_instance(s, 10, 11, 10)[0],
        lambda s: planted_kcenter_instance(s, 2, 6, 2)[0],
        lambda s: planted_kcenter_instance(s, 8, 14, 8)[0],
        lambda s: uniform_instance(s, 5, 0.3, 0.1, 1, 1),
        lambda s: uniform_instance(s, 120, 0.1, 0.05, 4, 4),
        lambda s: graph_instance(s, 2, 1, 1),
        lambda s: graph_instance(s, 60, 2, 2),
        lambda s: graph_instance(s, 120, 4, 4),
    ],
)
def test_generated_metrics_pass_the_full_check(make, seed):
    # Generators build trusted metrics that skip the triangle check; the
    # validating constructor must accept every one of them unchanged.
    metric = make(seed).metric
    assert 2 <= metric.n <= 120
    assert MetricSpace(metric.dist, metric.coords) == metric
