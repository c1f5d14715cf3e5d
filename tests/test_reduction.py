from dataclasses import replace

import numpy as np
import pytest

from nukc import (
    MetricSpace,
    NUkCInstance,
    TwoFFSolution,
    frac_ff_solution,
    lift_ff_solution,
    reduce_to_firefighter,
)
from nukc.model import CoverageVector, coverage_of_solution

from conftest import random_instance


def random_box_coverage(rng, n) -> CoverageVector:
    cov1 = rng.uniform(0.0, 1.0, n)
    cov2 = rng.uniform(0.0, 1.0, n) * (1.0 - cov1)
    return CoverageVector(cov1, cov2)


def line_instance(xs, r1=1.0, r2=0.25, k1=1, k2=1, m=1) -> NUkCInstance:
    metric = MetricSpace.from_points([(x, 0.0) for x in xs])
    return NUkCInstance(metric=metric, r1=r1, r2=r2, k1=k1, k2=k2, m=m)


class TestForestStructure:
    def test_two_layer_shape(self):
        # two groups 30 apart; within a group, points 0.6 apart (> 2*r2=0.5)
        inst = line_instance([0.0, 0.6, 30.0, 30.6], m=3)
        cov = CoverageVector(np.zeros(4), np.zeros(4))
        tree = reduce_to_firefighter(inst, 2.0, 2.0, cov)
        assert tree.leaves == (0, 1, 2, 3)  # all separated beyond 2*r2
        assert set(tree.roots) == {0, 2}
        assert tree.parent[1] == 0 and tree.parent[3] == 2
        assert tree.w == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_leaf_weights_count_clusters(self):
        # 0.1-spaced pair merges at radius 2*r2 = 0.5
        inst = line_instance([0.0, 0.1, 30.0])
        cov = CoverageVector(np.zeros(3), np.array([0.2, 0.9, 0.0]))
        tree = reduce_to_firefighter(inst, 2.0, 2.0, cov)
        # point 1 has the higher total coverage, so it represents the pair
        assert 1 in tree.leaves and 0 not in tree.leaves
        assert tree.w[1] == 2
        assert sum(tree.w.values()) == 3

    def test_invariants_random(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            inst = random_instance(rng)
            cov = random_box_coverage(rng, inst.n)
            tree = reduce_to_firefighter(inst, 8.0, 2.0, cov)
            d = inst.metric.dist
            assert set(tree.roots) <= set(tree.leaves)
            for u in tree.roots:
                assert tree.parent[u] == u
            assert sum(tree.w.values()) == inst.n
            covered = sorted(
                p for v in tree.leaves for p in tree.child2[v]
            )
            assert covered == list(range(inst.n))
            for i, u in enumerate(tree.roots):
                for v in tree.roots[i + 1 :]:
                    assert d[u, v] > 8.0 * inst.r1
            for i, u in enumerate(tree.leaves):
                for v in tree.leaves[i + 1 :]:
                    assert d[u, v] > 2.0 * inst.r2

    def test_priority_pulls_roots_into_y(self):
        # 0 and 1 tie at zero coverage and share a root cluster, but only 1
        # is within r1 of y, so priority makes it the representative
        inst = line_instance([0.0, 1.5, 30.0])
        cov = CoverageVector(np.zeros(3), np.zeros(3))
        tree = reduce_to_firefighter(replace(inst, y=[1, 2]), 2.0, 2.0, cov)
        assert 1 in tree.roots and 0 not in tree.roots
        assert tree.parent[0] == 1

    def test_rejects_alpha_misuse(self):
        inst = line_instance([0.0, 1.0])
        cov = CoverageVector(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            reduce_to_firefighter(inst, 0.0, 2.0, cov)
        with pytest.raises(ValueError):
            reduce_to_firefighter(inst, 2.0, -1.0, cov)

    def test_rejects_size_mismatch(self):
        inst = line_instance([0.0, 1.0])
        cov = CoverageVector(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            reduce_to_firefighter(inst, 2.0, 2.0, cov)


class TestFractionalValue:
    def test_value_at_least_total_mass(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            inst = random_instance(rng)
            cov = random_box_coverage(rng, inst.n)
            tree = reduce_to_firefighter(inst, 2.0, 2.0, cov)
            frac = frac_ff_solution(tree, cov)
            mass = float((cov.cov1 + cov.cov2).sum())
            assert frac.value >= mass - 1e-9

    def test_integral_coverage_value_counts_covered(self):
        inst = line_instance([0.0, 0.6, 30.0], m=2)
        cov = coverage_of_solution(inst, (0,), (2,))
        tree = reduce_to_firefighter(inst, 2.0, 2.0, cov)
        frac = frac_ff_solution(tree, cov)
        assert frac.value >= 3.0 - 1e-12

    def test_requires_both_factors_at_least_two(self):
        inst = line_instance([0.0, 1.0])
        cov = CoverageVector(np.zeros(2), np.zeros(2))
        tree = reduce_to_firefighter(inst, 1.5, 2.0, cov)
        with pytest.raises(ValueError):
            frac_ff_solution(tree, cov)


class TestLift:
    def test_lift_dilation_and_centers(self):
        inst = line_instance([0.0, 0.6, 30.0], m=2)
        cov = CoverageVector(np.zeros(3), np.zeros(3))
        tree = reduce_to_firefighter(inst, 2.0, 2.0, cov)
        sol = lift_ff_solution(tree, TwoFFSolution(t1=(0,), t2=(2,), value=3))
        assert sol.dilation == pytest.approx(4.0)
        assert sol.centers1 == (0,) and sol.centers2 == (2,)

    def test_lift_rejects_over_budget(self):
        inst = line_instance([0.0, 0.6, 30.0])
        cov = CoverageVector(np.zeros(3), np.zeros(3))
        tree = reduce_to_firefighter(inst, 2.0, 2.0, cov)
        with pytest.raises(ValueError):
            lift_ff_solution(tree, TwoFFSolution(t1=(0, 2), t2=(), value=3))
