from dataclasses import replace

import numpy as np
import pytest

from nukc import (
    Cut,
    HullChecker,
    MetricSpace,
    NUkCInstance,
    SizeGuardError,
    brute_force_nukc,
    hull_coverage_vectors,
    validate_cut_on_hull,
)
from nukc.bruteforce import _combo_count


def line_instance(xs, **kw) -> NUkCInstance:
    metric = MetricSpace.from_points([(x, 0.0) for x in xs])
    params = dict(metric=metric, r1=1.0, r2=0.25, k1=1, k2=1, m=2)
    params.update(kw)
    return NUkCInstance(**params)


class TestEnumeration:
    def test_known_optimum(self):
        # r1 ball at 1.0 covers {0,1,2}; r2 ball adds the far point
        inst = line_instance([0.0, 1.0, 2.0, 10.0], m=4)
        res = brute_force_nukc(inst)
        assert res.feasible and res.best_covered == 4
        assert 3 in res.witness.centers2 or 3 in res.witness.centers1

    def test_infeasible_counts_best(self):
        inst = line_instance([0.0, 5.0, 10.0, 15.0], m=3, r2=0.0)
        res = brute_force_nukc(inst)
        assert not res.feasible and res.best_covered == 2

    def test_respects_dilation(self):
        inst = line_instance([0.0, 1.5, 3.0], k2=0, m=3)
        assert not brute_force_nukc(inst).feasible
        assert brute_force_nukc(inst, rho=1.5).feasible

    def test_restricting_large_centers(self):
        inst = line_instance([0.0, 1.0, 2.0, 10.0], m=3, k2=0)
        assert brute_force_nukc(inst).feasible  # center 1 covers three
        res = brute_force_nukc(replace(inst, y=[0, 3]))
        assert not res.feasible and res.best_covered == 2

    def test_duplicate_points_deduplicated_but_counted(self):
        inst = line_instance([0.0, 0.0, 0.0, 9.0], k2=0, m=3)
        res = brute_force_nukc(inst)
        assert res.feasible and res.best_covered == 3

    def test_size_guard(self):
        inst = line_instance(list(np.linspace(0, 50, 9)), k1=2, k2=2)
        with pytest.raises(SizeGuardError):
            brute_force_nukc(inst, max_combos=10)

    def test_combo_count_includes_smaller_subsets(self):
        assert _combo_count(4, 2) == 1 + 4 + 6
        assert _combo_count(1, 3) == 2


class TestHull:
    def test_vertices_of_tiny_instance(self):
        # two far points, one large ball, m=1: solutions are center at 0 or 1
        inst = line_instance([0.0, 9.0], k1=1, k2=0, m=1)
        verts = hull_coverage_vectors(inst)
        got = sorted(tuple(cov.to_vector()) for _, cov in verts)
        assert got == [
            (0.0, 1.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.0),
        ]

    def test_small_coverage_never_double_counts(self):
        inst = line_instance([0.0, 0.2, 9.0], k1=1, k2=1, m=2)
        for _, cov in hull_coverage_vectors(inst):
            assert np.all(cov.cov1 + cov.cov2 <= 1.0)

    def test_infeasible_instance_has_empty_hull(self):
        inst = line_instance([0.0, 9.0, 18.0], k1=1, k2=0, m=3)
        assert hull_coverage_vectors(inst) == []
        anything = Cut(a1=np.ones(3), a2=np.ones(3), b=-100.0, kind="t")
        assert validate_cut_on_hull(inst, anything)

    def test_validate_accepts_budget_cut(self):
        inst = line_instance([0.0, 9.0, 18.0], k1=1, k2=1, m=2)
        cut = Cut(a1=np.ones(3), a2=np.zeros(3), b=float(inst.k1), kind="t")
        assert validate_cut_on_hull(inst, cut)

    def test_validate_rejects_false_inequality(self):
        inst = line_instance([0.0, 9.0, 18.0], k1=1, k2=1, m=2)
        cut = Cut(a1=np.ones(3), a2=np.ones(3), b=1.0, kind="t")  # claims <= 1 covered
        assert not validate_cut_on_hull(inst, cut)

    def test_checker_matches_single_shot(self):
        rng = np.random.default_rng(31)
        inst = line_instance([0.0, 0.7, 2.0, 2.5], k1=1, k2=2, m=3)
        checker = HullChecker(inst)
        for _ in range(40):
            cut = Cut(
                a1=rng.normal(size=4), a2=rng.normal(size=4),
                b=float(rng.normal()), kind="t",
            )
            assert checker.validate(cut) == validate_cut_on_hull(inst, cut)

    def test_respects_y_restriction(self):
        inst = line_instance([0.0, 1.0, 9.0], k1=1, k2=0, m=2)
        all_verts = hull_coverage_vectors(inst)
        y_verts = hull_coverage_vectors(replace(inst, y=[2]))
        assert len(all_verts) > 0
        assert y_verts == []  # center 2 covers only itself, below m
