"""End-to-end feasibility solver: short-circuits, brute-force agreement,
cut validity, and the dilation optimizer."""

import math

import numpy as np
import pytest

from nukc import (
    MetricSpace,
    NUkCInstance,
    SolverConfig,
    ball,
    brute_force_nukc,
    hs_partition,
    optimize,
    planted_instance,
    solve_feasibility,
    uniform_instance,
    validate_cut_on_hull,
    verify_solution,
)
from nukc.outer import enumerate_candidates

from conftest import random_instance, random_metric


def euclidean(points, r1, r2, k1, k2, m):
    return NUkCInstance(MetricSpace.from_points(points), r1, r2, k1, k2, m)


class TestShortCircuits:
    def test_zero_target_is_trivially_feasible(self):
        inst = euclidean([[0.0], [5.0]], 1.0, 0.5, 0, 0, 0)
        res = solve_feasibility(inst)
        assert res.status == "solution"
        assert res.method == "trivial"
        assert res.solution.centers1 == () and res.solution.centers2 == ()

    def test_target_above_point_count(self):
        inst = euclidean([[0.0], [5.0]], 1.0, 0.5, 2, 2, 3)
        res = solve_feasibility(inst)
        assert res.status == "infeasible"
        assert res.method == "trivial"

    def test_no_budgets_no_coverage(self):
        inst = euclidean([[0.0], [5.0]], 1.0, 0.5, 0, 0, 1)
        res = solve_feasibility(inst)
        assert res.status == "infeasible"
        assert res.method == "trivial"

    def test_budgets_matching_target_cover_themselves(self):
        # Spread out so no ball covers two points: only self-coverage works.
        pts = [[0.0], [100.0], [200.0], [300.0], [400.0]]
        inst = euclidean(pts, 1.0, 0.5, 2, 1, 3)
        res = solve_feasibility(inst)
        assert res.status == "solution"
        assert res.method == "trivial"
        ok, count = verify_solution(inst, res.solution, res.solution.dilation)
        assert ok and count >= inst.m
        assert len(res.solution.centers1) <= inst.k1
        assert len(res.solution.centers2) <= inst.k2


class TestAgainstBruteForce:
    def test_planted_instance_solves(self):
        inst, _ = planted_instance(seed=5)
        res = solve_feasibility(inst)
        assert res.status == "solution"
        assert res.solution.dilation <= 10.0
        ok, count = verify_solution(inst, res.solution, res.solution.dilation)
        assert ok and count >= inst.m

    def test_random_agreement_default_config(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            inst = random_instance(rng, max_n=8)
            brute = brute_force_nukc(inst)
            res = solve_feasibility(inst)
            if brute.feasible:
                assert res.status == "solution", (inst, res.method)
            if res.status == "infeasible":
                assert not brute.feasible, (inst, res.method)
            else:
                assert res.solution.dilation <= 10.0
                ok, count = verify_solution(inst, res.solution, res.solution.dilation)
                assert ok and count >= inst.m

    def test_no_shortcut_agreement_and_cut_validity(self):
        rng = np.random.default_rng(77)
        cfg = SolverConfig(shortcuts=False)
        checked = 0
        for _ in range(12):
            inst = random_instance(rng, max_n=6)
            brute = brute_force_nukc(inst)
            res = solve_feasibility(inst, cfg)
            assert res.method in ("trivial", "round", "lp-empty", "cap")
            if brute.feasible:
                assert res.status == "solution"
            if res.status == "infeasible":
                assert not brute.feasible
            else:
                ok, count = verify_solution(inst, res.solution, res.solution.dilation)
                assert ok and count >= inst.m
            for cut in res.cuts:
                assert validate_cut_on_hull(inst, cut), cut.kind
                checked += 1
            for cand, inner in res.inner_runs:
                for cut in inner.cuts:
                    assert validate_cut_on_hull(
                        cand.instance.base, cut, restrict_y=cand.instance.y
                    ), cut.kind
                    checked += 1
        assert checked > 0  # the corpus must actually exercise cuts


class TestCandidates:
    def test_candidates_match_validated_construction(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(4, 15))
            metric = random_metric(rng, n)
            r1 = float(metric.dist.max()) * float(rng.uniform(0.02, 0.15)) or 1.0
            inst = NUkCInstance(metric, r1, 0.5 * r1, int(rng.integers(1, 4)), 1,
                                int(rng.integers(1, n + 1)))
            reps = hs_partition(metric, range(n), 8.0 * r1, rng.uniform(size=n)).reps
            y = sorted(rng.choice(reps, size=int(rng.integers(0, len(reps) + 1)),
                                  replace=False).tolist())
            cands = enumerate_candidates(inst, y)
            assert isinstance(cands, list)
            assert cands[0].q is None and cands[0].instance.y == tuple(y)
            far = [q for q in range(n) if all(metric.dist[q, v] > r1 for v in y)]
            assert [c.q for c in cands[1:]] == far
            for cand in cands[1:]:
                # The construction the enumeration used before sub-metrics
                # were trusted, with the validating constructor.
                removed = ball(metric, cand.q, r1)
                keep = np.setdiff1d(np.arange(n), removed)
                pos = {int(orig): i for i, orig in enumerate(keep)}
                sub = cand.instance.base
                coords = None if metric.coords is None else metric.coords[keep]
                assert sub.metric == MetricSpace(metric.dist[np.ix_(keep, keep)], coords)
                assert cand.points == tuple(int(v) for v in keep)
                assert cand.instance.y == tuple(pos[v] for v in y)
                assert sub.m == max(0, inst.m - int(removed.size))
                assert (sub.r1, sub.r2, sub.k1, sub.k2) == (2 * r1, inst.r2, inst.k1 - 1, 1)
                assert not sub.metric.dist.flags.writeable
                assert sub.metric.coords is None or not sub.metric.coords.flags.writeable
                checked += 1
        assert checked > 100

    @staticmethod
    def counted_solve(inst, monkeypatch):
        """solve_feasibility's result plus its restrict and validation calls."""
        calls = {"validate": 0, "restrict": 0}
        validate, restrict = MetricSpace.__post_init__, MetricSpace.restrict

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(MetricSpace, "__post_init__", counted("validate", validate))
        monkeypatch.setattr(MetricSpace, "restrict", counted("restrict", restrict))
        res = solve_feasibility(inst)
        assert (res.status, res.method, res.case) == ("solution", "probe", "II")
        return res, calls

    def test_solve_path_validates_no_metric(self, monkeypatch):
        # A Case II query enumerates one candidate per point q far from the
        # roots, but only the candidates the oracle solves build a sub-metric,
        # and none of them runs the n x n x n metric check again.  This one
        # rounds on the q=None candidate, which needs no sub-metric.
        inst, _ = planted_instance(3, 6, 9, 6)
        res, calls = self.counted_solve(inst, monkeypatch)
        assert calls["restrict"] == sum(cand.q is not None for cand, _ in res.inner_runs)
        assert calls["validate"] == 0

    def test_solve_path_restricts_once_per_solved_q(self, monkeypatch):
        res, calls = self.counted_solve(uniform_instance(1, 20, 0.3, 0.1, 2, 2), monkeypatch)
        solved_q = sum(cand.q is not None for cand, _ in res.inner_runs)
        assert solved_q > 0
        assert calls["restrict"] == solved_q
        assert calls["validate"] == 0

    def test_enumeration_builds_no_sub_instance(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sub-metric built")

        monkeypatch.setattr(MetricSpace, "restrict", refuse)
        inst = uniform_instance(1, 20, 0.3, 0.1, 2, 2)
        cands = enumerate_candidates(inst, [0])
        assert len(cands) > 2
        assert cands[0].instance.base.metric is inst.metric
        with pytest.raises(AssertionError, match="sub-metric built"):
            cands[1].instance


class TestOptimize:
    def test_planted_scale_and_lifted_dilation(self):
        inst, _ = planted_instance(seed=11)
        out = optimize(inst)
        assert 0.0 < out.rho_star <= 1.0  # feasible at scale 1 by construction
        assert out.solution is not None
        ok, count = verify_solution(inst, out.solution, out.solution.dilation)
        assert ok and count >= inst.m
        assert out.solution.dilation <= 10.0 * out.rho_star + 1e-12
        assert (out.rho_star, "solution") in out.probes
        for rho, status in out.probes:
            if rho < out.rho_star:
                assert status == "infeasible"

    def test_scale_is_a_distance_radius_quotient(self):
        inst, _ = planted_instance(seed=11)
        out = optimize(inst)
        d = inst.metric.dist
        upper = d[np.triu_indices(inst.n, k=1)]
        quotients = np.concatenate([upper / inst.r1, upper / inst.r2, [0.0, 1.0]])
        assert np.min(np.abs(quotients - out.rho_star)) < 1e-12

    def test_duplicate_classes_reach_scale_zero(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]
        inst = euclidean(pts, 1.0, 0.5, 1, 1, 4)
        out = optimize(inst)
        assert out.rho_star == 0.0
        assert out.solution.dilation == 0.0
        ok, count = verify_solution(inst, out.solution, 0.0)
        assert ok and count >= 4

    def test_zero_target(self):
        inst = euclidean([[0.0], [5.0]], 1.0, 0.5, 1, 1, 0)
        out = optimize(inst)
        assert out.rho_star == 0.0
        assert out.solution is not None

    def test_unwinnable_instances(self):
        no_budget = euclidean([[0.0], [5.0]], 1.0, 0.5, 0, 0, 1)
        assert optimize(no_budget).rho_star == math.inf
        assert optimize(no_budget).solution is None
        too_many = euclidean([[0.0], [5.0]], 1.0, 0.5, 2, 2, 3)
        assert optimize(too_many).rho_star == math.inf


class TestResultJson:
    def test_solution_schema(self):
        inst, _ = planted_instance(seed=3)
        res = solve_feasibility(inst)
        doc = res.to_json()
        assert set(doc) == {"status", "dilation", "centers1", "centers2", "covered_count"}
        assert doc["status"] == "solution"
        assert isinstance(doc["centers1"], list) and isinstance(doc["centers2"], list)
        assert doc["covered_count"] >= inst.m

    def test_infeasible_schema(self):
        inst = euclidean([[0.0], [5.0]], 1.0, 0.5, 0, 0, 1)
        doc = solve_feasibility(inst).to_json()
        assert doc == {"status": "infeasible"}
