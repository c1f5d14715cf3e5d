"""End-to-end feasibility solver: short-circuits, brute-force agreement,
cut validity, and the dilation optimizer."""

import math

import numpy as np
import pytest

from nukc import (
    CoverageVector,
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    OuterOracle,
    Rounded,
    SolverConfig,
    brute_force_nukc,
    covered_points,
    graph_instance,
    greedy_cover,
    hs_partition,
    optimize,
    planted_instance,
    solve_feasibility,
    solve_wellsep,
    uniform_instance,
    WellSepNUkCInstance,
    reduce_to_firefighter,
    validate_cut_on_hull,
    verify_solution,
    wellsep_separation_oracle,
)
import nukc.outer as outer_module
from nukc.model import coverage_of_solution
from nukc.outer import Candidate, enumerate_candidates

from conftest import near_symmetric_instance, random_instance, random_metric


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
                removed = np.flatnonzero(metric.dist[cand.q] <= r1)
                keep = np.setdiff1d(np.arange(n), removed)
                pos = {int(orig): i for i, orig in enumerate(keep)}
                sub = cand.instance.base
                coords = None if metric.coords is None else metric.coords[keep]
                assert sub.metric == MetricSpace(metric.dist[np.ix_(keep, keep)], coords)
                assert cand.points == tuple(int(v) for v in keep)
                assert cand.instance.y == tuple(pos[v] for v in y)
                assert sub.m == max(0, inst.m - int(removed.size))
                assert (sub.r1, sub.r2, sub.k1, sub.k2) == (2 * r1, 2 * inst.r2, inst.k1 - 1, 1)
                assert not sub.metric.dist.flags.writeable
                assert sub.metric.coords is None or not sub.metric.coords.flags.writeable
                checked += 1
        assert checked > 100

    def test_q_candidate_keeps_small_centers_inside_the_removed_ball(self):
        # Small center s lies in B(q, r1); its kept points t1, t2 are 0.7
        # apart, so no kept point covers both at r2 = 0.5, but either does at
        # 2 * r2.  Solution: large q, small s.
        inst = euclidean([[0, 0], [0.9, 0], [1.2, 0.35], [1.2, -0.35]], 1.0, 0.5, 1, 1, 4)
        truth = NUkCSolution(centers1=(0,), centers2=(1,), dilation=1.0)
        assert verify_solution(inst, truth, 1.0) == (True, 4)
        cand = next(c for c in enumerate_candidates(inst, []) if c.q == 0)
        assert cand.points == (2, 3)
        assert solve_wellsep(cand.instance).status == "solution"

    def test_q_candidates_keep_every_solution_they_guess(self):
        # A solution whose large centers other than q lie within r1 of Y must
        # survive in q's candidate, whatever its small centers do.
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(300):
            inst = random_instance(rng, max_n=9)
            n, d = inst.n, inst.metric.dist
            if inst.k1 == 0:
                continue
            centers1 = rng.choice(n, size=min(n, inst.k1), replace=False).tolist()
            q, y = centers1[0], centers1[1:]
            # Small centers drawn from B(q, r1) when it has room: the case
            # where removing the ball removes a center.
            near = np.flatnonzero(d[q] <= inst.r1)
            pool = near if near.size >= inst.k2 > 0 else np.arange(n)
            centers2 = rng.choice(pool, size=min(pool.size, inst.k2), replace=False).tolist()
            if any(d[q, v] <= inst.r1 for v in y):
                continue
            sol = NUkCSolution(tuple(centers1), tuple(centers2), dilation=1.0)
            covered = verify_solution(inst, sol, 1.0)[1]
            guessed = NUkCInstance(inst.metric, inst.r1, inst.r2, inst.k1, inst.k2, covered)
            cand = next(c for c in enumerate_candidates(guessed, y) if c.q == q)
            sub = cand.instance
            assert brute_force_nukc(sub.base, restrict_y=sub.y).feasible
            checked += 1
        assert checked > 100

    @staticmethod
    def count_metric_calls(monkeypatch):
        """Live counts of MetricSpace validation and restrict calls."""
        calls = {"validate": 0, "restrict": 0}
        validate, restrict = MetricSpace.__post_init__, MetricSpace.restrict

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(MetricSpace, "__post_init__", counted("validate", validate))
        monkeypatch.setattr(MetricSpace, "restrict", counted("restrict", restrict))
        return calls

    def test_solve_path_validates_no_metric(self, monkeypatch):
        # A Case II query enumerates one candidate per point q far from the
        # roots, but only the candidates the oracle solves build a sub-metric,
        # and none of them runs the O(n^3) triangle check again.  This one
        # rounds on the q=None candidate, which needs no sub-metric.
        inst, _ = planted_instance(3, 6, 9, 6)
        calls = self.count_metric_calls(monkeypatch)
        res = solve_feasibility(inst)
        assert (res.status, res.method, res.case, res.iterations) == ("solution", "round", "II", 0)
        assert calls["restrict"] == sum(cand.q is not None for cand, _ in res.inner_runs)
        assert calls["validate"] == 0

    def test_solve_path_restricts_once_per_solved_q(self, monkeypatch):
        # The outer query puts root 5 in charge of the cluster 10..12 (within
        # 8 r1), but 5 is too far for the inner 2 r1 ball, and root 15 splits
        # that cluster in the inner forest.  So the q=None candidate and the
        # q candidates before 11 are refuted; q = 11 grants the whole cluster
        # and rounds.  Dilation-1 solution: large centers -101 and 11.
        xs = [-102, -101.5, -101, -100.5, -100, 5, 15, 10, 10.5, 11, 11.5, 12]
        inst = euclidean(np.array(xs)[:, None], 1.0, 0.01, 2, 0, 10)
        cov1 = [1, 1, 1, 1, 1, 1, 0, 0.8, 0.8, 0.8, 0.8, 0.8]
        calls = self.count_metric_calls(monkeypatch)
        oracle = OuterOracle(inst, SolverConfig())
        verdict = oracle(np.concatenate([cov1, np.zeros(inst.n)]))
        assert isinstance(verdict, Rounded) and verdict.payload[1] == {"case": "II", "q": 9}
        runs = [(cand.q, res.status) for cand, res in oracle.inner_runs]
        assert runs[0] == (None, "infeasible") and runs[-1] == (9, "solution")
        solved_q = sum(q is not None for q, _ in runs)
        assert solved_q > 0
        assert calls["restrict"] == solved_q
        assert calls["validate"] == 0

    @pytest.mark.parametrize("m, mass, verdict", [(10, 0.8, "II"), (12, 1.0, "candidates")])
    def test_candidates_sharing_a_ball_solve_once(self, monkeypatch, m, mass, verdict):
        # Points 7 and 8 share a location, so B(7, r1) = B(8, r1) and their
        # candidates are one instance from one start.  The q = 7 candidate
        # is refuted, so q = 8 is skipped: at m = 10 q = 9 rounds, at m = 12
        # every candidate is refuted and the root set is cut.
        xs = [-102, -101.5, -101, -100.5, -100, 5, 15, 10, 10, 10.5, 11, 11.5, 12]
        inst = euclidean(np.array(xs)[:, None], 1.0, 0.01, 2, 0, m)
        cov = CoverageVector(np.array([1, 1, 1, 1, 1, 1, 0] + [mass] * 6), np.zeros(inst.n))
        solved = []

        def spy(ws, config=None, start=None):
            solved.append(ws)
            return solve_wellsep(ws, config, start=start)

        monkeypatch.setattr(outer_module, "solve_wellsep", spy)
        oracle = OuterOracle(inst, SolverConfig())
        result = oracle(cov.to_vector())
        runs = {cand.q: cand for cand, _ in oracle.inner_runs}
        assert 7 in runs and 8 not in runs
        assert [cand.instance for cand, _ in oracle.inner_runs] == solved
        if verdict == "II":
            assert isinstance(result, Rounded) and result.payload[1] == {"case": "II", "q": 9}
        else:
            cut = result.cut
            assert (cut.kind, cut.b) == ("candidates", inst.k1 - 2)
            assert np.flatnonzero(cut.a1).tolist() == sorted(cut.meta["roots"])
            assert not cut.a2.any()
        # The skipped candidate poses q = 7's instance and fails the same way.
        skipped = Candidate(q=8, roots=runs[7].roots, parent=inst)
        assert skipped.points == runs[7].points
        assert skipped.instance == runs[7].instance
        assert solve_wellsep(skipped.instance, start=skipped.start(cov)).status == "infeasible"

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


def test_small_center_inside_a_guessed_ball_stays_feasible():
    # Its dilation-1 solution puts small center 14 inside B(0, r1), the ball
    # the q = 0 candidate removes.  With that candidate at r2 this instance
    # ended INFEASIBLE after a candidates cut that cut the solution off.
    inst = graph_instance(1462587161, 60, 2, 2).scaled(0.7677618360608947)
    truth = NUkCSolution(centers1=(0, 13), centers2=(14, 45), dilation=1.0)
    assert verify_solution(inst, truth, 1.0) == (True, inst.m)
    for config in (SolverConfig(), SolverConfig(shortcuts=False)):
        res = solve_feasibility(inst, config)
        assert (res.status, res.method, res.case) == ("solution", "round", "II")
        assert verify_solution(inst, res.solution, 8.0)[0]


class TestNearSymmetricMetrics:
    """Every part of the solver reads a ball as dist[center, point] <= r."""

    # d[0, v] = 1 but d[v, 0] = 1 + 5e-10: at radius 1 center 0 covers all
    # three points, and a read of d[v, u] sees it cover only itself.
    NEAR = [[0, 1, 1], [1 + 5e-10, 0, 2], [1 + 5e-10, 2, 0]]

    def test_transposed_reach_is_not_refuted(self):
        # An LP that reads d[v, u] is refuted.
        metric = MetricSpace.from_matrix(self.NEAR)
        inst = NUkCInstance(metric, 1.0, 0.5, 1, 0, 3)
        assert brute_force_nukc(inst).feasible
        for config in (SolverConfig(), SolverConfig(shortcuts=False)):
            res = solve_feasibility(inst, config)
            assert res.status == "solution", (config, res.method)
            assert verify_solution(inst, res.solution, res.solution.dilation)[0]

    def test_distance_to_y_is_read_from_the_roots(self):
        # Each point lies within r1 (inner r1 = 2 for the second matrix) of
        # root 0 as a center, and just beyond it in the transposed entry.
        near = MetricSpace.from_matrix(self.NEAR)
        inst = NUkCInstance(near, 1.0, 0.5, 1, 1, 3)
        assert [c.q for c in enumerate_candidates(inst, [0])] == [None]
        ws = WellSepNUkCInstance(base=inst, y=(0,))
        all_large = CoverageVector(np.ones(3), np.zeros(3))
        assert isinstance(wellsep_separation_oracle(ws, all_large), Rounded)
        one = CoverageVector(np.array([0.0, 1.0, 0.0]), np.zeros(3))
        assert reduce_to_firefighter(inst, 2.0, 2.0, one, y=[0]).roots == (1,)  # near Y: cov1 counts
        wide = MetricSpace.from_matrix([[0, 2, 2], [2 + 5e-10, 0, 2], [2 + 5e-10, 2, 0]])
        cand = Candidate(q=None, roots=(0,), parent=NUkCInstance(wide, 1.0, 0.5, 1, 1, 3))
        assert cand.start(all_large).tolist() == [1, 1, 1, 0, 0, 0]

    def test_each_ball_reader_reads_the_center_row(self):
        metric = MetricSpace.from_matrix(self.NEAR)
        inst = NUkCInstance(metric, 1.0, 0.5, 1, 0, 3)
        sol = NUkCSolution(centers1=(0,), centers2=(), dilation=1.0)
        assert covered_points(inst, sol, 1.0).tolist() == [0, 1, 2]
        assert verify_solution(inst, sol, 1.0) == (True, 3)
        assert coverage_of_solution(inst, (0,), ()).cov1.tolist() == [1, 1, 1]
        assert greedy_cover(inst) == sol
        assert hs_partition(metric, range(3), 1.0, np.array([1.0, 0.0, 0.0])).child[0] == (0, 1, 2)
        assert Candidate(q=0, roots=(), parent=inst).points == ()

    def test_random_instances_agree_with_brute_force(self):
        rng = np.random.default_rng(97)
        feasible = 0
        for _ in range(200):
            inst = near_symmetric_instance(rng)
            truth = brute_force_nukc(inst).feasible
            feasible += truth
            for config in (SolverConfig(), SolverConfig(shortcuts=False)):
                res = solve_feasibility(inst, config)
                if res.status == "solution":
                    assert verify_solution(inst, res.solution, res.solution.dilation)[0]
                else:
                    assert not truth, (inst, config, res.method)
        assert feasible > 100


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


    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_every_infeasible_probe_is_brute_force_infeasible(self, config):
        # A false INFEASIBLE probe only raises rho_star, and the solution
        # still checks at 10 * rho_star, so it is caught only here.
        rng = np.random.default_rng(91)
        checked = 0
        for _ in range(100):
            inst = random_instance(rng, max_n=7)
            d = inst.metric.dist
            # Below the smallest positive distance a ball holds only copies
            # of its center, as at scale 0.
            tiny = 0.5 * float(d[d > 0].min(initial=1.0)) / inst.r1
            for rho, status in optimize(inst, config).probes:
                if status == "infeasible":
                    assert not brute_force_nukc(inst.scaled(rho or tiny)).feasible, (inst, rho)
                    checked += 1
        assert checked > 40


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
