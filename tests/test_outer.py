"""End-to-end feasibility solver: short-circuits, brute-force agreement,
cut validity, and the dilation optimizer."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from nukc import (
    CoverageVector,
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    OuterOracle,
    Rounded,
    SolveResult,
    SolverConfig,
    brute_force_nukc,
    certificate_bound,
    covered_points,
    graph_instance,
    greedy_cover,
    hs_partition,
    optimize,
    planted_instance,
    planted_kcenter_instance,
    solve_feasibility,
    solve_wellsep,
    uniform_instance,
    reduce_to_firefighter,
    validate_cut_on_hull,
    verify_solution,
    wellsep_separation_oracle,
)
import nukc.outer as outer_module
import nukc.wellsep as wellsep_module
from nukc import cutting_plane
from nukc.cutting_plane import OracleExhausted, coverage_lp
from nukc.model import coverage_of_solution
from nukc.outer import Candidate, enumerate_candidates

from conftest import count_ball_tables, near_symmetric_instance, random_instance, random_metric, well_separated


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
                    assert validate_cut_on_hull(cand.instance, cut), cut.kind
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
                sub = cand.instance
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
            assert brute_force_nukc(sub).feasible
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
        # (the greedy falls short on it) rounds on the q=None candidate, which
        # needs no sub-metric.
        inst = uniform_instance(189, 40, 0.2, 0.1, 2, 4, 25)
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

    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_unrefuted_candidate_leaves_the_run_undecided(self, monkeypatch, config):
        # A candidates cut needs every candidate refuted.  An inner run that
        # ran out of its cap refutes nothing, so the outer run ends undecided,
        # keeping the cuts it had and adding no candidates cut.
        inst = graph_instance(1462587161, 60, 2, 2).scaled(0.7677618360608947)
        real = solve_feasibility(inst, config)
        assert (real.status, real.method, real.case) == ("solution", "round", "II")
        monkeypatch.setattr(outer_module, "solve_wellsep",
                            lambda ws, config=None, start=None: SolveResult("undecided", method="cap"))
        res = solve_feasibility(inst, config)
        assert (res.status, res.method) == ("undecided", "cap")
        kinds = [cut.kind for cut in res.cuts]
        assert "candidates" not in kinds and kinds == [cut.kind for cut in real.cuts][: len(kinds)]
        assert res.inner_runs and {r.status for _, r in res.inner_runs} == {"undecided"}
        # A start query that meets the capped candidates is dropped, not raised.
        lp = coverage_lp(inst)
        started = solve_feasibility(inst, config, start=outer_module._start(inst, np.array([lp.x1, lp.x2])))
        assert (started.status, started.method) == ("undecided", "cap")
        assert len(started.inner_runs) > len(res.inner_runs)

    def test_one_capped_candidate_blocks_the_candidates_cut(self, monkeypatch):
        # The m = 12 query of test_candidates_sharing_a_ball_solve_once: every
        # candidate is refuted and the root set is cut.  With the last inner
        # run capped instead, the others refuted as before, the oracle raises.
        xs = [-102, -101.5, -101, -100.5, -100, 5, 15, 10, 10, 10.5, 11, 11.5, 12]
        inst = euclidean(np.array(xs)[:, None], 1.0, 0.01, 2, 0, 12)
        x = np.concatenate([[1, 1, 1, 1, 1, 1, 0] + [1.0] * 6, np.zeros(inst.n)])
        last = enumerate_candidates(inst, OuterOracle(inst, SolverConfig())(x).cut.meta["roots"])[-1]

        def capped_last(ws, config=None, start=None):
            if ws.metric == last.instance.metric:
                return SolveResult("undecided", method="cap")
            return solve_wellsep(ws, config, start=start)

        monkeypatch.setattr(outer_module, "solve_wellsep", capped_last)
        oracle = OuterOracle(inst, SolverConfig())
        with pytest.raises(OracleExhausted):
            oracle(x)
        statuses = [res.status for _, res in oracle.inner_runs]
        assert statuses[-1] == "undecided" and set(statuses[:-1]) == {"infeasible"}

    def test_enumeration_builds_no_sub_instance(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sub-metric built")

        monkeypatch.setattr(MetricSpace, "restrict", refuse)
        inst = uniform_instance(1, 20, 0.3, 0.1, 2, 2)
        cands = enumerate_candidates(inst, [0])
        assert len(cands) > 2
        assert cands[0].instance.metric is inst.metric
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
        ws = well_separated(inst, (0,))
        all_large = CoverageVector(np.ones(3), np.zeros(3))
        assert isinstance(wellsep_separation_oracle(ws, all_large), Rounded)
        one = CoverageVector(np.array([0.0, 1.0, 0.0]), np.zeros(3))
        assert reduce_to_firefighter(replace(inst, y=[0]), 2.0, 2.0, one).roots == (1,)  # near Y: cov1 counts
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

    @staticmethod
    def unique_grid(inst):
        """The grid as np.unique builds it: 0, 1 and every quotient, sorted and deduped, 0 dropped."""
        upper = inst.metric.dist[np.triu_indices(inst.n, k=1)]
        quotients = [np.array([0.0, 1.0]), upper / inst.r1] + ([upper / inst.r2] if inst.r2 > 0 else [])
        scales = np.unique(np.concatenate(quotients))
        return scales[scales > 0]

    def test_scale_grid_matches_np_unique(self):
        rng = np.random.default_rng(23)
        sites = rng.uniform(0.0, 10.0, size=(8, 2))
        repeated = MetricSpace.from_points(np.repeat(sites, 3, axis=0))
        cases = [NUkCInstance(repeated, 1.0, r2, 2, 2, 20) for r2 in (0.0, 0.5)]
        for seed in range(10):
            kcenter, _ = planted_kcenter_instance(seed, 3, 5, 2)
            assert kcenter.r2 == 0.0
            cases += [uniform_instance(seed, 40, 0.2, 0.08, 2, 2), graph_instance(seed, 40, 2, 2),
                      planted_instance(seed, 3, 5, 2)[0], kcenter]
        for inst in cases:
            grid, want = outer_module._scale_grid(inst), self.unique_grid(inst)
            assert grid.dtype == want.dtype
            assert np.array_equal(grid.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_scales_are_python_floats(self, config):
        for seed in range(5):
            out = optimize(uniform_instance(seed, 30, 0.2, 0.08, 2, 2), config)
            assert type(out.rho_star) is float
            assert all(type(rho) is float for rho, _ in out.probes)

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
        # still checks at 10 * rho_star, so it is caught only here.  The
        # search went below every lp-feasible probe, whose LP reaches m, and
        # solved only rho_star.
        rng = np.random.default_rng(91)
        tally = Counter()
        for _ in range(100):
            inst = random_instance(rng, max_n=7)
            d = inst.metric.dist
            # Below the smallest positive distance a ball holds only copies
            # of its center, as at scale 0.
            tiny = 0.5 * float(d[d > 0].min(initial=1.0)) / inst.r1
            out = optimize(inst, config)
            for rho, status in out.probes:
                if status == "infeasible":
                    assert not brute_force_nukc(inst.scaled(rho or tiny)).feasible, (inst, rho)
                elif status == "lp-feasible":
                    assert rho > out.rho_star and coverage_lp(inst.scaled(rho))[0] >= inst.m - 1e-6, (inst, rho)
                else:
                    assert (rho, status) == (out.rho_star, "solution"), (inst, rho, status)
                tally[status] += 1
        assert tally["infeasible"] > 40 and tally["lp-feasible"] > 40, tally

    def test_probes_a_certificate_refutes_end_lp_empty(self):
        # Only rho_star is solved.  Every other probe steered the search: an
        # infeasible one, solved cold after all, ends lp-empty with a
        # certificate, and an lp-feasible one has a coverage LP of m or more.
        tally = Counter()
        for seed in range(9):
            for inst in (uniform_instance(seed, 30, 0.2, 0.08, 2, 2), graph_instance(seed, 30, 2, 2)):
                for config in (SolverConfig(), SolverConfig(shortcuts=False)):
                    out = optimize(inst, config)
                    for rho, status in out.probes[1:]:  # after scale 0, which is decided apart
                        scaled = inst.scaled(rho)
                        if status == "infeasible":
                            res = solve_feasibility(scaled, config)
                            assert (res.status, res.method) == ("infeasible", "lp-empty"), (seed, rho)
                            assert certificate_bound(scaled, res.certificate) < inst.m
                        elif status == "lp-feasible":
                            assert coverage_lp(scaled)[0] >= inst.m - 1e-6, (seed, rho)
                        else:
                            assert (rho, status) == (out.rho_star, "solution"), (seed, rho, status)
                        tally[status] += 1
        assert tally["infeasible"] > 60 and tally["lp-feasible"] > 100, tally

    def test_each_probe_scale_builds_one_ball_table(self, monkeypatch):
        # The certificate check, the greedy, the LP and the final solve read
        # the table cached on the probe's scaled instance.  Openings carried
        # down from a scale above read only their own rows, so the top scale,
        # where one ball covers every point, builds none, and the final solve
        # builds the table of its scale only when no probe did.
        built = count_ball_tables(monkeypatch)
        seen: dict[str, list] = {"bound": [], "greedy": [], "lp": [], "solve": []}

        def record(name, fn):
            def recorded(inst, *args, **kwargs):
                seen[name].append(inst)
                return fn(inst, *args, **kwargs)
            return recorded

        for name, attr in (("bound", "certificate_bound"), ("greedy", "greedy_cover"),
                           ("lp", "coverage_lp"), ("solve", "solve_feasibility")):
            monkeypatch.setattr(outer_module, attr, record(name, getattr(outer_module, attr)))
        shared = 0
        for seed in range(6, 10):
            for inst in (uniform_instance(seed, 30, 0.2, 0.08, 2, 2), graph_instance(seed, 30, 2, 2)):
                for config in (SolverConfig(), SolverConfig(shortcuts=False)):
                    built.clear()
                    for probes in seen.values():
                        probes.clear()
                    out = optimize(inst, config)
                    probed = {id(p): p for probes in seen.values() for p in probes}
                    tables = Counter(p.r1 for p in built if id(p) in probed)
                    assert set(tables.values()) == {1}, tables
                    assert inst.r1 * max(out.probes)[0] not in tables
                    (final,) = seen["solve"]
                    assert final.r1 == inst.r1 * out.rho_star
                    tested = [p for p in seen["greedy"] + seen["lp"] if p.r1 == final.r1]
                    assert all(p is final for p in tested)
                    shared += bool(tested)
        assert shared > 3

    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_same_answers_as_a_bisection_over_full_solves(self, config):
        # The reference judges every probe with solve_feasibility, as the
        # search did before it steered on the coverage LP.  The final solve
        # starts from the search's openings, so it may round to other centers
        # at the same dilation: those are recounted, not compared.
        tally = Counter()
        for seed in range(8):
            for inst in (uniform_instance(seed, 12 + 4 * seed, 0.25, 0.1, 2, 2),
                         graph_instance(seed, 10 + 3 * seed, 2, 2),
                         planted_instance(seed, clusters=3, points_per_cluster=1 + seed // 2, outliers=2)[0],
                         planted_kcenter_instance(seed, clusters=2, points_per_cluster=4, outliers=2)[0]):
                assert inst.n <= 40
                out = optimize(inst, config)
                rho, want = bisection_reference(inst, config)
                assert out.rho_star == rho, (seed, inst.n)
                assert out.solution.dilation == want.dilation, (seed, inst.n)
                assert verify_solution(inst, out.solution, out.solution.dilation)[0], (seed, inst.n)
                tally[dict(out.probes).get(out.rho_star)] += 1
        assert tally == {"solution": 32}

    @pytest.mark.parametrize("refusal", ["undecided", "infeasible"])
    def test_a_refused_threshold_searches_above_with_full_solves(self, monkeypatch, refusal):
        # The LP does not refute the threshold scale, but its solve does: the
        # bisection goes on above it, judged by the full solve, and lands on
        # the next scale, which the LP steering had left unsolved.
        inst = uniform_instance(3, 30, 0.2, 0.08, 2, 2)
        plain = optimize(inst)
        real = outer_module._solve_from
        calls: list[float] = []

        def solve(scaled, config, *args):
            calls.append(scaled.r1 / inst.r1)
            if len(calls) == 1:
                return SolveResult(refusal, method="cap" if refusal == "undecided" else "lp-empty")
            return real(scaled, config, *args)

        monkeypatch.setattr(outer_module, "_solve_from", solve)
        out = optimize(inst)
        status = dict(out.probes)
        above = [rho for rho in candidate_scales(inst) if rho > plain.rho_star]
        assert calls[0] == pytest.approx(plain.rho_star) and status[plain.rho_star] == refusal
        assert out.rho_star == above[0] and status[out.rho_star] == "solution"
        assert len(calls) > 2  # a bisection, not a step to the next scale
        assert verify_solution(inst, out.solution, 10.0 * out.rho_star)[0]
        # Refused everywhere, the search ends at the top with no solution.
        monkeypatch.setattr(outer_module, "_solve_from",
                            lambda scaled, config, *args: SolveResult(refusal, method="cap"))
        out = optimize(inst)
        assert (out.rho_star, out.solution) == (math.inf, None)
        assert dict(out.probes)[candidate_scales(inst)[-1]] == refusal

    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_no_probe_lp_where_farthest_first_covers(self, monkeypatch, config):
        # Phase 1 brackets rho* from above with the farthest-first openings
        # (and the greedy), so every LP probe lies below the scales they cover.
        real = outer_module.coverage_lp
        probed: list[NUkCInstance] = []

        def lp(inst, *args, **kwargs):
            probed.append(inst)
            return real(inst, *args, **kwargs)

        monkeypatch.setattr(outer_module, "coverage_lp", lp)
        lps = 0
        for seed in range(10):
            for inst in (uniform_instance(seed, 20 + 2 * seed, 0.2, 0.08, 2, 2),
                         graph_instance(seed, 20 + 2 * seed, 2, 2)):
                assert inst.n <= 40
                probed.clear()
                optimize(inst, config)
                large, small = farthest_first_reference(inst)
                for scaled in probed:
                    d = scaled.metric.dist
                    covered = (d[large] <= scaled.r1).any(axis=0) | (d[small] <= scaled.r2).any(axis=0)
                    assert covered.sum() < inst.m, (seed, scaled.r1 / inst.r1)
                lps += len(probed)
        assert lps > 40, lps

    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_final_solve_rounds_at_its_start_query(self, monkeypatch, config):
        # The openings of the lowest LP-feasible probe round at once: the
        # final solve at rho* solves no coverage LP and runs no driver.
        inst = uniform_instance(1, 30, 0.2, 0.08, 2, 2)
        running: list[bool] = []  # non-empty while the final solve runs
        lps: list[bool] = []  # per coverage_lp call, whether the final solve made it
        driver_scales: list[float] = []
        results: list[SolveResult] = []
        real_lp, real_model = outer_module.coverage_lp, wellsep_module.coverage_model
        real_solve = outer_module.solve_feasibility

        def lp(scaled, *args, **kwargs):
            lps.append(bool(running))
            return real_lp(scaled, *args, **kwargs)

        def model(scaled, *args, **kwargs):
            if scaled.n == inst.n:  # not an inner run on a q candidate
                driver_scales.append(scaled.r1 / inst.r1)
            return real_model(scaled, *args, **kwargs)

        def solve(scaled, *args, **kwargs):
            running.append(True)
            results.append(real_solve(scaled, *args, **kwargs))
            running.pop()
            return results[-1]

        monkeypatch.setattr(outer_module, "coverage_lp", lp)
        monkeypatch.setattr(wellsep_module, "coverage_model", model)
        monkeypatch.setattr(outer_module, "solve_feasibility", solve)
        out = optimize(inst, config)
        assert [(r.status, r.method, r.case) for r in results] == [("solution", "start", "II")]
        assert lps and not any(lps)
        assert out.rho_star not in driver_scales
        assert verify_solution(inst, out.solution, out.solution.dilation)[0]

    def test_probe_lps_start_from_a_lower_scale(self, monkeypatch):
        # A basis from a larger scale costs far more dual simplex iterations,
        # so a probe LP starts cold or from a refuted probe below it.
        real = outer_module.coverage_lp
        source: dict[int, float] = {}
        starts = Counter()

        def lp(inst, *args, basis=None, **kwargs):
            if basis is not None:
                assert source[id(basis)] < inst.r1
            starts[basis is not None] += 1
            out = real(inst, *args, basis=basis, **kwargs)
            source[id(out.basis)] = inst.r1
            return out

        monkeypatch.setattr(outer_module, "coverage_lp", lp)
        for seed in range(20):
            for inst in (uniform_instance(seed, 30, 0.2, 0.08, 2, 2), graph_instance(seed, 30, 2, 2)):
                for config in (SolverConfig(), SolverConfig(shortcuts=False)):
                    optimize(inst, config)
        assert starts[True] > 50 and starts[False] > 10, starts

    def test_uncertified_probe_lps_are_undecided(self, monkeypatch):
        # An LP refutation the certificate check does not confirm steers the
        # search like an infeasible probe but is recorded undecided.
        inst = uniform_instance(1, 30, 0.2, 0.08, 2, 2)
        plain = optimize(inst)
        monkeypatch.setattr(cutting_plane, "lp_certificate", lambda model: None)
        out = optimize(inst)
        assert (out.rho_star, out.solution) == (plain.rho_star, plain.solution)
        below = [status for rho, status in out.probes if 0 < rho < out.rho_star]
        assert below and set(below) == {"undecided"}
        assert "infeasible" in dict(plain.probes[1:]).values()

    def test_zero_scale_classes_match_the_loop(self):
        # On exact zeros the classes partition the points, so the loop's
        # k1 + k2 largest classes decide scale 0; the probe's picks may
        # differ (the greedy stops at m and breaks ties its own way).
        rng = np.random.default_rng(5)
        found = 0
        for t in range(200):
            inst = duplicated_instance(rng, one_way=t % 3 == 0)
            status, got = outer_module._zero_scale_probe(inst)
            if got is not None:
                assert status == "solution" and verify_solution(inst, got, 0.0)[0]
            if t % 3:
                want = loop_zero_scale_solution(inst)
                solvable = want is not None and verify_solution(inst, want, 0.0)[0]
                assert (got is not None) == solvable, inst.metric.dist
                found += solvable
        assert 40 < found < 160, found

    def test_zero_scale_probe_agrees_with_brute_force(self):
        rng = np.random.default_rng(17)
        tally = Counter()
        for t in range(150):
            inst = duplicated_instance(rng, one_way=t % 3 == 0)
            status, got = outer_module._zero_scale_probe(inst)
            feasible = brute_force_nukc(inst, rho=0.0).feasible
            if status == "solution":
                assert verify_solution(inst, got, 0.0)[0] and feasible
            elif status == "infeasible":
                assert not feasible, inst.metric.dist
            else:
                assert status == "undecided", status
            tally[status, t % 3 == 0] += 1
        # Exact zeros are always decided; a one-way zero is refuted by an exact bound too.
        assert tally["undecided", False] == 0 and tally["infeasible", True] > 0, tally
        assert tally["solution", False] + tally["solution", True] > 60, tally
        assert tally["infeasible", False] + tally["infeasible", True] > 20, tally

    def test_zero_scale_classes_without_transitivity(self):
        # d(0, 1) = d(1, 2) = 0 < d(0, 2): the zero rows are {0, 1}, {0, 1, 2},
        # {1, 2} and {3}, and the greedy opens row 1 first, a small ball when
        # one is left.
        metric = MetricSpace.from_matrix([[0, 0, 1e-10, 3], [0, 0, 0, 3], [1e-10, 0, 0, 3], [3, 3, 3, 0]])
        for k1, k2, m, want in ((1, 0, 2, ((1,), ())), (1, 1, 3, ((), (1,))), (0, 2, 4, ((), (1, 3)))):
            inst = NUkCInstance(metric, 1.0, 0.5, k1, k2, m)
            assert outer_module._zero_scale_probe(inst) == ("solution", NUkCSolution(*want, 0.0))
        # The classes opened at 0 and 1 cover 3 points, not the 4 their sizes add up to.
        inst = NUkCInstance(metric, 1.0, 0.5, 0, 2, 4)
        assert verify_solution(inst, loop_zero_scale_solution(inst), 0.0) == (False, 3)
        out = optimize(inst)
        assert (out.rho_star, out.solution, out.probes) == (0.0, NUkCSolution((), (1, 3), 0.0),
                                                            [(0.0, "solution")])
        # One ball covers 3 points at most, so the whole-ball bound refutes m = 4.
        inst = NUkCInstance(metric, 1.0, 0.5, 0, 1, 4)
        assert outer_module._zero_scale_probe(inst) == ("infeasible", None)
        out = optimize(inst)
        assert out.probes[0] == (0.0, "infeasible") and out.rho_star > 0
        assert verify_solution(inst, out.solution, out.solution.dilation)[0]

    def test_zero_scale_with_a_distance_far_below_the_radius(self):
        # delta / (2 * r1) underflows to 0 here, so scale 0 cannot be a scaled instance.
        inst = NUkCInstance(MetricSpace.from_matrix([[0, 1e-300], [1e-300, 0]]), 1e30, 0.5, 1, 0, 2)
        assert outer_module._zero_scale_probe(inst) == ("infeasible", None)
        out = optimize(inst)
        assert out.probes[0] == (0.0, "infeasible") and out.rho_star == 2e-300
        # The least subnormal distance leaves no radius below it: scale 0 stays open.
        inst = NUkCInstance(MetricSpace.from_matrix([[0, 5e-324], [5e-324, 0]]), 1.0, 0.5, 1, 0, 2)
        out = optimize(inst)
        assert out.probes[:2] == [(0.0, "undecided"), (5e-324, "solution")] and out.rho_star == 5e-324

    def test_zero_scale_lp_refutation_needs_its_certificate(self, monkeypatch):
        # Four copies of one site and three singletons: the whole-ball bound
        # counts the class twice (8 >= 6) and the greedy covers 5, so only
        # the coverage LP (value 5) refutes m = 6.
        pts = [[0.0, 0.0]] * 4 + [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        inst = euclidean(pts, 1.0, 0.5, 1, 1, 6)
        assert outer_module._zero_scale_probe(inst) == ("infeasible", None)
        monkeypatch.setattr(cutting_plane, "lp_certificate", lambda model: None)
        assert outer_module._zero_scale_probe(inst) == ("undecided", None)


def candidate_scales(instance):
    """The scales optimize searches above 0: the distance/radius quotients and 1, ascending."""
    upper = instance.metric.dist[np.triu_indices(instance.n, k=1)]
    quotients = [[1.0], upper / instance.r1] + ([upper / instance.r2] if instance.r2 > 0 else [])
    scales = np.unique(np.concatenate(quotients))
    return scales[scales > 0].tolist()


def farthest_first_reference(instance):
    """Gonzalez's traversal from point 0, a loop: (its first k1 centers, the next k2)."""
    d = instance.metric.dist
    centers = [0]
    while len(centers) < min(instance.k1 + instance.k2, instance.n):
        near = [min(d[c][v] for c in centers) for v in range(instance.n)]
        far = max(range(instance.n), key=lambda v: (near[v], -v))
        if near[far] == 0:
            break
        centers.append(far)
    return centers[: instance.k1], centers[instance.k1 :]


def bisection_reference(instance, config):
    """(rho_star, solution) of a bisection that solves every probe with solve_feasibility."""
    status, solution = outer_module._zero_scale_probe(instance)
    if solution is not None:
        return 0.0, solution
    candidates = candidate_scales(instance)
    found = {}

    def feasible(rho):
        res = solve_feasibility(instance.scaled(rho), config)
        found[rho] = res.solution
        return res.status == "solution"

    lo, hi = 0, len(candidates) - 1
    if not feasible(candidates[hi]):
        return math.inf, None
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    sol = found[candidates[lo]]
    return candidates[lo], NUkCSolution(sol.centers1, sol.centers2, sol.dilation * candidates[lo])


def duplicated_instance(rng, one_way=False):
    """A small metric on repeated sites; ``one_way`` reads one distance 0 one way only."""
    n = int(rng.integers(1, 14))
    sites = rng.uniform(0.0, 4.0, size=(int(rng.integers(1, n + 1)), 2))
    metric = MetricSpace.from_points(sites[rng.integers(0, len(sites), size=n)])
    if one_way:  # within the symmetry tolerance
        d = np.array(metric.dist)
        far = np.argwhere(d > 0)
        if far.size:
            u, v = far[int(rng.integers(len(far)))]
            d[u, v], d[v, u] = 0.0, 5e-10
            metric = MetricSpace._trusted(d)
    k1, k2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    return NUkCInstance(metric, 1.0, 0.5, k1, k2, int(rng.integers(1, n + 1)))


def loop_zero_scale_solution(instance):
    """The reference loop: point by point, each unassigned point opens its class."""
    classes = []
    assigned = np.zeros(instance.n, dtype=bool)
    for v in range(instance.n):
        if assigned[v]:
            continue
        members = np.flatnonzero(instance.metric.dist[v] <= 0.0)
        assigned[members] = True
        classes.append([int(u) for u in members])
    classes.sort(key=lambda c: (-len(c), c[0]))
    picks = classes[: instance.k1 + instance.k2]
    if sum(len(c) for c in picks) < instance.m:
        return None
    reps = [c[0] for c in picks]
    return NUkCSolution(tuple(reps[: instance.k1]), tuple(reps[instance.k1 :]), 0.0)


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
