from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from nukc import (
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    SolverConfig,
    brute_force_nukc,
    greedy_cover,
    planted_instance,
    solve_feasibility,
    verify_solution,
)
from nukc import cutting_plane, presolve
from nukc.cutting_plane import LPSolveError, coverage_lp, coverage_model, run_round_or_cut

from conftest import near_symmetric_instance, random_instance


def loop_greedy_cover(instance, restrict_y=None):
    """Marginal-gain greedy as a per-candidate loop; the reference for greedy_cover's picks.

    Ties go to class 2, then to the lowest position in the class.
    """
    if instance.m <= 0:
        return NUkCSolution.empty()
    d = instance.metric.dist
    cand1 = sorted(int(v) for v in restrict_y) if restrict_y is not None else list(range(instance.n))
    cand2 = list(range(instance.n))
    masks1 = [d[u] <= instance.r1 for u in cand1]
    masks2 = [d[u] <= instance.r2 for u in cand2]
    chosen = []
    covered = np.zeros(instance.n, dtype=bool)
    budget = {1: instance.k1, 2: instance.k2}
    pools = {1: (cand1, masks1), 2: (cand2, masks2)}
    while (budget[1] > 0 or budget[2] > 0) and covered.sum() < instance.m:
        best = None
        for cls in (2, 1):
            if budget[cls] == 0:
                continue
            for i, mask in enumerate(pools[cls][1]):
                gain = int(np.count_nonzero(mask & ~covered))
                if best is None or gain > best[0]:
                    best = (gain, cls, i)
        if best is None or best[0] == 0:
            break
        _, cls, i = best
        chosen.append((cls, i))
        covered |= pools[cls][1][i]
        budget[cls] -= 1

    if int(covered.sum()) < instance.m:
        return None
    sol = NUkCSolution(
        centers1=tuple(pools[1][0][i] for cls, i in chosen if cls == 1),
        centers2=tuple(pools[2][0][i] for cls, i in chosen if cls == 2),
        dilation=1.0,
    )
    ok, _ = verify_solution(instance, sol, 1.0)
    return sol if ok else None


def linprog_coverage_lp(instance, restrict_y=None):
    """Maximum coverage's LP relaxation through linprog; the reference for coverage_lp.

    Row v, column u reads dist[u, v] <= r: a center at u covers v.
    """
    n = instance.n
    if n == 0:
        return 0.0, np.zeros(0), np.zeros(0)
    d = instance.metric.dist
    in1 = d <= instance.r1
    in2 = d <= instance.r2
    obj = np.concatenate([np.zeros(2 * n), -np.ones(n)])
    rows = np.zeros((n + 2, 3 * n))
    rows[:n, :n] = -in1.T.astype(float)
    rows[:n, n : 2 * n] = -in2.T.astype(float)
    rows[:n, 2 * n :] = np.eye(n)
    rows[n, :n] = 1.0
    rows[n + 1, n : 2 * n] = 1.0
    rhs = np.concatenate([np.zeros(n), [float(instance.k1), float(instance.k2)]])
    ub1 = np.zeros(n)
    if restrict_y is None:
        ub1[:] = 1.0
    else:
        ub1[list(restrict_y)] = 1.0
    bounds = [(0.0, float(b)) for b in ub1] + [(0.0, 1.0)] * n + [(0.0, 1.0)] * n
    res = linprog(obj, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs")
    if not res.success:
        return float("inf"), None, None
    return float(-res.fun), res.x[:n].copy(), res.x[n : 2 * n].copy()


def duplicated_instance(rng, n=12):
    """Points drawn with repetition from a few sites, so many balls tie."""
    sites = rng.uniform(0.0, 4.0, size=(int(rng.integers(2, 5)), 2))
    metric = MetricSpace.from_points(sites[rng.integers(0, len(sites), size=n)])
    r1 = float(rng.uniform(0.5, 3.0))
    return NUkCInstance(
        metric, r1, r1 * float(rng.uniform(0.0, 0.9)),
        int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(1, n + 1)),
    )


def trap_instance(rng):
    """Points on a line where the greedy falls one point short of m.

    The greedy's first ball, at 1.05, holds both clusters but their outer
    points 0 and 2.1, so its two large balls cover one point fewer than a
    ball on each cluster does.
    """
    left = [0.0, *rng.uniform(0.06, 0.1, size=int(rng.integers(2, 5)))]
    right = [2.1, *rng.uniform(2.0, 2.04, size=int(rng.integers(2, 5)))]
    far = rng.uniform(5.0, 9.0, size=int(rng.integers(0, 3)))
    pts = rng.permutation(np.concatenate([left, right, [1.05], far]))
    return NUkCInstance(MetricSpace.from_points(pts[:, None]), 1.0, 0.01, 2, 0,
                        len(left) + len(right) + 1)


class TestGreedy:
    def test_finds_obvious_cover(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng)
        # make it trivially coverable: target one point
        easy = type(inst)(
            metric=inst.metric, r1=inst.r1, r2=inst.r2, k1=1, k2=0, m=1
        )
        sol = greedy_cover(easy)
        assert sol is not None
        ok, _ = verify_solution(easy, sol, 1.0)
        assert ok

    def test_none_when_target_unreachable(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            inst = random_instance(rng)
            sol = greedy_cover(inst)
            if sol is None:
                continue
            ok, count = verify_solution(inst, sol, 1.0)
            assert ok and count >= inst.m

    def test_solutions_always_verified(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(60):
            inst = random_instance(rng)
            sol = greedy_cover(inst)
            if sol is not None:
                hits += 1
                ok, _ = verify_solution(inst, sol, 1.0)
                assert ok
                assert len(sol.centers1) <= inst.k1
                assert len(sol.centers2) <= inst.k2
        assert hits > 0  # the corpus is not all-infeasible

    def test_zero_and_excess_targets(self):
        # The loop answers both edges itself: m = 0 with the empty cover,
        # m > n with None, also on an empty metric and with no budget.
        empty = MetricSpace.from_matrix(np.zeros((0, 0)))
        for metric in (MetricSpace.from_points([[0.0], [0.5], [3.0]]), empty):
            for k1, k2 in ((0, 0), (1, 0), (3, 3)):
                for y in (None, []):
                    zero = NUkCInstance(metric, 1.0, 0.1, k1, k2, 0)
                    assert greedy_cover(replace(zero, y=y)) == NUkCSolution.empty()
                    assert greedy_cover(replace(NUkCInstance(metric, 1.0, 0.1, k1, k2, metric.n + 1), y=y)) is None

    def test_ties_spend_the_small_ball(self):
        # The r2 cluster 10..10.1 comes first, and an r1 ball there ties with
        # the r2 ball (3 points each) and with the r1 ball on the wide cluster
        # 0..1.8.  Spent on a tie, the one large ball leaves the wide cluster
        # to a small ball that reaches one of its points; kept for the wide
        # cluster, it covers all six.
        pts = np.array([10.0, 10.05, 10.1, 0.0, 0.9, 1.8])[:, None]
        inst = NUkCInstance(MetricSpace.from_points(pts), 1.0, 0.1, 1, 1, 6)
        sol = greedy_cover(inst)
        assert sol == NUkCSolution(centers1=(4,), centers2=(0,), dilation=1.0)
        assert verify_solution(inst, sol, 1.0) == (True, 6)

    def test_planted_instances_decided_by_the_greedy(self):
        for seed in range(20):
            inst, _ = planted_instance(seed, 6, 9, 6)
            res = solve_feasibility(inst, SolverConfig())
            assert (res.status, res.method, res.solution.dilation) == ("solution", "greedy", 1.0), seed
            assert verify_solution(inst, res.solution, 1.0)[0], seed

    def test_rows_read_each_ball_from_its_center(self):
        # Each radius is an entry of the matrix, so a ball edge falls between
        # d[u, v] and d[v, u]: a row read from column u differs from row u.
        rng = np.random.default_rng(23)
        asymmetric = hits = 0
        for _ in range(100):
            inst = near_symmetric_instance(rng)
            d = inst.metric.dist
            for (start, points), r in zip(inst.balls, (inst.r1, inst.r2)):
                for u in range(inst.n):
                    assert points[start[u] : start[u + 1]].tolist() == np.flatnonzero(d[u] <= r).tolist()
                asymmetric += not np.array_equal(d <= r, (d <= r).T)
            got = greedy_cover(inst)
            assert got == loop_greedy_cover(inst), inst
            hits += got is not None
        assert asymmetric > 20 and hits > 20

    def test_picks_match_loop_reference(self):
        rng = np.random.default_rng(8)
        hits = 0
        for t in range(300):
            make = (duplicated_instance, trap_instance, random_instance)[t % 3]
            inst = make(rng)
            n = inst.n
            for y in (None, (), (0,), (0, n // 2, n - 1) if n >= 3 else (0, n - 1)):
                got = greedy_cover(replace(inst, y=y))
                want = loop_greedy_cover(inst, restrict_y=y)
                assert got == want, (t, y)
                hits += got is not None
        assert hits > 0


    def test_lazy_picks_match_loop_reference(self):
        # Tables past a few recounts' worth of entries take the lazy path:
        # single-row recounts, and whole-table ones once those cost more.
        rng = np.random.default_rng(21)
        lazy = 0
        for t in range(30):
            n = int(rng.integers(60, 160))
            if t % 2:  # a few sites, many copies: long runs of tied, stale rows
                sites = rng.uniform(0.0, 10.0, size=(int(rng.integers(5, 30)), 2))
                pts = sites[rng.integers(0, len(sites), size=n)]
            else:
                pts = rng.uniform(0.0, 10.0, size=(n, 2))
            r1 = float(rng.uniform(0.5, 4.0))
            k1, k2 = int(rng.integers(0, 8)), int(rng.integers(1, 8))
            inst = NUkCInstance(MetricSpace.from_points(pts), r1, r1 * float(rng.uniform(0.0, 0.9)), k1, k2,
                                int(rng.integers(n // 2, n + 1)))
            for y in (None, tuple(range(0, n, 3))):
                got = greedy_cover(replace(inst, y=y))
                assert got == loop_greedy_cover(inst, restrict_y=y), (t, y)
            size = sum(points.size for _, points in inst.balls)
            lazy += size > 2 * presolve._RECOUNT_ENTRIES and k1 + k2 >= 3
        assert lazy > 15, lazy


class TestCoverageBound:
    def test_upper_bounds_integral_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            inst = random_instance(rng, max_n=8)
            bound = coverage_lp(inst)[0]
            best = brute_force_nukc(inst).best_covered
            assert bound >= best - 1e-6

    def test_respects_y_restriction(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = random_instance(rng, max_n=8)
            y = [0]
            bound = coverage_lp(replace(inst, y=y))[0]
            best = brute_force_nukc(replace(inst, y=y)).best_covered
            assert bound >= best - 1e-6
            assert bound <= coverage_lp(inst)[0] + 1e-9

    def test_reads_balls_from_their_center(self):
        # Point 0 reaches both others within r1 = 1, but they reach it only at
        # 1 + 5e-10: one large ball at 0 covers all three.  Balls read as
        # dist[v, u] <= r cover at most 2.
        metric = MetricSpace.from_matrix([[0, 1, 1], [1 + 5e-10, 0, 2], [1 + 5e-10, 2, 0]])
        inst = NUkCInstance(metric, 1.0, 0.5, 1, 0, 3)
        assert coverage_lp(inst)[0] == pytest.approx(3.0, abs=1e-9)

    def test_matches_linprog_reference(self):
        # Also guards the private scipy bindings coverage_lp calls: a scipy
        # that moves or changes them fails here.  The vertex is HiGHS's on the
        # driver's model, not linprog's, so the openings are checked for
        # feasibility and for reaching the optimum rather than compared.
        rng = np.random.default_rng(9)
        corpus = [
            NUkCInstance(MetricSpace(np.zeros((0, 0))), 1.0, 0.5, 1, 1, 0),
            NUkCInstance(MetricSpace(np.zeros((1, 1))), 1.0, 0.5, 1, 0, 1),
            NUkCInstance(MetricSpace(np.zeros((1, 1))), 1.0, 0.5, 0, 1, 1),
            NUkCInstance(MetricSpace(np.zeros((1, 1))), 1.0, 0.0, 0, 0, 1),
        ]
        for t in range(300):
            inst = duplicated_instance(rng) if t % 2 else random_instance(rng, max_n=14)
            if t % 5 == 0:
                k1, k2 = (0, inst.k2 or 1) if t % 10 == 0 else (inst.k1 or 1, 0)
                inst = NUkCInstance(inst.metric, inst.r1, inst.r2, k1, k2, inst.m)
            corpus.append(inst)
        corpus += [near_symmetric_instance(rng) for _ in range(60)]
        for inst in corpus:
            n, d = inst.n, inst.metric.dist
            subset = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)))
            for y in (None, (), (0,), subset) if n else (None, ()):
                optimum, x1, x2 = coverage_lp(replace(inst, y=y))[:3]
                want = linprog_coverage_lp(inst, restrict_y=y)[0]
                assert optimum == pytest.approx(want, abs=1e-7), (inst, y)
                for x, k in ((x1, inst.k1), (x2, inst.k2)):
                    assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9) and x.sum() <= k + 1e-9
                if y is not None:
                    assert np.all(np.delete(x1, list(y)) == 0.0), (inst, y)
                reach = x1 @ (d <= inst.r1) + x2 @ (d <= inst.r2)  # reach[v]: openings covering v
                assert np.minimum(1.0, reach).sum() == pytest.approx(optimum, abs=1e-7), (inst, y)

    def test_target_and_start_basis(self):
        # A start basis from another scale of the same instance changes the
        # path, not the answer: the optimum, or a refutation of the target
        # that carries a certificate with its bound below the target.
        rng = np.random.default_rng(12)
        refuted = reached = warm = 0
        for _ in range(80):
            inst = random_instance(rng, max_n=14)
            low, high = inst.scaled(float(rng.uniform(0.2, 1.0))), inst.scaled(float(rng.uniform(1.0, 3.0)))
            start = coverage_lp(low, target=inst.m).basis
            for basis in (None, start):
                optimum = coverage_lp(high, basis=basis)
                assert optimum.value == pytest.approx(linprog_coverage_lp(high)[0], abs=1e-7)
                assert optimum.certificate is None
                lp = coverage_lp(high, target=inst.m, basis=basis)
                if optimum.value < inst.m - 1e-6:
                    assert lp.value < inst.m - 1e-6 and lp.value >= optimum.value - 1e-7
                    assert cutting_plane.certificate_bound(high, lp.certificate) < inst.m
                    refuted += 1
                else:
                    assert lp.value == pytest.approx(optimum.value, abs=1e-7) and lp.certificate is None
                    reached += 1
                warm += basis is not None
        assert refuted > 20 and reached > 20 and warm == 80

    def test_no_certificate_when_highs_stops_early(self, monkeypatch):
        # An LP that HiGHS does not finish is an error, never a bound or a verdict.
        monkeypatch.setattr(cutting_plane._OPTIONS, "simplex_iteration_limit", 0)
        inst = random_instance(np.random.default_rng(1), max_n=10)
        with pytest.raises(LPSolveError, match="HiGHS ended with"):
            coverage_lp(inst)

        def oracle(x):
            raise AssertionError("no query before the first optimum")

        with pytest.raises(LPSolveError, match="HiGHS ended with"):
            run_round_or_cut(coverage_model(inst), oracle)
