import numpy as np

from nukc import brute_force_nukc, greedy_cover, verify_solution
from nukc.presolve import coverage_lp, lp_probe_vector

from conftest import random_instance


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
            bound = coverage_lp(inst, restrict_y=y)[0]
            best = brute_force_nukc(inst, restrict_y=y).best_covered
            assert bound >= best - 1e-6
            assert bound <= coverage_lp(inst)[0] + 1e-9

    def test_probe_vector_is_boxed(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            inst = random_instance(rng, max_n=8)
            _, x1, x2 = coverage_lp(inst)
            probe = lp_probe_vector(inst, x1, x2)
            n = inst.n
            cov1, cov2 = probe[:n], probe[n:]
            assert np.all(cov1 >= -1e-12) and np.all(cov2 >= -1e-12)
            assert np.all(cov1 + cov2 <= 1.0 + 1e-12)
