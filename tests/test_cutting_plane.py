"""The cutting-plane driver on toy oracles, its seeded coverage LP, and the
solvers it drives with the greedy screen off."""

import math

import numpy as np
import pytest

from nukc import (
    MetricSpace,
    NUkCInstance,
    SolverConfig,
    hull_coverage_vectors,
    planted_instance,
    planted_kcenter_instance,
    solve_feasibility,
    verify_solution,
)
from nukc.cutting_plane import (
    LPSolveError,
    OracleContractError,
    Rounded,
    Separating,
    coverage_model,
    default_max_iters,
    run_round_or_cut,
)
from nukc.model import Cut

from conftest import random_instance
from test_presolve import linprog_coverage_lp

# One point, one ball of each size: the coverage LP projects onto the box
# 0 <= cov1, cov2 with cov1 + cov2 <= 1, where the toy oracles below work.
ONE_POINT = NUkCInstance(MetricSpace(np.zeros((1, 1))), 1.0, 0.5, 1, 1, 1)


def box_run(oracle, max_iters=None):
    return run_round_or_cut(coverage_model(ONE_POINT), oracle, max_iters)


def separate(a, b, kind=""):
    """The 1-point cut a[0]·cov1 + a[1]·cov2 <= b."""
    a = np.asarray(a, dtype=float)
    return Separating(Cut(a1=a[:1], a2=a[1:], b=b, kind=kind))


class TestDefaults:
    def test_iteration_cap_formula(self):
        for d in (2, 20, 64):
            assert default_max_iters(d) == math.ceil(
                2.0 * d * (d + 1) * math.log(d * 1e4)
            )


class TestDriver:
    def test_finds_small_target_box(self):
        target = np.array([0.31, 0.62])

        def oracle(x):
            if np.all(np.abs(x - target) <= 0.05):
                return Rounded(("hit", x.copy()))
            i = int(np.argmax(np.abs(x - target)))
            a = np.zeros(2)
            a[i] = 1.0 if x[i] > target[i] else -1.0
            return separate(a, float(a @ target) + 0.05)

        res = box_run(oracle)
        assert res.status == "rounded"
        tag, point = res.payload
        assert tag == "hit" and np.all(np.abs(point - target) <= 0.05)
        assert res.iterations == len(res.cuts) > 0

    def test_rounds_at_iteration_0(self):
        queries = []

        def oracle(x):
            queries.append(x)
            return Rounded("done")

        res = box_run(oracle)
        assert (res.status, res.payload, res.iterations, res.cuts) == ("rounded", "done", 0, [])
        # The first query is an optimum of the uncut LP: the point is fully
        # covered, and the query holds cov1 | cov2 only.
        assert len(queries) == 1 and queries[0].shape == (2,)
        assert queries[0].sum() == pytest.approx(1.0)

    def test_exhausts_cap_and_collects_cuts(self):
        # Halves the total coverage at every query: the LP never empties and
        # nothing rounds, so only the cap can end the run.
        handed = []

        def oracle(x):
            verdict = separate([1.0, 1.0], float(x.sum()) / 2.0, kind="halve")
            handed.append(verdict.cut)
            return verdict

        res = box_run(oracle, 17)
        assert res.status == "exhausted"
        assert res.iterations == 17
        # The record is the oracle's own cuts, in order.
        assert all(got is cut for got, cut in zip(res.cuts, handed, strict=True))

    def test_cut_excluding_the_box_empties_the_lp(self):
        def oracle(x):
            return separate([-1.0, 0.0], -2.0)  # cov1 >= 2

        res = box_run(oracle)
        assert (res.status, res.iterations, len(res.cuts)) == ("infeasible", 1, 1)

    def test_contract_violation_raises(self):
        def oracle(x):
            return separate([1.0, 0.0], float(x[0]) + 1.0)

        with pytest.raises(OracleContractError):
            box_run(oracle)

    def test_recorded_cut_handed_again_raises(self):
        # The recorded cut is an LP row, so the next query satisfies it.
        cut = separate([1.0, 1.0], 0.5).cut

        def oracle(x):
            return Separating(cut)

        with pytest.raises(OracleContractError):
            box_run(oracle)

    def test_row_rejected_by_highs_raises_lp_solve_error(self):
        def oracle(x):
            return separate([np.inf, 0.0], 0.0)

        with pytest.raises(LPSolveError):
            box_run(oracle)


class TestSeededLP:
    """The driver's model is the coverage LP: valid on the hull, same optimum."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(88)
        for _ in range(40):
            inst = random_instance(rng, max_n=7)
            for y in (None, (0,), tuple(range(0, inst.n, 2))):
                yield inst, y

    def test_hull_points_meet_every_static_row(self):
        checked = 0
        for inst, y in self.corpus():
            n = inst.n
            lp = coverage_model(inst, y).getLp()
            a = np.zeros((lp.num_row_, lp.num_col_))
            start = lp.a_matrix_.start_
            for j in range(lp.num_col_):
                rows = lp.a_matrix_.index_[start[j] : start[j + 1]]
                a[rows, j] = lp.a_matrix_.value_[start[j] : start[j + 1]]
            for sol, cov in hull_coverage_vectors(inst, restrict_y=y):
                x = np.zeros(4 * n)
                x[: 2 * n] = cov.to_vector()
                x[2 * n + np.array(sol.centers1, dtype=int)] = 1.0
                x[3 * n + np.array(sol.centers2, dtype=int)] = 1.0
                assert np.all(x >= np.array(lp.col_lower_)) and np.all(x <= np.array(lp.col_upper_))
                ax = a @ x
                assert np.all(ax >= np.array(lp.row_lower_) - 1e-12), (inst, y, sol)
                assert np.all(ax <= np.array(lp.row_upper_) + 1e-12), (inst, y, sol)
                checked += 1
        assert checked > 100

    def test_first_optimum_is_the_coverage_lp_bound(self):
        for inst, y in self.corpus():
            queries = []
            res = run_round_or_cut(
                coverage_model(inst, y), lambda x: queries.append(x) or Rounded(None)
            )
            assert res.status == "rounded" and len(queries) == 1
            want = linprog_coverage_lp(inst, restrict_y=y)[0]
            assert queries[0].sum() == pytest.approx(want, abs=1e-7), (inst, y)


GATE_FAMILIES = {
    "kcenter_2x6+2": lambda s: planted_kcenter_instance(s, 2, 6, 2)[0],
    "kcenter_3x5+2": lambda s: planted_kcenter_instance(s, 3, 5, 2)[0],
    "planted_3x5+2": lambda s: planted_instance(s, 3, 5, 2)[0],
}


@pytest.mark.parametrize("family", list(GATE_FAMILIES))
def test_shortcut_free_planted_instances_round(family):
    # Feasible by construction; with the greedy off the driver must round.
    for seed in range(5):
        inst = GATE_FAMILIES[family](seed)
        res = solve_feasibility(inst, SolverConfig(shortcuts=False))
        assert (res.status, res.method) == ("solution", "round"), (seed, res.method)
        assert res.solution.dilation <= 10.0
        ok, count = verify_solution(inst, res.solution, res.solution.dilation)
        assert ok and count >= inst.m


def test_solver_names_the_infeasible_stop():
    # Three groups on a line, one ball of each size, target all 7 points: the
    # coverage LP falls short, so one mass cut empties it, and a cap of 1
    # stops the run before that re-solve.
    points = [[x] for x in (0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15)]
    inst = NUkCInstance(MetricSpace.from_points(points), 1.0, 0.25, 1, 1, 7)
    empty = solve_feasibility(inst, SolverConfig(shortcuts=False))
    capped = solve_feasibility(inst, SolverConfig(shortcuts=False, max_iters=1))
    assert (empty.status, empty.method, empty.iterations) == ("infeasible", "lp-empty", 1)
    assert (capped.status, capped.method, capped.iterations) == ("infeasible", "cap", 1)
