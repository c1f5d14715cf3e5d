"""The cutting-plane driver on toy oracles, and the solvers it drives with
the presolve shortcuts off."""

import math

import numpy as np
import pytest

from nukc import (
    MetricSpace,
    NUkCInstance,
    SolverConfig,
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
    default_max_iters,
    run_round_or_cut,
)
from nukc.model import Cut


def separate(a, b, kind=""):
    """The 1-point cut a[0]·cov1 + a[1]·cov2 <= b, for a 2-d run."""
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

        res = run_round_or_cut(2, oracle)
        assert res.status == "rounded"
        tag, point = res.payload
        assert tag == "hit" and np.all(np.abs(point - target) <= 0.05)
        assert res.iterations == len(res.cuts) > 0

    def test_rounds_at_iteration_0(self):
        queries = []

        def oracle(x):
            queries.append(x)
            return Rounded("done")

        res = run_round_or_cut(4, oracle)
        assert (res.status, res.payload, res.iterations, res.cuts) == ("rounded", "done", 0, [])
        # The first query is an optimum of the uncut LP: the total coverage
        # of the two points is 2.
        assert len(queries) == 1 and queries[0].sum() == pytest.approx(2.0)

    def test_exhausts_cap_and_collects_cuts(self):
        # Halves the total coverage at every query: the LP never empties and
        # nothing rounds, so only the cap can end the run.
        handed = []

        def oracle(x):
            verdict = separate([1.0, 1.0], float(x.sum()) / 2.0, kind="halve")
            handed.append(verdict.cut)
            return verdict

        res = run_round_or_cut(2, oracle, 17)
        assert res.status == "exhausted"
        assert res.iterations == 17
        # The record is the oracle's own cuts, in order.
        assert all(got is cut for got, cut in zip(res.cuts, handed, strict=True))

    def test_cut_excluding_the_box_empties_the_lp(self):
        def oracle(x):
            return separate([-1.0, 0.0], -2.0)  # cov1 >= 2

        res = run_round_or_cut(2, oracle)
        assert (res.status, res.iterations, len(res.cuts)) == ("infeasible", 1, 1)

    def test_contract_violation_raises(self):
        def oracle(x):
            return separate([1.0, 0.0], float(x[0]) + 1.0)

        with pytest.raises(OracleContractError):
            run_round_or_cut(2, oracle)

    def test_recorded_cut_handed_again_raises(self):
        # The recorded cut is an LP row, so the next query satisfies it.
        cut = separate([1.0, 1.0], 0.5).cut

        def oracle(x):
            return Separating(cut)

        with pytest.raises(OracleContractError):
            run_round_or_cut(2, oracle)

    def test_row_rejected_by_highs_raises_lp_solve_error(self):
        def oracle(x):
            return separate([np.inf, 0.0], 0.0)

        with pytest.raises(LPSolveError):
            run_round_or_cut(2, oracle)

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_dimension_must_be_positive_and_even(self, dim):
        with pytest.raises(ValueError, match="even"):
            run_round_or_cut(dim, lambda x: Rounded(None))


GATE_FAMILIES = {
    "kcenter_2x6+2": lambda s: planted_kcenter_instance(s, 2, 6, 2)[0],
    "kcenter_3x5+2": lambda s: planted_kcenter_instance(s, 3, 5, 2)[0],
    "planted_3x5+2": lambda s: planted_instance(s, 3, 5, 2)[0],
}


@pytest.mark.parametrize("family", list(GATE_FAMILIES))
def test_shortcut_free_planted_instances_round(family):
    # Feasible by construction; with the screens off the driver must round.
    for seed in range(5):
        inst = GATE_FAMILIES[family](seed)
        res = solve_feasibility(inst, SolverConfig(shortcuts=False))
        assert (res.status, res.method) == ("solution", "round"), (seed, res.method)
        assert res.solution.dilation <= 10.0
        ok, count = verify_solution(inst, res.solution, res.solution.dilation)
        assert ok and count >= inst.m


def test_solver_names_the_infeasible_stop():
    # Three groups on a line, one ball of each size, target all 7 points:
    # three cuts empty the LP, and a cap of 1 stops the run first.
    points = [[x] for x in (0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15)]
    inst = NUkCInstance(MetricSpace.from_points(points), 1.0, 0.25, 1, 1, 7)
    empty = solve_feasibility(inst, SolverConfig(shortcuts=False))
    capped = solve_feasibility(inst, SolverConfig(shortcuts=False, max_iters=1))
    assert (empty.status, empty.method, empty.iterations) == ("infeasible", "lp-empty", 3)
    assert (capped.status, capped.method, capped.iterations) == ("infeasible", "cap", 1)
