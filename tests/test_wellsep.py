import numpy as np
import pytest

from nukc import (
    MetricSpace,
    NUkCInstance,
    Rounded,
    Separating,
    SolverConfig,
    WellSepNUkCInstance,
    brute_force_nukc,
    solve_wellsep,
    validate_cut_on_hull,
    verify_solution,
    wellsep_separation_oracle,
)
from nukc.model import CoverageVector
from nukc.wellsep import WELLSEP_DILATION, box_violation_cut

from conftest import random_wellsep


def wellsep_line(xs, y, **kw) -> WellSepNUkCInstance:
    metric = MetricSpace.from_points([(x, 0.0) for x in xs])
    params = dict(metric=metric, r1=1.0, r2=0.25, k1=1, k2=1, m=2)
    params.update(kw)
    return WellSepNUkCInstance(base=NUkCInstance(**params), y=tuple(y))


class TestBoxCut:
    def test_none_when_inside(self):
        cov = CoverageVector(np.array([0.5, 0.0]), np.array([0.5, 1.0]))
        assert box_violation_cut(cov) is None

    def test_negative_cov1(self):
        cov = CoverageVector(np.array([0.0, -0.1]), np.zeros(2))
        cut = box_violation_cut(cov)
        assert cut.kind == "box-cov1" and cut.meta["point"] == 1

    def test_total_above_one(self):
        cov = CoverageVector(np.array([0.8, 0.0]), np.array([0.4, 0.0]))
        cut = box_violation_cut(cov)
        assert cut.kind == "box-total" and cut.meta["point"] == 0

    def test_point_order_breaks_ties(self):
        cov = CoverageVector(np.array([0.0, -0.5]), np.array([-0.5, 0.0]))
        cut = box_violation_cut(cov)
        assert cut.kind == "box-cov2" and cut.meta["point"] == 0


class TestOracle:
    def test_y_support_cut_fires_on_far_mass(self):
        ws = wellsep_line([0.0, 10.0, 20.0], y=[0])
        cov = CoverageVector(np.array([0.0, 0.5, 0.0]), np.zeros(3))
        verdict = wellsep_separation_oracle(ws, cov)
        assert isinstance(verdict, Separating)
        assert verdict.cut.kind == "y-support" and verdict.cut.meta["point"] == 1

    def test_mass_cut_fires_below_target(self):
        ws = wellsep_line([0.0, 10.0, 20.0], y=[0], m=2)
        cov = CoverageVector(np.array([0.9, 0.0, 0.0]), np.zeros(3))
        verdict = wellsep_separation_oracle(ws, cov)
        assert verdict.cut.kind == "mass"

    def test_rounds_integral_feasible_query(self):
        ws = wellsep_line([0.0, 0.5, 10.0], y=[0], m=3, k2=1)
        cov = CoverageVector(
            np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
        )
        verdict = wellsep_separation_oracle(ws, cov)
        assert isinstance(verdict, Rounded)
        solution, info = verdict.payload
        ok, count = verify_solution(ws.base, solution, WELLSEP_DILATION)
        assert ok and count == 3

    def test_tree_weight_cut_on_gap_query(self):
        # two triples, one large budget: fractional halves promise 6 but the
        # best integral selection saves 4
        xs = [0.0, 0.5, 1.0, 40.0, 40.5, 41.0]
        ws = wellsep_line(xs, y=[0, 3], r2=0.1, m=6, k1=1, k2=1)
        cov = CoverageVector(
            np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5]), np.full(6, 0.5)
        )
        verdict = wellsep_separation_oracle(ws, cov)
        assert isinstance(verdict, Separating)
        assert verdict.cut.kind == "tree-weight"
        assert verdict.cut.meta["best_value"] == 4
        # the emitted inequality holds on the instance's restricted hull
        assert validate_cut_on_hull(ws.base, verdict.cut, restrict_y=ws.y)
        # and the query violates it by nearly a full unit
        violation = float(verdict.a @ cov.to_vector() - verdict.b)
        assert violation >= 1.0 - 1e-6


class TestSolver:
    @pytest.mark.parametrize("cap", [0, -3])
    def test_iteration_cap_below_1_is_rejected(self, cap):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=cap)

    def test_iteration_cap_of_1_runs_the_oracle(self):
        ws = wellsep_line([0.0, 0.5, 10.0], y=[0], m=3, k2=1)
        res = solve_wellsep(ws, SolverConfig(shortcuts=False, max_iters=1))
        assert res.iterations == 1

    def test_finds_planted_wellsep_solution(self):
        ws = wellsep_line([0.0, 0.5, 10.0], y=[0], m=3, k2=1)
        res = solve_wellsep(ws)
        assert res.status == "solution"
        ok, count = verify_solution(ws.base, res.solution, WELLSEP_DILATION)
        assert ok and count >= 3

    def test_infeasible_when_y_cannot_reach(self):
        ws = wellsep_line([0.0, 10.0, 20.0], y=[0], m=3, k2=1)
        res = solve_wellsep(ws)
        assert res.status == "infeasible"

    def test_agrees_with_restricted_enumeration(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 60:
            ws = random_wellsep(rng)
            if ws is None:
                continue
            done += 1
            res = solve_wellsep(ws)
            brute = brute_force_nukc(ws.base, restrict_y=ws.y)
            if res.status == "infeasible":
                assert not brute.feasible
            else:
                assert res.solution.dilation <= WELLSEP_DILATION
                ok, _ = verify_solution(ws.base, res.solution, res.solution.dilation)
                assert ok
                if brute.feasible:
                    assert res.status == "solution"

    def test_no_shortcut_run_matches(self):
        rng = np.random.default_rng(19)
        cfg = SolverConfig(shortcuts=False)
        done = 0
        while done < 15:
            ws = random_wellsep(rng, max_n=7)
            if ws is None:
                continue
            done += 1
            res = solve_wellsep(ws, cfg)
            brute = brute_force_nukc(ws.base, restrict_y=ws.y)
            if brute.feasible:
                assert res.status == "solution"
            if res.status == "infeasible":
                assert not brute.feasible
