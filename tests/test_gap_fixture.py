"""Frozen integrality-gap fixture: a coverage mixture whose reduced tree is
fractionally valuable but integrally short, re-verified from scratch."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from nukc import (
    CoverageVector,
    brute_2ff,
    brute_force_nukc,
    frac_ff_solution,
    instance_from_json,
    reduce_to_firefighter,
    solve_2ff,
    solve_feasibility,
)
from nukc.serialize import load_json

FIXTURE = Path(__file__).parent / "fixtures" / "gap_fixture.json"


class TestGapFixture:
    def load(self):
        doc = load_json(FIXTURE)
        inst = instance_from_json(doc["instance"])
        cov = CoverageVector(
            cov1=np.asarray(doc["cov1"], dtype=float),
            cov2=np.asarray(doc["cov2"], dtype=float),
        )
        return doc, inst, cov

    def test_fractional_clears_target_integral_does_not(self):
        doc, inst, cov = self.load()
        tree = reduce_to_firefighter(
            replace(inst, y=tuple(doc["y"])), doc["alpha1"], doc["alpha2"], cov
        )
        frac = frac_ff_solution(tree, cov).value
        best = solve_2ff(tree).value
        target = math.floor(frac + 1e-9)
        assert frac >= target
        assert best <= target - 1  # the gap the rounding cases must bridge
        assert abs(frac - doc["frac_value"]) <= 1e-9 * max(1.0, abs(frac))
        assert best == doc["integral_value"]

    def test_integral_optimum_confirmed_by_enumeration(self):
        doc, inst, cov = self.load()
        tree = reduce_to_firefighter(
            replace(inst, y=tuple(doc["y"])), doc["alpha1"], doc["alpha2"], cov
        )
        assert brute_2ff(tree).value == solve_2ff(tree).value

    def test_enclosing_instance_verdict_matches_brute_force(self):
        doc, inst, _ = self.load()
        brute = brute_force_nukc(inst)
        assert brute.feasible == doc["brute_feasible"]
        res = solve_feasibility(inst)
        assert res.status == doc["outer_status"]
        if res.status == "infeasible":
            assert not brute.feasible
