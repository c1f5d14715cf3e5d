"""Round-or-cut solver for well-separated instances.

When large-radius centers are confined to a set Y whose points are pairwise
more than 4*r1 apart, a coverage vector that survives the box, Y-support and
mass checks either reduces to a star forest with an in-budget selection of
weight m (rounding to a dilation-4 solution) or yields the forest-weight
inequality as a cut that every true solution satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import (
    Rounded,
    RoundOrCutConfig,
    RoundOrCutResult,
    Separating,
    run_round_or_cut,
)
from .firefighter import solve_2ff
from .model import (
    CoverageVector,
    Cut,
    NUkCInstance,
    NUkCSolution,
    SolveResult,
    WellSepNUkCInstance,
)
from .presolve import coverage_lp, greedy_cover, lp_probe_vector
from .reduction import lift_ff_solution, reduce_to_firefighter

# Oracle checks fire only on violations above this, so every emitted cut beats
# the engine's 1e-9 contract with room and near-ties count as satisfied.
ORACLE_EPS = 1e-7

# Dilation achieved by rounding: both reduction layers run at factor 2.
WELLSEP_DILATION = 4.0


@dataclass
class SolverConfig:
    """Knobs shared by the inner and outer solvers."""

    max_iters: int | None = None  # ellipsoid cap; None uses the dimension formula
    shortcuts: bool = True  # greedy / LP presolve screens

    def engine(self, n: int = 0) -> RoundOrCutConfig:
        # A feasible 0/1 coverage vector keeps passing every oracle check under
        # perturbations up to ORACLE_EPS / (2n) per coordinate, so once the
        # ellipsoid fits inside that radius and the center still separates, no
        # feasible point is left and the engine may stop early.
        stop = ORACLE_EPS / (4.0 * n) if n > 0 else 0.0
        return RoundOrCutConfig(max_iters=self.max_iters, stop_radius=stop)


def engine_verdict(
    instance: NUkCInstance, res: RoundOrCutResult, **fields
) -> SolveResult:
    """The verdict of a finished engine run: verified SOLUTION or INFEASIBLE."""
    if res.status == "rounded":
        solution, info = res.payload
        return SolveResult.verified(
            instance, solution, "round", case=info.get("case", ""),
            iterations=res.iterations, cuts=res.cuts, **fields,
        )
    return SolveResult(
        "infeasible", method="cap", iterations=res.iterations, cuts=res.cuts, **fields
    )


def _unit_cut(n: int, block: int, v: int, sign: float, b: float, kind: str) -> Cut:
    a1 = np.zeros(n)
    a2 = np.zeros(n)
    (a1 if block == 1 else a2)[v] = sign
    return Cut(a1=a1, a2=a2, b=b, kind=kind, meta={"point": int(v)})


def box_violation_cut(cov: CoverageVector, eps: float = ORACLE_EPS) -> Cut | None:
    """First violated box constraint in point order, or None.

    Per point the checks are cov1 >= 0, cov2 >= 0, cov1 + cov2 <= 1.
    """
    n = cov.n
    bad1 = cov.cov1 < -eps
    bad2 = cov.cov2 < -eps
    bad3 = cov.cov1 + cov.cov2 > 1.0 + eps
    hits = []
    if bad1.any():
        hits.append((int(np.argmax(bad1)), 0))
    if bad2.any():
        hits.append((int(np.argmax(bad2)), 1))
    if bad3.any():
        hits.append((int(np.argmax(bad3)), 2))
    if not hits:
        return None
    v, which = min(hits)
    if which == 0:
        return _unit_cut(n, 1, v, -1.0, 0.0, "box-cov1")
    if which == 1:
        return _unit_cut(n, 2, v, -1.0, 0.0, "box-cov2")
    a1 = np.zeros(n)
    a2 = np.zeros(n)
    a1[v] = 1.0
    a2[v] = 1.0
    return Cut(a1=a1, a2=a2, b=1.0, kind="box-total", meta={"point": int(v)})


def mass_cut(n: int, m: int) -> Cut:
    return Cut(a1=-np.ones(n), a2=-np.ones(n), b=-float(m), kind="mass")


def wellsep_separation_oracle(
    ws: WellSepNUkCInstance, cov: CoverageVector
) -> Rounded | Separating:
    """Round the query to a dilation-4 solution or separate it from the hull.

    Check order: box, Y-support, coverage mass, then the forest reduction at
    dilations (2, 2) with Y-priority.  A non-valuable forest yields the
    weighted-leaf inequality, which the query violates by almost a full unit
    whenever the mass check passed.
    """
    inst = ws.base
    n = inst.n
    cut = box_violation_cut(cov)
    if cut is not None:
        return Separating.from_cut(cut)

    d_to_y = inst.metric.dist[:, list(ws.y)].min(axis=1) if ws.y else np.full(n, np.inf)
    far = d_to_y > inst.r1
    bad = far & (cov.cov1 > ORACLE_EPS)
    if bad.any():
        v = int(np.argmax(bad))
        return Separating.from_cut(_unit_cut(n, 1, v, 1.0, 0.0, "y-support"))

    if float(cov.cov().sum()) < inst.m - ORACLE_EPS:
        return Separating.from_cut(mass_cut(n, inst.m))

    tree = reduce_to_firefighter(inst, 2.0, 2.0, cov, y=ws.y)
    selection = solve_2ff(tree)
    if selection.value >= inst.m:
        solution = lift_ff_solution(tree, selection)
        return Rounded((solution, {"value": selection.value, "roots": tree.roots}))
    a1 = np.zeros(n)
    a2 = np.zeros(n)
    for v in tree.leaves:
        a1[v] = tree.w[v]
        a2[v] = tree.w[v]
    return Separating.from_cut(
        Cut(a1=a1, a2=a2, b=float(inst.m - 1), kind="tree-weight",
            meta={"roots": list(tree.roots), "best_value": selection.value})
    )


def solve_wellsep(
    ws: WellSepNUkCInstance, config: SolverConfig | None = None
) -> SolveResult:
    """Decide a well-separated instance: dilation-4 solution or infeasible.

    INFEASIBLE means no solution with large centers inside Y covers m points at
    dilation 1; the returned cuts are the certificate trail.
    """
    cfg = config or SolverConfig()
    inst = ws.base
    n = inst.n
    if inst.m <= 0:
        return SolveResult.verified(inst, NUkCSolution.empty(), "trivial")
    if inst.m > n or (inst.k1 == 0 and inst.k2 == 0):
        return SolveResult("infeasible", method="trivial")

    def oracle(x: np.ndarray):
        return wellsep_separation_oracle(ws, CoverageVector.from_vector(x))

    probe_cuts: list[Cut] = []
    if cfg.shortcuts:
        sol = greedy_cover(inst, restrict_y=ws.y)
        if sol is not None:
            return SolveResult.verified(inst, sol, "greedy")
        bound, x1, x2 = coverage_lp(inst, restrict_y=ws.y)
        if bound < inst.m - 1e-6:
            return SolveResult("infeasible", method="lp-bound")
        if x1 is not None:
            # Query the LP optimizer first; integral optima round immediately.
            verdict = oracle(lp_probe_vector(inst, x1, x2))
            if isinstance(verdict, Rounded):
                return SolveResult.verified(inst, verdict.payload[0], "probe")
            if verdict.cut is not None:
                probe_cuts.append(verdict.cut)

    res = run_round_or_cut(2 * n, oracle, cfg.engine(n))
    res.cuts[:0] = probe_cuts
    return engine_verdict(inst, res)
