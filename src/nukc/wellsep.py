"""Round-or-cut solver for well-separated instances.

When large-radius centers are confined to a set Y whose points are pairwise
more than 4*r1 apart, a coverage vector that survives the box, Y-support and
mass checks either reduces to a star forest with an in-budget selection of
weight m (rounding to a dilation-4 solution) or yields the forest-weight
inequality as a cut that every true solution satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cutting_plane import (
    ORACLE_EPS, OracleExhausted, Rounded, Separating, coverage_model, lp_certificate, mass_cut, release,
    run_round_or_cut,
)
# Not called here (outer.optimize calls it): perfbench/tracing.py patches it here too.
from .cutting_plane import coverage_lp  # noqa: F401
from .firefighter import solve_2ff
from .model import (
    CoverageVector,
    Cut,
    NUkCInstance,
    NUkCSolution,
    SolveResult,
    WellSepNUkCInstance,
    require_integer,
)
from .presolve import greedy_cover
from .reduction import lift_ff_solution, reduce_to_firefighter

# Dilation achieved by rounding: both reduction layers run at factor 2.
WELLSEP_DILATION = 4.0


@dataclass
class SolverConfig:
    """Knobs shared by the inner and outer solvers."""

    max_iters: int | None = None  # oracle queries per driver run; None: default_max_iters
    # Both solvers run ``decide``; False skips its greedy screen and nothing
    # else, so every nontrivial outer verdict comes from the driver or a start
    # query (``optimize``'s greedy still brackets its scale search).
    shortcuts: bool = True

    def __post_init__(self):
        if self.max_iters is None:
            return
        require_integer(self.max_iters, "max_iters")  # a float cap breaks the driver's range()
        # A cap below 1 ends the driver before its first oracle call, so the
        # run could never decide anything.
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


def decide(
    inst: NUkCInstance,
    oracle: Callable[[np.ndarray], Rounded | Separating],
    config: SolverConfig,
    y: Sequence[int] | None = None,
    start: np.ndarray | None = None,
) -> SolveResult:
    """The decision pipeline both solvers run once their trivial answers fail.

    First one query of ``oracle`` at ``start`` when given: a ``Rounded``
    answer is verified like any other and returned with method ``start``; a
    ``Separating`` one, or OracleExhausted, is dropped: no cut reaches the LP.
    Then, with shortcuts on, the greedy; then the driver over ``oracle`` from the
    coverage LP, with large centers confined to ``y`` in both.  Both read
    ``inst.balls``, built on the first read.  INFEASIBLE comes only from the
    driver, and an exhausted iteration cap is UNDECIDED (method ``cap``), as
    is a run whose oracle raised OracleExhausted.  The driver's model
    carries m as its target; when the LP alone refutes m, the verdict
    carries the LP's ``lp_certificate``, checked on the same balls, and
    without one it is UNDECIDED (method ``uncertified``).
    perfbench/tracing.py patches greedy_cover and run_round_or_cut in this
    module, so they are called through its globals.
    """
    if inst.m > inst.n or (inst.k1 == 0 and inst.k2 == 0):
        return SolveResult("infeasible", method="trivial")
    if start is not None:
        try:
            verdict = oracle(start)
        except OracleExhausted:
            verdict = None
        if isinstance(verdict, Rounded):
            solution, info = verdict.payload
            return SolveResult.verified(inst, solution, "start", case=info.get("case", ""))
    if config.shortcuts:
        sol = greedy_cover(inst, restrict_y=y)
        if sol is not None:
            return SolveResult.verified(inst, sol, "greedy")

    model = coverage_model(inst, y, target=inst.m)
    res = run_round_or_cut(model, oracle, config.max_iters)
    lp_only = model.lp.getNumRow() == inst.n + 2  # no cut became a row
    certificate = lp_certificate(model, y) if res.status == "infeasible" else None
    release(model)
    if res.status == "rounded":
        solution, info = res.payload
        return SolveResult.verified(inst, solution, "round", case=info.get("case", ""), cuts=res.cuts)
    if res.status == "infeasible" and lp_only and certificate is None:
        return SolveResult("undecided", method="uncertified", cuts=res.cuts)
    if res.status == "infeasible":
        return SolveResult("infeasible", method="lp-empty", cuts=res.cuts, certificate=certificate)
    return SolveResult("undecided", method="cap", cuts=res.cuts)


def set_cut(
    n: int, block: int, points: Sequence[int], sign: float, b: float, kind: str, **meta
) -> Cut:
    """The cut ``sign * sum(cov{block}[v] for v in points) <= b``."""
    a1 = np.zeros(n)
    a2 = np.zeros(n)
    (a1 if block == 1 else a2)[list(points)] = sign
    return Cut(a1=a1, a2=a2, b=b, kind=kind, meta=meta)


def box_violation_cut(cov: CoverageVector, eps: float = ORACLE_EPS) -> Cut | None:
    """First violated box constraint in point order, or None.

    Per point the checks are cov1 >= 0, cov2 >= 0, cov1 + cov2 <= 1, in that
    order: one (n, 3) mask read row by row.
    """
    n = cov.n
    bad = np.array((cov.cov1 < -eps, cov.cov2 < -eps, cov.cov1 + cov.cov2 > 1.0 + eps))
    hits = np.flatnonzero(bad.T)  # (n, 3), row-major: point first, then check
    if hits.size == 0:
        return None
    v, which = divmod(int(hits[0]), 3)
    if which < 2:
        return set_cut(n, which + 1, [v], -1.0, 0.0, f"box-cov{which + 1}", point=v)
    a1 = np.zeros(n)
    a2 = np.zeros(n)
    a1[v] = 1.0
    a2[v] = 1.0
    return Cut(a1=a1, a2=a2, b=1.0, kind="box-total", meta={"point": int(v)})


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
        return Separating(cut)

    bad = ~inst.metric.covers(ws.y, inst.r1).any(axis=0) & (cov.cov1 > ORACLE_EPS)
    if bad.any():
        v = int(np.argmax(bad))
        return Separating(set_cut(n, 1, [v], 1.0, 0.0, "y-support", point=v))

    if float(cov.cov().sum()) < inst.m - ORACLE_EPS:
        return Separating(mass_cut(n, inst.m))

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
    return Separating(
        Cut(a1=a1, a2=a2, b=float(inst.m - 1), kind="tree-weight",
            meta={"roots": list(tree.roots), "best_value": selection.value})
    )


def solve_wellsep(
    ws: WellSepNUkCInstance,
    config: SolverConfig | None = None,
    start: np.ndarray | None = None,
) -> SolveResult:
    """Decide a well-separated instance: dilation-4 solution or infeasible.

    INFEASIBLE means no solution with large centers inside Y covers m points at
    dilation 1; the returned cuts are the certificate trail.  ``start``, a
    flat cov1 | cov2 vector over the instance's points, is queried before the
    greedy and the driver (see ``decide``); the outer oracle passes its own
    query mapped onto a Case II candidate.
    """
    cfg = config or SolverConfig()
    inst = ws.base
    if inst.m <= 0:
        return SolveResult.verified(inst, NUkCSolution.empty(), "trivial")

    def oracle(x: np.ndarray):
        return wellsep_separation_oracle(ws, CoverageVector.from_vector(x))

    return decide(inst, oracle, cfg, ws.y, start)
