"""Outer round-or-cut solver: dilation-10 solutions or proofs of infeasibility.

The outer oracle reduces each query at dilations (8, 2).  Low large-radius
mass on the roots means the forest must hold an in-budget selection of weight
m (round at dilation 10).  Otherwise nearly every large ball of a true
solution sits on a root, so the instance family obtained by pinning large
centers to the roots (well separated by construction) is solved recursively:
any inner solution lifts to dilation 8, and a clean sweep of infeasibilities
justifies cutting the root mass down to k1 - 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ellipsoid import Rounded, Separating, run_round_or_cut
from .firefighter import solve_2ff
from .model import (
    CoverageVector,
    Cut,
    NUkCInstance,
    NUkCSolution,
    SolveResult,
    TheoryViolationError,
    WellSepNUkCInstance,
    ball,
)
from .presolve import coverage_lp, greedy_cover, lp_probe_vector
from .reduction import lift_ff_solution, reduce_to_firefighter
from .wellsep import (
    ORACLE_EPS,
    SolverConfig,
    box_violation_cut,
    engine_verdict,
    mass_cut,
    solve_wellsep,
)

# Dilations achieved by the two rounding cases.
CASE1_DILATION = 10.0
CASE2_DILATION = 8.0


@dataclass(frozen=True)
class Candidate:
    """One well-separated sub-instance of the Case-II enumeration.

    ``q`` is the one large center allowed off the root set (None for the
    no-such-center case); its ball is granted for free, so the sub-instance
    lives on the remaining points with the target reduced accordingly.
    ``points`` maps sub-metric indices back to original ones.
    """

    q: int | None
    instance: WellSepNUkCInstance
    points: tuple[int, ...]


def enumerate_candidates(
    instance: NUkCInstance, y: Sequence[int]
) -> list[Candidate]:
    """Well-separated instances whose solutions lift to dilation 8.

    First the no-extra-center instance (full point set, radii (2*r1, r2),
    budgets unchanged), then one instance per point q farther than r1 from Y,
    removing B(q, r1) and spending one large ball on it.  Instances with
    q are skipped entirely when k1 = 0.
    """
    ys = tuple(sorted(int(v) for v in y))
    base = NUkCInstance(
        instance.metric,
        2.0 * instance.r1,
        instance.r2,
        instance.k1,
        instance.k2,
        instance.m,
    )
    out = [
        Candidate(
            q=None,
            instance=WellSepNUkCInstance(base=base, y=ys),
            points=tuple(range(instance.n)),
        )
    ]
    if instance.k1 == 0:
        return out
    d = instance.metric.dist
    d_to_y = d[:, list(ys)].min(axis=1) if ys else np.full(instance.n, np.inf)
    for q in range(instance.n):
        if d_to_y[q] <= instance.r1:
            continue
        removed = ball(instance.metric, q, instance.r1)
        keep = np.setdiff1d(np.arange(instance.n), removed)
        sub_metric = instance.metric.restrict(keep)
        pos = {int(orig): i for i, orig in enumerate(keep)}
        sub_y = tuple(pos[v] for v in ys)  # Y is disjoint from B(q, r1)
        sub = NUkCInstance(
            sub_metric,
            2.0 * instance.r1,
            instance.r2,
            instance.k1 - 1,
            instance.k2,
            max(0, instance.m - int(removed.size)),
        )
        out.append(
            Candidate(
                q=q,
                instance=WellSepNUkCInstance(base=sub, y=sub_y),
                points=tuple(int(v) for v in keep),
            )
        )
    return out


def lift_candidate_solution(
    candidate: Candidate, inner: NUkCSolution, instance: NUkCInstance
) -> NUkCSolution:
    """Map an inner dilation-4 solution back to the full instance at dilation 8.

    Inner large balls have radius 4 * (2*r1) = 8*r1 already; the extra center q
    (when present) only needs its radius-r1 ball, granted at dilation 8 too.
    The removed ball and the inner coverage are disjoint, so counts add.
    """
    centers1 = [candidate.points[i] for i in inner.centers1]
    if candidate.q is not None:
        centers1.append(candidate.q)
    centers2 = [candidate.points[i] for i in inner.centers2]
    if len(centers1) > instance.k1 or len(centers2) > instance.k2:
        raise ValueError("lifted candidate solution exceeds budgets")
    return NUkCSolution(
        centers1=tuple(centers1), centers2=tuple(centers2), dilation=CASE2_DILATION
    )


class OuterOracle:
    """Separation oracle over the full instance's coverage polytope.

    Stateful: it logs which case fired per query and memoizes the Case-II
    enumeration per root set (the candidate family depends only on Y = roots),
    since infeasible runs revisit the same root sets many times.
    """

    def __init__(self, instance: NUkCInstance, config: SolverConfig):
        self.instance = instance
        self.config = config
        self.case_log: list[dict] = []
        self.inner_runs: list[tuple[Candidate, SolveResult]] = []
        self._case2_cache: dict[tuple[int, ...], tuple] = {}

    def __call__(self, x: np.ndarray) -> Rounded | Separating:
        inst = self.instance
        n = inst.n
        cov = CoverageVector.from_vector(x)

        cut = box_violation_cut(cov)
        if cut is not None:
            self.case_log.append({"check": cut.kind})
            return Separating.from_cut(cut)
        if float(cov.cov().sum()) < inst.m - ORACLE_EPS:
            self.case_log.append({"check": "mass"})
            return Separating.from_cut(mass_cut(n, inst.m))

        tree = reduce_to_firefighter(inst, 8.0, 2.0, cov)
        roots = tree.roots
        s1 = float(cov.cov1[list(roots)].sum())
        s2 = float(cov.cov2[list(tree.leaves)].sum())
        if s1 > inst.k1 + ORACLE_EPS:
            self.case_log.append({"check": "root-budget", "mass": s1})
            a1 = np.zeros(n)
            a1[list(roots)] = 1.0
            return Separating.from_cut(
                Cut(a1=a1, a2=np.zeros(n), b=float(inst.k1), kind="root-budget",
                    meta={"roots": list(roots)})
            )
        if s2 > inst.k2 + ORACLE_EPS:
            self.case_log.append({"check": "leaf-budget", "mass": s2})
            a2 = np.zeros(n)
            a2[list(tree.leaves)] = 1.0
            return Separating.from_cut(
                Cut(a1=np.zeros(n), a2=a2, b=float(inst.k2), kind="leaf-budget",
                    meta={"leaves": list(tree.leaves)})
            )

        if s1 <= inst.k1 - 2 + ORACLE_EPS:
            # Root mass low enough that the forest provably holds weight m.
            selection = solve_2ff(tree)
            if selection.value < inst.m:
                raise TheoryViolationError(
                    "low-root-mass forest is not valuable",
                    dump={"instance": inst, "cov": cov, "roots": roots,
                          "root_mass": s1, "best_value": selection.value},
                )
            solution = lift_ff_solution(tree, selection)
            self.case_log.append({"case": "I", "value": selection.value})
            return Rounded((solution, {"case": "I", "value": selection.value}))

        cache_key = tuple(sorted(roots))
        outcome = self._case2_cache.get(cache_key)
        if outcome is None:
            outcome = ("infeasible",)
            for cand in enumerate_candidates(inst, roots):
                res = solve_wellsep(cand.instance, self.config)
                self.inner_runs.append((cand, res))
                if res.status == "solution":
                    lifted = lift_candidate_solution(cand, res.solution, inst)
                    outcome = ("solution", lifted, cand.q)
                    break
            self._case2_cache[cache_key] = outcome
        if outcome[0] == "solution":
            _, lifted, q = outcome
            self.case_log.append({"case": "II", "q": q})
            return Rounded((lifted, {"case": "II", "q": q}))
        self.case_log.append({"case": "II", "q": None, "result": "cut"})
        a1 = np.zeros(n)
        a1[list(roots)] = 1.0
        return Separating.from_cut(
            Cut(a1=a1, a2=np.zeros(n), b=float(inst.k1 - 2), kind="candidates",
                meta={"roots": list(roots)})
        )


def _trivial_solution(instance: NUkCInstance) -> NUkCSolution | None:
    """Distinct points cover themselves, so k1 + k2 >= m is always feasible."""
    if instance.m <= 0:
        return NUkCSolution.empty()
    if instance.k1 + instance.k2 < instance.m or instance.m > instance.n:
        return None
    picks2 = tuple(range(min(instance.k2, instance.m)))
    picks1 = tuple(range(len(picks2), instance.m))
    return NUkCSolution(centers1=picks1, centers2=picks2, dilation=1.0)


def solve_feasibility(
    instance: NUkCInstance, config: SolverConfig | None = None
) -> SolveResult:
    """Return a verified solution at dilation <= 10 or declare infeasibility.

    INFEASIBLE asserts there is no dilation-1 solution; SOLUTION makes no claim
    about dilation 1 (a solution may be found even when dilation 1 is
    impossible, which is the approximation contract).
    """
    cfg = config or SolverConfig()
    n = instance.n
    trivial = _trivial_solution(instance)
    if trivial is not None:
        return SolveResult.verified(instance, trivial, "trivial")
    if instance.m > n or (instance.k1 == 0 and instance.k2 == 0):
        return SolveResult("infeasible", method="trivial")

    oracle = OuterOracle(instance, cfg)
    trail = {"case_log": oracle.case_log, "inner_runs": oracle.inner_runs}
    probe_cuts: list[Cut] = []
    if cfg.shortcuts:
        sol = greedy_cover(instance)
        if sol is not None:
            return SolveResult.verified(instance, sol, "greedy")
        bound, x1, x2 = coverage_lp(instance)
        if bound < instance.m - 1e-6:
            return SolveResult("infeasible", method="lp-bound")
        if x1 is not None:
            # Query the LP optimizer first; integral optima round immediately.
            verdict = oracle(lp_probe_vector(instance, x1, x2))
            if isinstance(verdict, Rounded):
                solution, info = verdict.payload
                return SolveResult.verified(
                    instance, solution, "probe", case=info["case"], **trail
                )
            if verdict.cut is not None:
                probe_cuts.append(verdict.cut)

    res = run_round_or_cut(2 * n, oracle, cfg.engine(n))
    res.cuts[:0] = probe_cuts
    return engine_verdict(instance, res, **trail)


@dataclass
class OptimizeResult:
    rho_star: float
    solution: NUkCSolution | None
    probes: list[tuple[float, str]] = field(default_factory=list)


def optimize(
    instance: NUkCInstance, config: SolverConfig | None = None
) -> OptimizeResult:
    """Smallest candidate scale the solver cannot refute, plus its solution.

    Candidate scales are the distance/radius quotients (plus 0 and 1); below
    the returned scale the solver proved infeasibility, so rho_star lower
    bounds the true optimum and the solution's dilation is at most 10 times it.
    The solution is reported in original-radius units.
    """
    cfg = config or SolverConfig()
    if instance.m <= 0:
        return OptimizeResult(0.0, NUkCSolution.empty(dilation=0.0), [(0.0, "solution")])
    if instance.m > instance.n or (instance.k1 == 0 and instance.k2 == 0):
        return OptimizeResult(math.inf, None, [])

    zero_sol = _zero_scale_solution(instance)
    if zero_sol is not None:
        return OptimizeResult(0.0, zero_sol, [(0.0, "solution")])

    d = instance.metric.dist
    upper = d[np.triu_indices(instance.n, k=1)]
    values = {0.0, 1.0}
    values.update((upper / instance.r1).tolist())
    if instance.r2 > 0:
        values.update((upper / instance.r2).tolist())
    candidates = sorted(v for v in values if v > 0)

    probes: list[tuple[float, str]] = [(0.0, "infeasible")]
    results: dict[float, SolveResult] = {}

    def feasible(rho: float) -> bool:
        res = solve_feasibility(instance.scaled(rho), cfg)
        results[rho] = res
        probes.append((rho, res.status))
        return res.status == "solution"

    lo, hi = 0, len(candidates) - 1
    if not feasible(candidates[hi]):
        return OptimizeResult(math.inf, None, probes)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    rho_star = candidates[lo]
    found = results[rho_star].solution
    solution = NUkCSolution(
        centers1=found.centers1,
        centers2=found.centers2,
        dilation=found.dilation * rho_star,
    )
    probes.sort()
    return OptimizeResult(rho_star, solution, probes)


def _zero_scale_solution(instance: NUkCInstance) -> NUkCSolution | None:
    """Feasibility at scale 0: cover m points with k1 + k2 duplicate classes."""
    d = instance.metric.dist
    classes: list[list[int]] = []
    assigned = np.zeros(instance.n, dtype=bool)
    for v in range(instance.n):
        if assigned[v]:
            continue
        members = np.flatnonzero(d[v] == 0)
        assigned[members] = True
        classes.append([int(u) for u in members])
    classes.sort(key=lambda c: (-len(c), c[0]))
    picks = classes[: instance.k1 + instance.k2]
    if sum(len(c) for c in picks) < instance.m:
        return None
    reps = [c[0] for c in picks]
    return NUkCSolution(
        centers1=tuple(reps[: instance.k1]),
        centers2=tuple(reps[instance.k1 :]),
        dilation=0.0,
    )
