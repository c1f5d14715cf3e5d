"""Outer round-or-cut solver: dilation-10 solutions or proofs of infeasibility.

The outer oracle reduces each query at dilations (8, 2).  Low large-radius
mass on the roots means the forest must hold an in-budget selection of weight
m (round at dilation 10).  Otherwise nearly every large ball of a true
solution sits on a root, so the instance family obtained by pinning large
centers to the roots (well separated by construction) is solved recursively:
any inner solution lifts to dilation 8, and a clean sweep of infeasibilities
justifies cutting the root mass down to k1 - 2 (an inner run out of its cap
refutes nothing: the outer run then ends undecided).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .cutting_plane import (
    ORACLE_EPS, TARGET_SLACK, OracleExhausted, Rounded, Separating, certificate_bound, coverage_lp, mass_cut,
)
from .firefighter import solve_2ff
from .model import (
    CoverageVector,
    NUkCInstance,
    NUkCSolution,
    SolveResult,
    TheoryViolationError,
    WellSepNUkCInstance,
    verify_solution,
)
from .presolve import greedy_cover
from .reduction import lift_ff_solution, reduce_to_firefighter
from .wellsep import (
    SolverConfig, box_violation_cut, decide, set_cut, solve_wellsep,
)

# Not called here: perfbench/tracing.py patches this name in this module,
# until the solver records its own per-layer counts.
from .cutting_plane import run_round_or_cut  # noqa: F401

# Dilation of a Case II solution; Case I's 10 comes from the (8, 2) reduction.
CASE2_DILATION = 8.0


@dataclass(frozen=True)
class Candidate:
    """One well-separated sub-instance of the Case-II enumeration.

    ``q`` is the one large center allowed off the root set (None for the
    no-such-center case); its ball is granted for free, so the sub-instance
    lives on the remaining points with the target reduced accordingly.
    ``roots`` is the root set in original indices and ``parent`` the full
    instance.  ``points`` (sub-metric index to original index) and
    ``instance``, whose Y is the roots in sub-metric indices, are built on
    first access: the oracle stops at the first candidate that rounds, so
    most candidates never pay for them.
    """

    q: int | None
    roots: tuple[int, ...]
    parent: NUkCInstance = field(repr=False)

    @cached_property
    def points(self) -> tuple[int, ...]:
        inst = self.parent
        if self.q is None:
            return tuple(range(inst.n))
        return tuple(np.flatnonzero(~inst.metric.covers(self.q, inst.r1)).tolist())

    @cached_property
    def instance(self) -> WellSepNUkCInstance:
        inst = self.parent
        if self.q is None:
            metric, r2, k1, m, y = inst.metric, inst.r2, inst.k1, inst.m, self.roots
        else:
            metric = inst.metric.restrict(self.points)
            r2, k1 = 2.0 * inst.r2, inst.k1 - 1
            m = max(0, inst.m - (inst.n - len(self.points)))
            # The roots are disjoint from B(q, r1), so each has a position in points.
            y = tuple(np.searchsorted(self.points, self.roots).tolist())
        return WellSepNUkCInstance(metric, 2.0 * inst.r1, r2, k1, inst.k2, m, y)

    def start(self, cov: CoverageVector) -> np.ndarray:
        """The outer query ``cov`` as a first query for this candidate's inner run.

        Restricted to the candidate's points, with cov1 kept only within the
        inner r1 (2 * r1) of the roots, where the inner Y-support check
        allows it, and moved into cov2 elsewhere.  Each point's total is
        unchanged; every point dropped carries at most 1, so the kept mass
        is at least the reduced target whenever ``cov`` met the full one.
        """
        near = self.instance.near_y
        keep = list(self.points)
        cov1, cov2 = cov.cov1[keep], cov.cov2[keep]
        return np.concatenate([np.where(near, cov1, 0.0), cov2 + np.where(near, 0.0, cov1)])


def enumerate_candidates(
    instance: NUkCInstance, roots: Sequence[int]
) -> list[Candidate]:
    """Well-separated instances, Y the ``roots``, whose solutions lift to dilation 8.

    First the no-extra-center instance (full point set, radii (2*r1, r2),
    budgets unchanged), then one instance per point q farther than r1 from
    every root, removing B(q, r1) and spending one large ball on it.  These
    run at radii (2*r1, 2*r2): a small center inside B(q, r1) is removed
    too, but any kept point of its ball covers the kept part at 2*r2.
    Instances with q are skipped entirely when k1 = 0.  Only the q's are
    found here; each candidate builds its point set and sub-instance when
    first asked.
    """
    roots = tuple(sorted(int(v) for v in roots))
    out = [Candidate(q=None, roots=roots, parent=instance)]
    if instance.k1 == 0:
        return out
    near = instance.metric.covers(roots, instance.r1).any(axis=0)
    out += [Candidate(q=q, roots=roots, parent=instance) for q in np.flatnonzero(~near).tolist()]
    return out


def lift_candidate_solution(
    candidate: Candidate, inner: NUkCSolution, instance: NUkCInstance
) -> NUkCSolution:
    """Map an inner dilation-4 solution back to the full instance at dilation 8.

    Inner balls have radius 8*r1 and at most 8*r2 already; the extra center q
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

    Stateful: it keeps every Case-II inner run.  No driver run enumerates a
    root set twice: its ``candidates`` cut becomes an LP row, so a later query
    with the same roots has root mass <= k1 - 2 and goes to Case I.  That cut
    needs every candidate refuted; when one of them ended ``undecided`` instead,
    the oracle raises OracleExhausted, which ends the driver run ``exhausted``.
    """

    def __init__(self, instance: NUkCInstance, config: SolverConfig):
        self.instance = instance
        self.config = config
        self.inner_runs: list[tuple[Candidate, SolveResult]] = []

    def __call__(self, x: np.ndarray) -> Rounded | Separating:
        inst = self.instance
        n = inst.n
        cov = CoverageVector.from_vector(x)

        cut = box_violation_cut(cov)
        if cut is not None:
            return Separating(cut)
        if float(cov.cov().sum()) < inst.m - ORACLE_EPS:
            return Separating(mass_cut(n, inst.m))

        tree = reduce_to_firefighter(inst, 8.0, 2.0, cov)
        roots = tree.roots
        s1 = float(cov.cov1[list(roots)].sum())
        s2 = float(cov.cov2[list(tree.leaves)].sum())
        if s1 > inst.k1 + ORACLE_EPS:
            return Separating(set_cut(n, 1, roots, 1.0, float(inst.k1), "root-budget",
                                      roots=list(roots), mass=s1))
        if s2 > inst.k2 + ORACLE_EPS:
            return Separating(set_cut(n, 2, tree.leaves, 1.0, float(inst.k2), "leaf-budget",
                                      leaves=list(tree.leaves), mass=s2))

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
            return Rounded((solution, {"case": "I", "value": selection.value}))

        # A q whose B(q, r1) equals one tried before poses the same instance
        # from the same start, which already failed; points are read only
        # once the loop gets past the first candidate.
        tried: set[tuple[int, ...]] = set()
        undecided = False
        for cand in enumerate_candidates(inst, roots):
            if cand.q is not None:
                if cand.points in tried:
                    continue
                tried.add(cand.points)
            res = solve_wellsep(cand.instance, self.config, start=cand.start(cov))
            self.inner_runs.append((cand, res))
            if res.status == "solution":
                lifted = lift_candidate_solution(cand, res.solution, inst)
                return Rounded((lifted, {"case": "II", "q": cand.q}))
            undecided |= res.status == "undecided"
        if undecided:
            raise OracleExhausted(f"a Case II inner run for roots {list(roots)} ran out of its cap")
        return Separating(set_cut(n, 1, roots, 1.0, float(inst.k1 - 2), "candidates",
                                  roots=list(roots)))


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
    instance: NUkCInstance, config: SolverConfig | None = None,
    start: np.ndarray | None = None,
) -> SolveResult:
    """Return a verified solution at dilation <= 10 or declare infeasibility.

    INFEASIBLE asserts there is no dilation-1 solution; SOLUTION makes no claim
    about dilation 1 (a solution may be found even when dilation 1 is
    impossible, which is the approximation contract).  UNDECIDED (method
    ``cap``) means an iteration cap ran out first: the driver's, or an inner
    run's that left a Case II candidate unrefuted.  ``start`` (cov1 | cov2)
    is queried after the greedy screen, see ``decide``.  The outer oracle
    places large centers anywhere, so an instance with a Y raises ValueError.
    """
    if instance.y is not None:
        raise ValueError("solve_feasibility takes no instance with a Y: its large centers go anywhere")
    cfg = config or SolverConfig()
    trivial = _trivial_solution(instance)
    if trivial is not None:
        return SolveResult.verified(instance, trivial, "trivial")

    screen = cfg
    if cfg.shortcuts and start is not None:  # decide would ask the start before its greedy
        sol = greedy_cover(instance)
        if sol is not None:
            return SolveResult.verified(instance, sol, "greedy")
        screen = replace(cfg, shortcuts=False)
    oracle = OuterOracle(instance, cfg)
    res = decide(instance, oracle, screen, start)
    res.inner_runs = oracle.inner_runs
    return res


@dataclass
class OptimizeResult:
    """``optimize``'s answer: the scale, its solution and the probe trail.

    ``solution`` is in original-radius units, at dilation at most
    10 * ``rho_star``; None (with ``rho_star`` inf) when no scale was solved.
    ``probes`` holds one (scale, status) per scale decided, sorted by scale.
    A status is ``infeasible`` (refuted: an exact bound, or the full solve),
    ``undecided`` (a cap, or an LP refutation without a certificate),
    ``lp-feasible`` (openings or the coverage LP reach m there, so the search
    went below it; nothing was solved) or ``solution``.
    """

    rho_star: float
    solution: NUkCSolution | None
    probes: list[tuple[float, str]] = field(default_factory=list)


# optimize's LP phase steps down 1, 4, 16, ... scales.
_STEP_GROWTH = 4


def optimize(
    instance: NUkCInstance, config: SolverConfig | None = None
) -> OptimizeResult:
    """Smallest candidate scale the solver cannot refute, plus its solution.

    Candidate scales are 1 and the positive distance/radius quotients, one
    sorted array; scale 0 is ``_zero_scale_probe``'s.  Phase 1 bisects on cheap
    openings (farthest-first, or the greedy's cover, under both configs) for
    the lowest scale they cover; with shortcuts off the greedy only brackets
    the search, and every verdict comes from the start query or the driver.  Phase 2 steps down from it by 1, 4, 16, ...
    scales to the first the coverage LP refutes, then bisects that step.
    ``solve_feasibility`` then runs once, at the settled scale, from the
    openings; if it refuses, a bisection above uses it as its test.  See
    README.md.  Every probe below the returned scale was refuted, by an
    exact bound or by the full solve, so rho_star lower bounds the true
    optimum unless a probe is ``undecided`` (a cap ran out, or an LP
    refutation, scale 0's too, had no certificate): such a probe is searched
    above like an infeasible one.  The solution is reported in
    original-radius units, at dilation at most 10 * rho_star.  An instance
    with a Y raises ValueError, as in ``solve_feasibility``.
    """
    if instance.y is not None:
        raise ValueError("optimize takes no instance with a Y: its large centers go anywhere")
    cfg = config or SolverConfig()
    if instance.m <= 0:
        return OptimizeResult(0.0, NUkCSolution.empty(dilation=0.0), [(0.0, "solution")])
    if instance.m > instance.n or (instance.k1 == 0 and instance.k2 == 0):
        return OptimizeResult(math.inf, None, [])

    zero_status, zero_sol = _zero_scale_probe(instance)
    if zero_sol is not None:
        return OptimizeResult(0.0, zero_sol, [(0.0, "solution")])

    n, m = instance.n, instance.m
    candidates = _scale_grid(instance)

    status: dict[float, str] = {0.0: zero_status}
    certificate: np.ndarray | None = None  # of the highest probe refuted with one
    basis = None  # HiGHS's, from the highest probe whose LP refuted it
    # Openings x1, x2 of the lowest probe they cover, and its scaled
    # instance, whose ball table the final solve reads.
    witness = _farthest_first(instance)
    lowest: dict[float, NUkCInstance] = {}
    missed: dict[float, NUkCInstance] = {}  # phase 1's misses, whose tables phase 2 may read
    found: dict[float, NUkCSolution] = {}

    def fails(i: int, cheap: bool) -> bool:
        """Whether scale i misses the openings and greedy (``cheap``), or the coverage LP refutes it."""
        nonlocal certificate, basis, witness, lowest
        rho = float(candidates[i])
        scaled = missed.get(rho) or instance.scaled(rho)
        if not cheap and certificate is not None and certificate_bound(scaled, certificate) < m:
            status[rho] = "infeasible"  # its LP is below m
            return True
        if _start(scaled, witness).sum() < m - TARGET_SLACK:
            if cheap:
                cover = greedy_cover(scaled)
                if cover is None:
                    missed[rho] = scaled
                    return True
                witness = np.zeros((2, n))
                witness[0, list(cover.centers1)] = witness[1, list(cover.centers2)] = 1.0
            else:
                lp = coverage_lp(scaled, target=m, basis=basis)
                if lp.value < m - TARGET_SLACK:
                    basis = lp.basis
                    certificate = certificate if lp.certificate is None else lp.certificate
                    status[rho] = "undecided" if lp.certificate is None else "infeasible"
                    return True
                witness = np.array([lp.x1, lp.x2])
        status[rho] = "lp-feasible"
        lowest = {rho: scaled}
        return False

    def unsolved(i: int) -> bool:
        """The full solve as the test: whether it returns no SOLUTION at scale i."""
        rho = float(candidates[i])
        res = _solve_from(lowest.get(rho) or instance.scaled(rho), cfg, witness)
        status[rho] = res.status
        if res.status == "solution":
            found[rho] = res.solution
        return res.status != "solution"

    top = len(candidates) - 1
    hi = top + 1 if fails(top, cheap=True) else _search(0, top, lambda i: fails(i, cheap=True))
    lo = _search(0, hi, lambda i: fails(i, cheap=False), step=1)
    missed.clear()  # their tables are not read again
    while lo <= top and candidates[lo] not in found and unsolved(lo):
        lo = _search(lo + 1, top + 1, unsolved)
    if lo > top:
        return OptimizeResult(math.inf, None, sorted(status.items()))
    rho_star = float(candidates[lo])
    sol = found[rho_star]
    return OptimizeResult(rho_star, NUkCSolution(sol.centers1, sol.centers2, sol.dilation * rho_star),
                          sorted(status.items()))


def _scale_grid(instance: NUkCInstance) -> np.ndarray:
    """1 and the positive distance/radius quotients, ascending, deduped by float equality like np.unique."""
    grid = instance.metric.dist[np.arange(instance.n)[:, None] < np.arange(instance.n)]  # i < j, row-major
    grid = np.concatenate([[1.0], grid / instance.r1, grid / instance.r2 if instance.r2 > 0 else []])
    grid.sort()  # in place: np.unique sorts a copy
    grid = grid[np.searchsorted(grid, 0.0, side="right"):]
    return grid[np.append(True, grid[1:] != grid[:-1])]  # the first of each run of equal floats


def _search(lo: int, hi: int, fails, step: int = 0) -> int:
    """The least index in [lo, hi] found not to ``fails``, where ``hi`` passes: a bisection, after
    steps down from ``hi`` by ``step``, step * _STEP_GROWTH, ... to the first failure when step > 0."""
    while lo < hi:
        mid = max(hi - step, lo) if step else (lo + hi) // 2
        if fails(mid):
            lo, step = mid + 1, 0
        else:
            hi, step = mid, step * _STEP_GROWTH
    return hi


def _farthest_first(instance: NUkCInstance) -> np.ndarray:
    """Openings (rows x1, x2) of a farthest-first traversal from point 0 (Gonzalez, 1985): k1 large
    centers, then k2 small ones, in budget at every scale, until every point is at distance 0 from one."""
    x = np.zeros((2, instance.n))
    near = np.full(instance.n, np.inf)  # distance to the nearest center so far
    for i in range(min(instance.k1 + instance.k2, instance.n)):
        c = int(near.argmax())
        if near[c] == 0:
            break
        x[int(i >= instance.k1), c] = 1.0
        np.minimum(near, instance.metric.dist[c], out=near)
    return x


def _start(instance: NUkCInstance, x: np.ndarray) -> np.ndarray:
    """The coverage of openings ``x`` (rows x1, x2) as the driver splits it, flat cov1 | cov2: a
    point of the polytope where x is in budget.  Reads the open centers' balls, in O(their number * n)."""
    reach = []
    for row, r in zip(x, (instance.r1, instance.r2)):
        open_ = np.flatnonzero(row)
        reach.append(row[open_] @ instance.metric.covers(open_, r))
    cov1 = np.minimum(reach[0], 1.0)
    return np.concatenate([cov1, np.minimum(reach[1], 1.0 - cov1)])


def _solve_from(instance: NUkCInstance, config: SolverConfig, x: np.ndarray) -> SolveResult:
    """``optimize``'s full solve: ``solve_feasibility`` started at the coverage of openings ``x``."""
    return solve_feasibility(instance, config, start=_start(instance, x))


def _zero_scale_probe(instance: NUkCInstance) -> tuple[str, NUkCSolution | None]:
    """Scale 0, decided on ``low``: radii half the smallest positive distance (or 1) and 0.

    Every positive distance, either way, exceeds both of ``low``'s radii, so
    its balls are the rows of ``covers(None, 0.0)``.  The whole-ball bound
    ``certificate_bound(low, 1)`` below m is ("infeasible", None); it is
    exact where no two points are at distance 0.  Then ``greedy_cover(low)``
    gives ("solution", its centers at dilation 0) when they verify at 0.
    Last, the coverage LP: below m with a certificate is ("infeasible",
    None), anything else ("undecided", None), as is a least positive
    distance no float radius lies below.
    """
    n, m, metric = instance.n, instance.m, instance.metric
    delta = float(np.min(metric.dist, initial=np.inf, where=~metric.covers(None, 0.0)))
    # Not instance.scaled(delta / (2 * r1)): that scale underflows to 0 where delta / r1 < 1e-323.
    r1 = min(delta / 2.0, 1.0)
    if r1 == 0.0:  # delta is the least subnormal float, and no radius lies below it
        return "undecided", None
    low = NUkCInstance(metric, r1, 0.0, instance.k1, instance.k2, m)
    if certificate_bound(low, np.ones(n)) < m:
        return "infeasible", None
    cover = greedy_cover(low)
    if cover is not None:
        solution = NUkCSolution(cover.centers1, cover.centers2, 0.0)
        if verify_solution(instance, solution, 0.0)[0]:
            return "solution", solution
    lp = coverage_lp(low, target=m)
    if lp.value < m - TARGET_SLACK and lp.certificate is not None:
        return "infeasible", None
    return "undecided", None
