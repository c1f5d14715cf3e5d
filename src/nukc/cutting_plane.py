"""Cutting-plane driver for round-or-cut searches (Kelley's method).

The driver starts from the instance's coverage LP in excess form (columns
x1 | x2 | e, n + 2 rows, read from ``NUkCInstance.balls``) and hands each
optimum's coverage, split into cov1 | cov2, to a separation oracle.  The
oracle rounds it into a finished payload or returns one violated ``Cut``,
which is recorded and added as a row; dual simplex re-solves from the last
basis.  Oracle cuts come from finite families and each is new, so runs are
short.  A run given the target m stops as soon as HiGHS proves the LP
cannot reach it, and the LP's duals then give an exact certificate
(``lp_certificate``, ``certificate_bound``).  This module makes every HiGHS
call in the package, through scipy's private ``_highspy`` bindings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as _highs

from .model import Cut, NUkCInstance

# A cut returned by an oracle must be violated at the queried point by more
# than this; anything closer counts as satisfied and is an oracle bug.
CUT_CONTRACT_EPS = 1e-9

# Oracle checks fire only on violations above this, so every emitted cut beats
# the driver's contract with room and near-ties count as satisfied.
ORACLE_EPS = 1e-7

# Quiet dual simplex (the default) from the slack basis, which the excess form
# makes dual feasible, and no presolve, so each re-solve starts from the last
# basis.  HiGHS keeps every row within 1e-10 of its bound, far below
# CUT_CONTRACT_EPS, so a recorded cut is never violated at a later query.
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "off"
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.primal_feasibility_tolerance = 1e-10
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

# A run with a target stops once HiGHS proves the total coverage at most
# target - TARGET_SLACK: below the oracles' mass threshold (target - ORACLE_EPS),
# so the run ends as the oracle's mass cut would have ended it.
TARGET_SLACK = 1e-6

# Certificate entries are multiples of this.  Every partial sum of the bound
# is then a multiple of it below n, which float64 holds exactly for any
# n < 2**33, so the computed bound is the exact one.
CERTIFICATE_GRID = 2.0**-20

# Cleared HiGHS objects for the next models (see release).
_FREE: list[_highs._Highs] = []


class OracleContractError(RuntimeError):
    """An oracle returned a cut that the queried point does not violate."""


class LPSolveError(RuntimeError):
    """HiGHS failed, or ended a solve with neither an optimum nor infeasibility."""


class OracleExhausted(Exception):
    """A capped search inside the oracle ran out, so it neither rounds nor cuts: the run ends exhausted."""


@dataclass(frozen=True)
class Rounded:
    """Oracle verdict: the query was rounded into a finished payload."""

    payload: Any


@dataclass(frozen=True)
class Separating:
    """Oracle verdict: ``cut`` is violated at the query; it is recorded as is."""

    cut: Cut


@dataclass
class RoundOrCutResult:
    status: str  # "rounded" | "infeasible" (the LP is empty) | "exhausted" (cap)
    payload: Any = None
    cuts: list[Cut] = field(default_factory=list)  # in the order the oracle returned them

    @property
    def iterations(self) -> int:
        return len(self.cuts)


def default_max_iters(dim: int) -> int:
    """Iteration cap used when the caller does not pin one (an ellipsoid bound)."""
    return math.ceil(2.0 * dim * (dim + 1) * math.log(dim * 1e4))


def mass_cut(n: int, m: int) -> Cut:
    """-(total coverage) <= -m: the oracles' cut for a query whose total is below m."""
    return Cut(a1=-np.ones(n), a2=-np.ones(n), b=-float(m), kind="mass")


def _check(status, what: str) -> None:
    if status == _highs.HighsStatus.kError:
        raise LPSolveError(f"HiGHS failed to {what}")


@dataclass(frozen=True)
class CoverageModel:
    """One driver run's HiGHS model of ``instance``'s coverage LP.

    Every row, column and query is built from ``instance.balls``, in time
    linear in its length.  ``target``, when set, is the coverage a run needs
    (the instance's m): the run stops once the LP cannot reach it.
    """

    instance: NUkCInstance
    lp: _highs._Highs
    target: int | None = None


def _add_rows(lp, upper, count, index, value, what: str) -> None:
    """Rows -inf <= . <= ``upper``, holding ``count`` of the entries each, in order."""
    _check(lp.addRows(
        len(upper), np.full(len(upper), -_highs.kHighsInf), np.asarray(upper, dtype=float),
        len(index), np.concatenate([[0], np.cumsum(count)[:-1]]).astype(np.int32),
        np.asarray(index, dtype=np.int32), np.asarray(value, dtype=float),
    ), what)


def coverage_model(inst: NUkCInstance, target: int | None = None) -> CoverageModel:
    """The driver's start: the coverage LP in excess form, columns x1 | x2 | e.

    x1, x2 in [0, 1] (x1 = 0 off ``inst.y``, if any), e >= 0.  Row v's activity
    c_v = (the x1 covering v) + (the x2 covering v) - e_v lies in [0, 1]; then
    sum x1 <= k1, sum x2 <= k2.  Maximising sum |B(u, r1)| x1_u + |B(u, r2)|
    x2_u - sum e maximises the total coverage, the sum over v of min(1, the
    openings covering v), and each integral solution meets every row.  An
    opening at u covers its ball B(u, r) in ``inst.balls``.  The HiGHS
    object comes from ``release``'s free list when it holds one.
    """
    n = inst.n
    balls = inst.balls
    count = np.concatenate([np.diff(start) for start, _ in balls] + [np.ones(n, int)])
    upper = np.concatenate([np.ones(2 * n), np.full(n, _highs.kHighsInf)])
    if inst.y is not None:
        upper[:n] = np.isin(np.arange(n), inst.y)
    lp = _FREE.pop() if _FREE else _highs._Highs()
    _check(lp.passOptions(_OPTIONS), "take the driver options")
    _check(lp.passModel(
        3 * n, n, int(count.sum()), _COLWISE, _MINIMIZE, 0.0,
        np.concatenate([-count[: 2 * n], np.ones(n)]), np.zeros(3 * n), upper, np.zeros(n), np.ones(n),
        np.concatenate([[0], np.cumsum(count)]).astype(np.int32),
        np.concatenate([balls[0][1], balls[1][1], np.arange(n)]).astype(np.int32),
        np.repeat([1.0, -1.0], [count.sum() - n, n]), np.zeros(3 * n, dtype=np.int32),  # continuous
    ), "load the coverage LP")
    _add_rows(lp, [inst.k1, inst.k2], [n, n], np.arange(2 * n), np.ones(2 * n), "add the budget rows")
    return CoverageModel(inst, lp, target)


def release(model: CoverageModel) -> None:
    """Clear ``model``'s HiGHS object and keep it for the next ``coverage_model``.

    Building a HiGHS object costs more than clearing one.  Call it once the
    model's solution has been read; the model must not be used after.
    """
    _check(model.lp.clearModel(), "clear the model")
    _FREE.append(model.lp)


def lp_certificate(model: CoverageModel) -> np.ndarray | None:
    """A dyadic beta from the last solve's duals that proves the LP below its target, or None.

    Only a model with a target and no cut row qualifies.  With y_v the dual
    of point row v, beta_v = 1 + y_v is the reduced cost of e_v: the price of
    c_v <= (the openings reaching v).  It is clipped to [0, 1], floored to
    CERTIFICATE_GRID and returned when ``certificate_bound`` on the model's
    instance is below the target.  Float duals need no trust: the bound
    holds for any beta in [0, 1].
    """
    inst, lp = model.instance, model.lp
    n = inst.n
    if model.target is None or lp.getNumRow() != n + 2:
        return None
    solution = lp.getSolution()
    if not solution.dual_valid:
        return None
    beta = np.floor(np.clip(1.0 + np.array(solution.row_dual[:n]), 0.0, 1.0) / CERTIFICATE_GRID)
    beta *= CERTIFICATE_GRID
    return beta if certificate_bound(inst, beta) < model.target else None


def certificate_bound(inst: NUkCInstance, beta: np.ndarray) -> float:
    """Exact upper bound, from ``beta``, on the points any solution covers at dilation 1.

    For beta_v in [0, 1] and a >= 0, min(1, a) <= (1 - beta_v) + beta_v * a.
    So the coverage LP's optimum, and every solution with large centers in
    ``inst.y`` (all points without one), covers at most sum(1 - beta) plus
    the k1 largest beta(B(u, r1)) over u in Y plus the k2 largest
    beta(B(u, r2)).  A bound below m proves the instance infeasible, and
    the instance alone checks it.  ``beta`` must hold multiples of
    CERTIFICATE_GRID in [0, 1], so that every float sum here is exact.
    Reads ``inst.balls`` in O(their length).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (inst.n,) or not np.all((beta >= 0) & (beta <= 1)) or np.any(beta % CERTIFICATE_GRID):
        raise ValueError(f"a certificate is {inst.n} multiples of 2**-20 in [0, 1]")
    (start1, points1), (start2, points2) = inst.balls
    large = np.add.reduceat(beta[points1], start1[:-1])
    if inst.y is not None:
        large = large[list(inst.y)]
    small = np.add.reduceat(beta[points2], start2[:-1])
    top = [np.sort(w)[::-1][:k].sum() for w, k in ((large, inst.k1), (small, inst.k2))]
    return float((1.0 - beta).sum() + top[0] + top[1])


def _split(model: CoverageModel) -> None:
    """Add columns cov1 | cov2 under rows cov1_v <= the x1 covering v,
    cov2_v <= the x2 covering v and cov1_v + cov2_v <= 1, and fix row v at 0
    with -cov1_v - cov2_v added, so that c = cov1 + cov2."""
    lp, n = model.lp, model.instance.n
    first = lp.getNumRow()
    for block, (start, v) in enumerate(model.instance.balls):
        by_point = np.argsort(v, kind="stable")  # centers ascending within each point
        u = np.repeat(np.arange(n), np.diff(start))[by_point]
        _add_rows(lp, np.zeros(n), np.bincount(v, minlength=n), block * n + u, -np.ones(v.size),
                  "add the split rows")
    _add_rows(lp, np.ones(n), np.zeros(n, int), [], [], "add the split rows")
    v = np.tile(np.arange(n), 2)
    rows = np.column_stack([v, first + np.arange(2 * n), first + 2 * n + v]).ravel()
    _check(lp.addCols(2 * n, np.zeros(2 * n), np.zeros(2 * n), np.ones(2 * n), 6 * n,
                      np.arange(0, 6 * n, 3, dtype=np.int32), rows.astype(np.int32),
                      np.tile([-1.0, 1.0, 1.0], 2 * n)), "add the split columns")
    for row in range(n):
        _check(lp.changeRowBounds(row, 0.0, 0.0), "tie c to cov1 + cov2")


def run_round_or_cut(
    model: CoverageModel,
    oracle: Callable[[np.ndarray], Rounded | Separating],
    max_iters: int | None = None,
) -> RoundOrCutResult:
    """Query the oracle at LP optima until it rounds, the LP empties or the cap runs out.

    The oracle sees cov1 = min(c, the x1 covering v) | cov2 = c - cov1, a point
    of the full coverage polytope with the same total, at most ``max_iters``
    times.  A cut with a1 = a2 is a row on x and e (c = reach - e); the first
    with a1 != a2 adds cov1 | cov2 columns (``_split``) for later queries and
    cuts.  A cut not violated at the query by more than CUT_CONTRACT_EPS
    raises OracleContractError.  A violated -t * (total coverage) <= b, t > 0,
    empties the LP, whose optimum maximises the total: it is recorded, not
    added, and the run stops.  With ``model.target`` set, dual simplex stops
    as soon as its bound proves the total below the target by TARGET_SLACK;
    the run records the ``mass`` cut the oracle would have returned at the
    optimum, and stops as that cut stops it.  Status ``infeasible`` (the LP
    plus the cuts is empty) and ``exhausted`` (the cap ran out) are not
    floating-point proofs; ``lp_certificate`` makes the first one when no
    cut was added.  An oracle that raises OracleExhausted also ends the run
    ``exhausted``.
    """
    lp, n, balls = model.lp, model.instance.n, model.instance.balls
    (start1, points1), _ = balls
    if max_iters is None:
        max_iters = default_max_iters(2 * n)
    bound = _highs.kHighsInf if model.target is None else TARGET_SLACK - model.target
    _check(lp.setOptionValue("objective_bound", bound), "set the objective bound")
    cuts: list[Cut] = []
    split = empty = False
    for _ in range(max_iters):
        if empty:
            return RoundOrCutResult("infeasible", cuts=cuts)
        _check(lp.run(), f"solve after {len(cuts)} cuts")
        status = lp.getModelStatus()
        if status == _highs.HighsModelStatus.kInfeasible:
            return RoundOrCutResult("infeasible", cuts=cuts)
        if status == _highs.HighsModelStatus.kObjectiveBound:  # as a mass cut at the optimum
            cuts.append(mass_cut(n, model.target))
            empty = True
            continue
        if status != _highs.HighsModelStatus.kOptimal:
            raise LPSolveError(f"HiGHS ended with {lp.modelStatusToString(status)!r}")
        solution = lp.getSolution()
        if split:
            x = np.array(solution.col_value[3 * n :])
        else:
            x1, c = np.array(solution.col_value[:n]), np.array(solution.row_value[:n])
            reach1 = np.zeros(n)
            for u in np.flatnonzero(x1):  # few at a vertex; O(their balls) memory
                reach1[points1[start1[u] : start1[u + 1]]] += x1[u]
            cov1 = np.minimum(c, reach1)
            x = np.concatenate([cov1, c - cov1])
        try:
            verdict = oracle(x.copy())
        except OracleExhausted:
            return RoundOrCutResult("exhausted", cuts=cuts)
        if isinstance(verdict, Rounded):
            return RoundOrCutResult("rounded", verdict.payload, cuts)
        if not isinstance(verdict, Separating):
            raise TypeError(f"oracle returned {type(verdict).__name__}")
        cut = verdict.cut
        a = cut.as_vector()
        violation = float(a @ x - cut.b)
        if not violation > CUT_CONTRACT_EPS:
            raise OracleContractError(
                f"cut {cut.kind!r} not violated at the query "
                f"(violation {violation:.3g} <= eps {CUT_CONTRACT_EPS:.3g})"
            )
        cuts.append(cut)
        if empty := a[0] < 0 and bool(np.all(a == a[0])):
            continue
        if not (split or np.array_equal(cut.a1, cut.a2)):
            _split(model)
            split = True
        if not split:  # a1 . c with c = reach - e; no ball is empty, as each holds its center
            a = np.concatenate([np.add.reduceat(cut.a1[v], start[:-1]) for start, v in balls]
                               + [-cut.a1])
        nz = np.flatnonzero(a)
        _add_rows(lp, [cut.b], [nz.size], nz + 3 * n * split, a[nz], f"add cut {cut.kind!r}")
    return RoundOrCutResult("exhausted", cuts=cuts)


class CoverageLP(NamedTuple):
    """One solve of the coverage LP (``coverage_lp``)."""

    value: float  # the optimum, or a bound below target - TARGET_SLACK where the solve stopped there
    x1: np.ndarray  # the openings at the optimum; meaningless when value is below the target
    x2: np.ndarray
    basis: Any = None  # HiGHS's basis at the end, a start for another instance's solve
    certificate: np.ndarray | None = None  # lp_certificate, when value is below the target


def coverage_lp(
    instance: NUkCInstance, target: int | None = None, basis: Any = None,
) -> CoverageLP:
    """Maximum coverage's LP relaxation, solved once: the driver's first vertex.

    The optimum bounds every integral coverage, so one below m refutes the
    instance at dilation 1.  With ``target``, dual simplex stops once it
    proves the optimum below target - TARGET_SLACK, and a value below that
    comes with the LP's ``lp_certificate`` when it has one.  ``basis``, the
    ``basis`` of an earlier result on an instance with as many points, is
    the start; HiGHS repairs a singular one.  HiGHS failures raise
    LPSolveError.
    """
    n = instance.n
    if n == 0:
        return CoverageLP(0.0, np.zeros(0), np.zeros(0))
    model = coverage_model(instance, target)
    if basis is not None:
        _check(model.lp.setBasis(basis), "take the start basis")
    run_round_or_cut(model, Rounded)  # the oracle rounds the first optimum
    x = np.array(model.lp.getSolution().col_value)
    value = -float(model.lp.getInfo().objective_function_value)
    refuted = target is not None and value < target - TARGET_SLACK
    certificate = lp_certificate(model) if refuted else None
    out = CoverageLP(value, x[:n], x[n : 2 * n], model.lp.getBasis(), certificate)
    release(model)
    return out
