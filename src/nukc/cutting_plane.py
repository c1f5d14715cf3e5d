"""Cutting-plane driver for round-or-cut searches (Kelley's method).

The driver starts from the instance's coverage LP in excess form (columns
x1 | x2 | e, n + 2 rows) and hands each optimum's coverage, split into
cov1 | cov2, to a separation oracle.  The oracle rounds it into a finished
payload or returns one violated ``Cut``, which is recorded and added as a row;
dual simplex re-solves from the last basis.  Oracle cuts come from finite
families and each is new, so runs are short.  This module makes every HiGHS
call in the package, through scipy's private ``_highspy`` bindings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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
BallRows = tuple[tuple[np.ndarray, np.ndarray], ...]  # see ball_rows


class OracleContractError(RuntimeError):
    """An oracle returned a cut that the queried point does not violate."""


class LPSolveError(RuntimeError):
    """HiGHS failed, or ended a solve with neither an optimum nor infeasibility."""


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


def _check(status, what: str) -> None:
    if status == _highs.HighsStatus.kError:
        raise LPSolveError(f"HiGHS failed to {what}")


@dataclass(frozen=True)
class CoverageModel:
    """One driver run's HiGHS model of ``instance``'s coverage LP.

    Every row, column and query is built from ``reach``, ``ball_rows(instance)``,
    in time linear in its length.
    """

    instance: NUkCInstance
    lp: _highs._Highs
    reach: BallRows


def _add_rows(lp, upper, count, index, value, what: str) -> None:
    """Rows -inf <= . <= ``upper``, holding ``count`` of the entries each, in order."""
    _check(lp.addRows(
        len(upper), np.full(len(upper), -_highs.kHighsInf), np.asarray(upper, dtype=float),
        len(index), np.concatenate([[0], np.cumsum(count)[:-1]]).astype(np.int32),
        np.asarray(index, dtype=np.int32), np.asarray(value, dtype=float),
    ), what)


def ball_rows(inst: NUkCInstance) -> BallRows:
    """Each B(u, r1), then each B(u, r2), read through ``MetricSpace.covers``.

    Per radius ``(start, points)``, u's points ascending at ``points[start[u] : start[u + 1]]``;
    no row is empty, as each ball holds its center.
    """
    n = inst.n
    flats = [np.flatnonzero(inst.metric.covers(None, r)) for r in (inst.r1, inst.r2)]  # u * n + v
    return tuple((np.searchsorted(flat, np.arange(0, n * n + 1, n)), flat % n) for flat in flats)


def coverage_model(inst: NUkCInstance, y: Sequence[int] | None = None,
                   reach: BallRows | None = None) -> CoverageModel:
    """The driver's start: the coverage LP in excess form, columns x1 | x2 | e.

    x1, x2 in [0, 1] (x1 = 0 off ``y`` when given), e >= 0.  Row v's activity
    c_v = (the x1 covering v) + (the x2 covering v) - e_v lies in [0, 1]; then
    sum x1 <= k1, sum x2 <= k2.  Maximising sum |B(u, r1)| x1_u + |B(u, r2)|
    x2_u - sum e maximises the total coverage, the sum over v of min(1, the
    openings covering v), and each integral solution meets every row.  An
    opening at u covers its ball B(u, r) in ``reach``, ``ball_rows(inst)`` unless given.
    """
    n = inst.n
    reach = reach or ball_rows(inst)
    count = np.concatenate([np.diff(start) for start, _ in reach] + [np.ones(n, int)])
    upper = np.concatenate([np.ones(2 * n), np.full(n, _highs.kHighsInf)])
    if y is not None:
        upper[:n] = np.isin(np.arange(n), y)
    lp = _highs._Highs()
    _check(lp.passOptions(_OPTIONS), "take the driver options")
    _check(lp.passModel(
        3 * n, n, int(count.sum()), _COLWISE, _MINIMIZE, 0.0,
        np.concatenate([-count[: 2 * n], np.ones(n)]), np.zeros(3 * n), upper, np.zeros(n), np.ones(n),
        np.concatenate([[0], np.cumsum(count)]).astype(np.int32),
        np.concatenate([reach[0][1], reach[1][1], np.arange(n)]).astype(np.int32),
        np.repeat([1.0, -1.0], [count.sum() - n, n]), np.zeros(3 * n, dtype=np.int32),  # continuous
    ), "load the coverage LP")
    _add_rows(lp, [inst.k1, inst.k2], [n, n], np.arange(2 * n), np.ones(2 * n), "add the budget rows")
    return CoverageModel(inst, lp, reach)


def _split(model: CoverageModel) -> None:
    """Add columns cov1 | cov2 under rows cov1_v <= the x1 covering v,
    cov2_v <= the x2 covering v and cov1_v + cov2_v <= 1, and fix row v at 0
    with -cov1_v - cov2_v added, so that c = cov1 + cov2."""
    lp, n = model.lp, model.instance.n
    first = lp.getNumRow()
    for block, (start, v) in enumerate(model.reach):
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
    added, and the run stops.  Status ``infeasible`` (the LP plus the cuts is
    empty) and ``exhausted`` (the cap ran out) are not floating-point proofs.
    """
    lp, n = model.lp, model.instance.n
    (start1, points1), _ = model.reach
    if max_iters is None:
        max_iters = default_max_iters(2 * n)
    cuts: list[Cut] = []
    split = empty = False
    for _ in range(max_iters):
        if empty:
            return RoundOrCutResult("infeasible", cuts=cuts)
        _check(lp.run(), f"solve after {len(cuts)} cuts")
        status = lp.getModelStatus()
        if status == _highs.HighsModelStatus.kInfeasible:
            return RoundOrCutResult("infeasible", cuts=cuts)
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
        verdict = oracle(x.copy())
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
            a = np.concatenate([np.add.reduceat(cut.a1[v], start[:-1]) for start, v in model.reach]
                               + [-cut.a1])
        nz = np.flatnonzero(a)
        _add_rows(lp, [cut.b], [nz.size], nz + 3 * n * split, a[nz], f"add cut {cut.kind!r}")
    return RoundOrCutResult("exhausted", cuts=cuts)


def coverage_lp(
    instance: NUkCInstance, restrict_y: Sequence[int] | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """(optimum, x1, x2) of maximum coverage's LP relaxation: the driver's first vertex.

    The optimum bounds every integral coverage, so one below m certifies
    infeasibility at dilation 1.  HiGHS failures raise LPSolveError.
    """
    n = instance.n
    if n == 0:
        return 0.0, np.zeros(0), np.zeros(0)
    model = coverage_model(instance, restrict_y)
    run_round_or_cut(model, Rounded)  # the oracle rounds the first optimum
    x = np.array(model.lp.getSolution().col_value)
    return -float(model.lp.getInfo().objective_function_value), x[:n], x[n : 2 * n]
