"""Cutting-plane driver for round-or-cut searches (Kelley's method).

The driver starts from the instance's compact coverage LP (columns c | x1 | x2,
n + 2 rows) and hands each optimum's coverage, split into cov1 | cov2, to a
separation oracle.  The oracle rounds it into a finished payload or returns
one violated ``Cut``, which is recorded and added as a row; dual simplex
re-solves from the last basis.  Oracle cuts come from finite families and
each is new, so runs are short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .model import Cut, NUkCInstance
from .presolve import _COLWISE, _MINIMIZE, _highs, _highs_options, opening_columns

# A cut returned by an oracle must be violated at the queried point by more
# than this; anything closer counts as satisfied and is an oracle bug.
CUT_CONTRACT_EPS = 1e-9

# Oracle checks fire only on violations above this, so every emitted cut beats
# the driver's contract with room and near-ties count as satisfied.
ORACLE_EPS = 1e-7

# No presolve, so each re-solve starts from the last basis.  HiGHS keeps every
# row within 1e-10 of its bound, far below CUT_CONTRACT_EPS, so a recorded cut
# is never violated again at a later query.  The first solve runs primal
# simplex, the warm re-solves after a cut dual simplex: dual throughout or
# primal throughout made both benchmark workloads 8-47% slower in solve_s.
_STRATEGY = _highs.simplex_constants.SimplexStrategy
_OPTIONS = _highs_options()
_OPTIONS.presolve = "off"
_OPTIONS.primal_feasibility_tolerance = 1e-10
_OPTIONS.simplex_strategy = int(_STRATEGY.kSimplexStrategyPrimal)


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
    iterations: int = 0  # cuts added to the LP
    cuts: list[Cut] = field(default_factory=list)


def default_max_iters(dim: int) -> int:
    """Iteration cap used when the caller does not pin one (an ellipsoid bound)."""
    return math.ceil(2.0 * dim * (dim + 1) * math.log(dim * 1e4))


def _check(status, what: str) -> None:
    if status == _highs.HighsStatus.kError:
        raise LPSolveError(f"HiGHS failed to {what}")


@dataclass(frozen=True)
class CoverageModel:
    """One driver run's HiGHS model of ``instance``'s coverage LP."""

    instance: NUkCInstance
    lp: _highs._Highs


def coverage_model(inst: NUkCInstance, y: Sequence[int] | None = None) -> CoverageModel:
    """The driver's start: maximise total coverage over columns c | x1 | x2.

    All in [0, 1], x1 = 0 off ``y`` when given.  Rows: c_v <= sum of x1 over
    B(v, r1) + sum of x2 over B(v, r2), sum x1 <= k1, sum x2 <= k2, as in
    ``presolve.coverage_lp``.  Each integral solution meets them all.
    """
    n = inst.n
    index, value, count = (np.concatenate(part) for part in zip(
        (np.arange(n), np.ones(n), np.ones(n, dtype=np.int64)),
        opening_columns(inst, inst.r1, 0, n),
        opening_columns(inst, inst.r2, 0, n + 1),
    ))
    upper = np.ones(3 * n)
    if y is not None:
        upper[n : 2 * n] = np.isin(np.arange(n), y)
    lp = _highs._Highs()
    _check(lp.passOptions(_OPTIONS), "take the driver options")
    _check(lp.passModel(
        3 * n, n + 2, int(count.sum()), _COLWISE, _MINIMIZE, 0.0,
        np.concatenate([-np.ones(n), np.zeros(2 * n)]), np.zeros(3 * n), upper,
        np.full(n + 2, -_highs.kHighsInf), np.concatenate([np.zeros(n), [inst.k1, inst.k2]]),
        np.concatenate([[0], np.cumsum(count)]).astype(np.int32), index.astype(np.int32),
        value, np.zeros(3 * n, dtype=np.int32),  # every column continuous
    ), "load the coverage LP")
    return CoverageModel(inst, lp)


def _split(model: CoverageModel) -> None:
    """Add columns cov1 | cov2 with rows cov1_v <= sum of x1 over B(v, r1),
    cov2_v <= sum of x2 over B(v, r2) (``opening_columns`` read as rows) and
    c_v = cov1_v + cov2_v."""
    inst, n = model.instance, model.instance.n
    v = np.arange(n)
    index, value, count = (np.concatenate(part) for part in zip(
        opening_columns(inst, inst.r1, n, 3 * n + v),
        opening_columns(inst, inst.r2, 2 * n, 4 * n + v),
        (np.column_stack([v, 3 * n + v, 4 * n + v]).ravel(), np.tile([1.0, -1.0, -1.0], n),
         np.full(n, 3)),
    ))
    _check(model.lp.addVars(2 * n, np.zeros(2 * n), np.ones(2 * n)), "add the split columns")
    _check(model.lp.addRows(
        3 * n, np.concatenate([np.full(2 * n, -_highs.kHighsInf), np.zeros(n)]), np.zeros(3 * n),
        int(count.sum()), np.concatenate([[0], np.cumsum(count)[:-1]]).astype(np.int32),
        index.astype(np.int32), value,
    ), "add the split rows")


def run_round_or_cut(
    model: CoverageModel,
    oracle: Callable[[np.ndarray], Rounded | Separating],
    max_iters: int | None = None,
) -> RoundOrCutResult:
    """Query the oracle at LP optima until it rounds, the LP empties or the cap runs out.

    The oracle sees cov1 = min(c, sum of x1 over B(v, r1)) | cov2 = c - cov1
    at most ``max_iters`` times, until the first cut with a1 != a2 adds
    cov1 | cov2 columns (``_split``) for later queries and cuts.  A returned
    cut must be violated at the query by more than CUT_CONTRACT_EPS, or
    OracleContractError is raised.  A violated -t * (total coverage) <= b,
    t > 0, empties the LP, whose optimum maximises the total: the run stops
    without a re-solve.  Status ``infeasible`` (the LP plus the cuts is
    empty) and ``exhausted`` (the cap ran out) are not proofs in
    floating-point arithmetic.
    """
    lp, inst, n = model.lp, model.instance, model.instance.n
    if max_iters is None:
        max_iters = default_max_iters(2 * n)
    cuts: list[Cut] = []
    split = empty = False
    for _ in range(max_iters):
        if empty:
            return RoundOrCutResult("infeasible", iterations=len(cuts), cuts=cuts)
        _check(lp.run(), f"solve after {len(cuts)} cuts")
        status = lp.getModelStatus()
        if status == _highs.HighsModelStatus.kInfeasible:
            return RoundOrCutResult("infeasible", iterations=len(cuts), cuts=cuts)
        if status != _highs.HighsModelStatus.kOptimal:
            raise LPSolveError(f"HiGHS ended with {lp.modelStatusToString(status)!r}")
        x = np.array(lp.getSolution().col_value)
        if not split:  # a point of the full coverage polytope, with the same total
            s = np.flatnonzero(x[n : 2 * n])
            cov1 = np.minimum(x[:n], (inst.metric.dist[s] <= inst.r1).T @ x[n + s])
            x = np.concatenate([x, cov1, x[:n] - cov1])
        x = x[3 * n :]
        verdict = oracle(x.copy())
        if isinstance(verdict, Rounded):
            return RoundOrCutResult("rounded", verdict.payload, len(cuts), cuts)
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
        if not cuts:
            _check(lp.setOptionValue("simplex_strategy", int(_STRATEGY.kSimplexStrategyDual)),
                   "switch to dual simplex")
        cuts.append(cut)
        empty = a[0] < 0 and bool(np.all(a == a[0]))
        if not split and not np.array_equal(cut.a1, cut.a2):
            _split(model)
            split = True
        # Before the split a1 = a2, and the cut is the same row on c.
        a, first = (a, 3 * n) if split else (cut.a1, 0)
        nz = np.flatnonzero(a)
        _check(lp.addRow(-_highs.kHighsInf, float(cut.b), nz.size,
                         (first + nz).astype(np.int32), a[nz]), f"add cut {cut.kind!r}")
    return RoundOrCutResult("exhausted", iterations=len(cuts), cuts=cuts)
