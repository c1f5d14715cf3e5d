"""Cutting-plane driver for round-or-cut searches (Kelley's method).

The driver starts from the instance's coverage LP and hands each optimum's
coverage cov1 | cov2 to a separation oracle.  The oracle rounds it into a
finished payload or returns one violated ``Cut``, which is recorded and added
as a row; dual simplex re-solves from the last basis.  Oracle cuts come from
finite families and each is new, so runs are short.
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


def coverage_model(inst: NUkCInstance, y: Sequence[int] | None = None) -> _highs._Highs:
    """The driver's start: maximise total coverage over columns cov1 | cov2 | x1 | x2.

    All in [0, 1], x1 = 0 off ``y`` when given.  Rows: cov1_v + cov2_v <= 1,
    cov1_v <= sum of x1 over B(v, r1), cov2_v <= sum of x2 over B(v, r2),
    sum x1 <= k1, sum x2 <= k2.  Each integral solution meets them all.
    """
    n = inst.n
    cols = np.arange(2 * n)  # cov column j: +1 on box row j mod n and opening row n + j
    index, value, count = (np.concatenate(part) for part in zip(
        (np.column_stack([cols % n, n + cols]).ravel(), np.ones(4 * n), np.full(2 * n, 2)),
        opening_columns(inst, inst.r1, n, 3 * n),
        opening_columns(inst, inst.r2, 2 * n, 3 * n + 1),
    ))
    upper = np.ones(4 * n)
    if y is not None:
        upper[2 * n : 3 * n] = np.isin(np.arange(n), y)
    lp = _highs._Highs()
    _check(lp.passOptions(_OPTIONS), "take the driver options")
    _check(lp.passModel(
        4 * n, 3 * n + 2, int(count.sum()), _COLWISE, _MINIMIZE, 0.0,
        np.concatenate([-np.ones(2 * n), np.zeros(2 * n)]), np.zeros(4 * n), upper,
        np.full(3 * n + 2, -_highs.kHighsInf),
        np.concatenate([np.ones(n), np.zeros(2 * n), [float(inst.k1), float(inst.k2)]]),
        np.concatenate([[0], np.cumsum(count)]).astype(np.int32), index.astype(np.int32),
        value, np.zeros(4 * n, dtype=np.int32),  # every column continuous
    ), "load the coverage LP")
    return lp


def run_round_or_cut(
    lp: _highs._Highs,
    oracle: Callable[[np.ndarray], Rounded | Separating],
    max_iters: int | None = None,
) -> RoundOrCutResult:
    """Query the oracle at LP optima until it rounds, the LP empties or the cap runs out.

    ``lp`` comes from ``coverage_model``; the oracle sees its first half of
    columns, cov1 | cov2, at most ``max_iters`` times.  A returned cut must be
    violated at the query by more than CUT_CONTRACT_EPS, or
    OracleContractError is raised.  Status ``infeasible`` (HiGHS found the LP
    plus the cuts empty) and ``exhausted`` (the cap ran out) are not proofs
    in floating-point arithmetic.
    """
    dim = lp.getNumCol() // 2
    if max_iters is None:
        max_iters = default_max_iters(dim)
    cuts: list[Cut] = []
    for _ in range(max_iters):
        _check(lp.run(), f"solve after {len(cuts)} cuts")
        status = lp.getModelStatus()
        if status == _highs.HighsModelStatus.kInfeasible:
            return RoundOrCutResult("infeasible", iterations=len(cuts), cuts=cuts)
        if status != _highs.HighsModelStatus.kOptimal:
            raise LPSolveError(f"HiGHS ended with {lp.modelStatusToString(status)!r}")
        x = np.array(lp.getSolution().col_value[:dim])
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
        nz = np.flatnonzero(a)
        _check(lp.addRow(-_highs.kHighsInf, float(cut.b), nz.size,
                         nz.astype(np.int32), a[nz]), f"add cut {cut.kind!r}")
    return RoundOrCutResult("exhausted", iterations=len(cuts), cuts=cuts)
