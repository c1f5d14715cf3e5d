"""Cutting-plane driver for round-or-cut searches (Kelley's method).

The driver never sees the combinatorial problem.  It keeps one LP over the
coverage box, cov1 | cov2 in [0, 1]^n with cov1_v + cov2_v <= 1, maximising
total coverage, and hands each optimum to a separation oracle.  The oracle
rounds it into a finished payload or returns one violated ``Cut``, which is
recorded and added as a row; dual simplex re-solves from the last basis.
Oracle cuts come from finite families and each is new, so runs are short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .model import Cut
from .presolve import _COLWISE, _MINIMIZE, _highs, _highs_options

# A cut returned by an oracle must be violated at the queried point by more
# than this; anything closer counts as satisfied and is an oracle bug.
CUT_CONTRACT_EPS = 1e-9

# Oracle checks fire only on violations above this, so every emitted cut beats
# the driver's contract with room and near-ties count as satisfied.
ORACLE_EPS = 1e-7

# No presolve, so each re-solve starts from the last basis.  HiGHS keeps every
# row within 1e-10 of its bound, far below CUT_CONTRACT_EPS, so a recorded cut
# is never violated again at a later query.
_OPTIONS = _highs_options()
_OPTIONS.presolve = "off"
_OPTIONS.primal_feasibility_tolerance = 1e-10


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


def run_round_or_cut(
    dim: int,
    oracle: Callable[[np.ndarray], Rounded | Separating],
    max_iters: int | None = None,
) -> RoundOrCutResult:
    """Query the oracle at LP optima until it rounds, the LP empties or the cap runs out.

    ``dim`` is 2n, and at most ``max_iters`` queries are made.  A returned cut
    must be violated at the query by more than CUT_CONTRACT_EPS, or
    OracleContractError is raised.  Status ``infeasible`` (HiGHS found the
    box plus the cuts empty) and ``exhausted`` (the cap ran out) are not
    proofs in floating-point arithmetic.
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"dimension must be a positive even number, got {dim}")
    if max_iters is None:
        max_iters = default_max_iters(dim)
    n = dim // 2
    highs = _highs._Highs()
    _check(highs.passOptions(_OPTIONS), "take the driver options")
    # Column j holds one entry, +1 on the row of its point j mod n.
    _check(highs.passModel(
        dim, n, dim, _COLWISE, _MINIMIZE, 0.0,
        -np.ones(dim), np.zeros(dim), np.ones(dim),
        np.full(n, -_highs.kHighsInf), np.ones(n),
        np.arange(dim + 1, dtype=np.int32), np.tile(np.arange(n, dtype=np.int32), 2),
        np.ones(dim), np.zeros(dim, dtype=np.int32),  # every column continuous
    ), "load the coverage box")
    cuts: list[Cut] = []
    for _ in range(max_iters):
        _check(highs.run(), f"solve after {len(cuts)} cuts")
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kInfeasible:
            return RoundOrCutResult("infeasible", iterations=len(cuts), cuts=cuts)
        if status != _highs.HighsModelStatus.kOptimal:
            raise LPSolveError(f"HiGHS ended with {highs.modelStatusToString(status)!r}")
        x = np.array(highs.getSolution().col_value)
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
        cuts.append(cut)
        nz = np.flatnonzero(a)
        _check(highs.addRow(-_highs.kHighsInf, float(cut.b), nz.size,
                            nz.astype(np.int32), a[nz]), f"add cut {cut.kind!r}")
    return RoundOrCutResult("exhausted", iterations=len(cuts), cuts=cuts)
