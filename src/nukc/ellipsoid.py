"""Central-cut ellipsoid engine for round-or-cut searches.

The engine never sees the combinatorial problem: it hands the current center
to a separation oracle, which either rounds it into a finished payload or
returns one violated inequality as a ``Cut``.  The ellipsoid then shrinks
through its center along the cut direction, and the cut is recorded.  A run
that ends without rounding reports infeasibility with the recorded cuts; see
``run_round_or_cut`` for how far that verdict can be trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Union

import numpy as np

from .model import Cut

# A cut returned by an oracle must be violated at the queried point by more
# than this; anything closer counts as satisfied and is an oracle bug.
CUT_CONTRACT_EPS = 1e-9

# Oracle checks fire only on violations above this, so every emitted cut beats
# the engine's contract with room and near-ties count as satisfied.
ORACLE_EPS = 1e-7


class OracleContractError(RuntimeError):
    """An oracle returned a cut that the queried point does not violate."""


class EllipsoidNumericsError(RuntimeError):
    """The shape matrix lost positive definiteness beyond repair."""


@dataclass(frozen=True)
class Rounded:
    """Oracle verdict: the query was rounded into a finished payload."""

    payload: Any


@dataclass(frozen=True)
class Separating:
    """Oracle verdict: ``cut`` is violated at the query; it is recorded as is."""

    cut: Cut


OracleVerdict = Union[Rounded, Separating]


@dataclass
class EllipsoidState:
    """Center and shape matrix of the current ellipsoid {x : (x-c)' A^-1 (x-c) <= 1}."""

    center: np.ndarray
    shape: np.ndarray
    iteration: int = 0


def initial_ellipsoid(dim: int) -> EllipsoidState:
    """Ball around the unit-cube center with radius sqrt(dim)/2, covering [0,1]^dim."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return EllipsoidState(
        center=np.full(dim, 0.5), shape=np.eye(dim) * (dim / 4.0), iteration=0
    )


def default_max_iters(dim: int) -> int:
    """Iteration cap used when the caller does not pin one.

    Scales with the volume argument for a unit-cube start: enough central cuts
    to shrink the start ball by (dim * 1e4)^-dim.
    """
    return math.ceil(2.0 * dim * (dim + 1) * math.log(dim * 1e4))


def ellipsoid_update(state: EllipsoidState, a: np.ndarray) -> EllipsoidState:
    """Shrink to the minimum-volume ellipsoid containing the half {a·x <= a·c}.

    The cut passes through the center (central cut), so the retained half is a
    superset of any halfspace {a·x <= b} with b < a·c.
    """
    a = np.asarray(a, dtype=float)
    c, shape = state.center, state.shape
    d = c.shape[0]
    if a.shape != c.shape:
        raise ValueError(f"cut direction has shape {a.shape}, expected {c.shape}")
    if not np.all(np.isfinite(a)) or not np.any(a):
        raise ValueError("cut direction must be finite and nonzero")
    aa = shape @ a
    norm2 = float(a @ aa)
    if not np.isfinite(norm2) or norm2 <= 0:
        raise EllipsoidNumericsError(
            f"shape matrix lost positive definiteness at iteration {state.iteration}: "
            f"a'Aa = {norm2}"
        )
    bvec = aa / math.sqrt(norm2)
    center = c - bvec / (d + 1)
    if d == 1:
        new_shape = shape / 4.0
    else:
        new_shape = (d * d / (d * d - 1.0)) * (
            shape - (2.0 / (d + 1)) * np.outer(bvec, bvec)
        )
        new_shape = (new_shape + new_shape.T) / 2.0  # keep exact symmetry
    return EllipsoidState(center=center, shape=new_shape, iteration=state.iteration + 1)


@dataclass
class RoundOrCutResult:
    status: str  # "rounded" | "infeasible"
    payload: Any = None
    iterations: int = 0
    cuts: list[Cut] = field(default_factory=list)


def run_round_or_cut(
    dim: int,
    oracle: Callable[[np.ndarray], OracleVerdict],
    max_iters: int | None = None,
) -> RoundOrCutResult:
    """Drive the oracle from the unit-cube ball until it rounds or a stop fires.

    Every returned cut is checked against the oracle contract (violated at the
    query by more than CUT_CONTRACT_EPS); a satisfied "cut" raises
    OracleContractError since continuing would silently corrupt the
    infeasibility certificate.  Three stops end a run as infeasible: a cut
    violated by more than the ellipsoid's half-width along it, an ellipsoid
    inside the stop radius, and the iteration cap.  The first two are proofs
    only in exact arithmetic; the cap proves nothing when the hull is flat.
    """
    state = initial_ellipsoid(dim)
    if max_iters is None:
        max_iters = default_max_iters(dim)
    # A feasible 0/1 coverage vector keeps passing every oracle check under
    # perturbations up to ORACLE_EPS / dim per coordinate, so once the
    # ellipsoid fits inside half that radius and the center still separates,
    # no feasible point is left.
    stop_radius = ORACLE_EPS / (2 * dim)
    cuts: list[Cut] = []
    for _ in range(max_iters):
        if not np.all(np.isfinite(state.center)):
            raise EllipsoidNumericsError(
                f"center became non-finite at iteration {state.iteration}"
            )
        verdict = oracle(state.center.copy())
        if isinstance(verdict, Rounded):
            return RoundOrCutResult(
                status="rounded",
                payload=verdict.payload,
                iterations=state.iteration,
                cuts=cuts,
            )
        if not isinstance(verdict, Separating):
            raise TypeError(f"oracle returned {type(verdict).__name__}")
        cut = verdict.cut
        a = cut.as_vector()
        violation = float(a @ state.center - cut.b)
        if not violation > CUT_CONTRACT_EPS:
            raise OracleContractError(
                f"cut {cut.kind!r} not violated at the query "
                f"(violation {violation:.3g} <= eps {CUT_CONTRACT_EPS:.3g})"
            )
        cuts.append(cut)
        # Half-width of the ellipsoid along the cut direction.  When the
        # violation exceeds it, every point of the ellipsoid breaks the cut,
        # so the feasible region it was guaranteed to contain is empty.  This
        # also catches the degenerate case where repeated near-parallel cuts
        # squeeze that width to zero before the iteration cap.
        half_width = float(a @ state.shape @ a)
        half_width = math.sqrt(half_width) if half_width > 0.0 else 0.0
        if violation > half_width:
            return RoundOrCutResult(
                status="infeasible", iterations=state.iteration, cuts=cuts
            )
        state = ellipsoid_update(state, a)
        # trace bounds the largest squared semi-axis, so once it trips the
        # whole ellipsoid sits inside ball(center, stop_radius) and any point
        # of a surviving feasible region would have rounded at the center.
        if float(np.trace(state.shape)) <= stop_radius**2:
            return RoundOrCutResult(
                status="infeasible", iterations=state.iteration, cuts=cuts
            )
    return RoundOrCutResult(status="infeasible", iterations=state.iteration, cuts=cuts)
