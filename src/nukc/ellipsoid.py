"""Central-cut ellipsoid engine for round-or-cut searches.

The engine never sees the combinatorial problem: it hands the current center
to a separation oracle, which either rounds it into a finished payload or
returns a violated inequality.  The ellipsoid then shrinks through its center
along the cut direction.  If the iteration cap is exhausted the region left is
too small to matter and the search reports infeasibility together with the cut
trace as certificate.
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
    """Oracle verdict: the inequality a·x <= b is violated at the query."""

    a: np.ndarray
    b: float
    cut: Cut | None = None

    @staticmethod
    def from_cut(cut: Cut) -> Separating:
        return Separating(a=cut.as_vector(), b=cut.b, cut=cut)


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


def det_shrink_ratio(dim: int) -> float:
    """det(A') / det(A) after one central cut in the given dimension.

    Equals (d^2/(d^2-1))^d * (d-1)/(d+1); evaluated in the factored form
    d^(2d) * (d-1)^(1-d) * (d+1)^(-1-d) which stays finite at d = 1 (ratio 1/4).
    """
    d = dim
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d == 1:
        return 0.25
    return math.exp(
        2 * d * math.log(d) + (1 - d) * math.log(d - 1) - (1 + d) * math.log(d + 1)
    )


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
class RoundOrCutConfig:
    max_iters: int | None = None
    # Declare infeasibility once every semi-axis is below this.  Callers set
    # it under the radius of the oracle's rounding region, where an enclosed
    # feasible point would have forced the center itself to round; 0 disables.
    stop_radius: float = 0.0


@dataclass
class RoundOrCutResult:
    status: str  # "rounded" | "infeasible"
    payload: Any = None
    iterations: int = 0
    cuts: list[Cut] = field(default_factory=list)


def run_round_or_cut(
    dim: int,
    oracle: Callable[[np.ndarray], OracleVerdict],
    config: RoundOrCutConfig | None = None,
) -> RoundOrCutResult:
    """Drive the oracle from the unit-cube ball until it rounds or the cap hits.

    Every returned cut is checked against the oracle contract (violated at the
    query by more than CUT_CONTRACT_EPS); a satisfied "cut" raises
    OracleContractError since continuing would silently corrupt the
    infeasibility certificate.
    """
    cfg = config or RoundOrCutConfig()
    max_iters = cfg.max_iters if cfg.max_iters is not None else default_max_iters(dim)
    state = initial_ellipsoid(dim)
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
        violation = float(verdict.a @ state.center - verdict.b)
        if not violation > CUT_CONTRACT_EPS:
            raise OracleContractError(
                f"cut {verdict.cut.kind if verdict.cut else ''!r} not violated at the "
                f"query (violation {violation:.3g} <= eps {CUT_CONTRACT_EPS:.3g})"
            )
        cuts.append(
            verdict.cut
            if verdict.cut is not None
            else Cut(
                a1=verdict.a[: dim // 2] if dim % 2 == 0 else verdict.a,
                a2=verdict.a[dim // 2 :] if dim % 2 == 0 else np.zeros_like(verdict.a),
                b=verdict.b,
                kind="raw",
            )
        )
        # Half-width of the ellipsoid along the cut direction.  When the
        # violation exceeds it, every point of the ellipsoid breaks the cut,
        # so the feasible region it was guaranteed to contain is empty.  This
        # also catches the degenerate case where repeated near-parallel cuts
        # squeeze that width to zero before the iteration cap.
        half_width = float(verdict.a @ state.shape @ verdict.a)
        half_width = math.sqrt(half_width) if half_width > 0.0 else 0.0
        if violation > half_width:
            return RoundOrCutResult(
                status="infeasible", iterations=state.iteration, cuts=cuts
            )
        state = ellipsoid_update(state, verdict.a)
        # trace bounds the largest squared semi-axis, so once it trips the
        # whole ellipsoid sits inside ball(center, stop_radius) and any point
        # of a surviving feasible region would have rounded at the center.
        if cfg.stop_radius > 0.0 and float(np.trace(state.shape)) <= cfg.stop_radius**2:
            return RoundOrCutResult(
                status="infeasible", iterations=state.iteration, cuts=cuts
            )
    return RoundOrCutResult(status="infeasible", iterations=state.iteration, cuts=cuts)
