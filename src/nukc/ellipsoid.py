"""Central-cut ellipsoid geometry: the start ball and the minimum-volume update.

Round-or-cut runs are driven by ``nukc.cutting_plane``; no solver calls this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The oracle verdicts live with the driver and are re-exported as the same classes.
from .cutting_plane import Rounded, Separating  # noqa: F401


class EllipsoidNumericsError(RuntimeError):
    """The shape matrix lost positive definiteness beyond repair."""


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
