"""Greedy bottleneck partition (Hochbaum-Shmoys style).

Repeatedly picks the unassigned point with the largest coverage value as a
representative and assigns everything within the radius to it.  The output is
the backbone of the coverage-to-firefighter reduction: representatives are
pairwise more than the radius apart, children sit within the radius of their
representative, and a representative's coverage dominates its children's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import MetricSpace, as_indices


@dataclass(frozen=True)
class HSResult:
    """Representatives in selection order and the cluster each one absorbed."""

    reps: tuple[int, ...]
    child: dict[int, tuple[int, ...]]

    def parent_of(self) -> dict[int, int]:
        return {v: u for u, members in self.child.items() for v in members}


def hs_partition(
    metric: MetricSpace,
    points: Sequence[int],
    radius: float,
    cov: np.ndarray,
    priority: np.ndarray | None = None,
) -> HSResult:
    """Partition ``points`` into clusters of radius ``radius`` greedily by ``cov``.

    Selection order is deterministic: coverage descending, then priority=True
    before False, then lowest index.  ``cov`` (and ``priority`` when given) are
    indexed by original point id, so the same arrays work for nested calls on
    representative subsets.

    Every representative u satisfies:
      (a) d(u, v) <= radius for each child v,
      (b) d(u, u') > radius for any other representative u',
      (c) the child sets partition ``points``,
      (d) cov[u] >= cov[v] for each child v.
    """
    pts = as_indices(points, "point")
    if len(set(pts)) != len(pts):
        raise ValueError("points contains repeated indices")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    idx = np.array(pts, dtype=np.intp)
    bad = (idx < 0) | (idx >= metric.n)
    if bad.any():
        raise ValueError(f"point index {idx[bad][0]} out of range for {metric.n} points")
    cov = np.asarray(cov, dtype=float)
    pri = np.ones(idx.size) if priority is None else np.where(np.asarray(priority)[idx], 0, 1)
    live = np.zeros(metric.n, dtype=bool)  # not yet assigned
    live[idx] = True
    reps: list[int] = []
    child: dict[int, tuple[int, ...]] = {}
    for u in idx[np.lexsort((idx, pri, -cov[idx]))].tolist():
        if live[u]:
            members = (live & metric.covers(u, radius)).nonzero()[0]
            live[members] = False
            reps.append(u)
            child[u] = tuple(members.tolist())
    return HSResult(reps=tuple(reps), child=child)
