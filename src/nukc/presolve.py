"""The greedy screen: the one optional check ahead of the cutting-plane driver.

Marginal-gain greedy max coverage on the driver's sparse ball rows.  A cover
that reaches the target is a dilation-1 solution; the greedy never answers
INFEASIBLE, which comes only from the driver (``cutting_plane``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cutting_plane import BallRows, ball_rows
from .model import NUkCInstance, NUkCSolution


def greedy_cover(
    instance: NUkCInstance, restrict_y: Sequence[int] | None = None, reach: BallRows | None = None
) -> NUkCSolution | None:
    """Try to cover m points at dilation 1 greedily; None when it falls short.

    Each step opens the ball that covers the most uncovered points, large
    centers only on ``restrict_y`` when given.  ``reach`` is
    ``ball_rows(instance)``, built here when the caller has not.  Ties go to
    the small radius: B(u, r2) is a subset of B(u, r1), so a large center is
    the stronger resource and is spent only on a ball that covers strictly
    more.  The covered count is exact (the rows read ``MetricSpace.covers``,
    as ``verify_solution`` does), so a returned cover reaches m; ``decide``
    verifies it again like every solution.
    """
    if instance.m <= 0:
        return NUkCSolution.empty()
    if instance.m > instance.n:
        return None
    n = instance.n
    (start1, points1), (start2, points2) = reach or ball_rows(instance)
    # Row i is B(i, r2) and row n + i is B(i, r1).  argmax takes the first
    # maximum, so ties go to class 2 and then to the lowest center.
    start = np.concatenate([start2[:-1], start1 + start2[-1]])
    points = np.concatenate([points2, points1])
    budget = [instance.k2, instance.k1]
    closed = np.repeat([budget[0] == 0, budget[1] == 0], n)  # no budget, or a large ball off Y
    if restrict_y is not None:
        closed[n:] |= ~np.isin(np.arange(n), restrict_y)
    chosen: list[int] = []
    uncovered = np.ones(n, dtype=bool)
    covered = 0
    while covered < instance.m:
        gains = np.add.reduceat(uncovered[points], start[:-1], dtype=np.intp)  # no row is empty
        gains[closed] = -1
        i = int(gains.argmax())
        if gains[i] <= 0:
            break
        chosen.append(i)
        uncovered[points[start[i] : start[i + 1]]] = False
        covered += int(gains[i])
        cls = int(i >= n)
        budget[cls] -= 1
        if budget[cls] == 0:
            closed[cls * n : cls * n + n] = True
    if covered < instance.m:
        return None
    return NUkCSolution(centers1=tuple(i - n for i in chosen if i >= n),
                        centers2=tuple(i for i in chosen if i < n), dilation=1.0)
