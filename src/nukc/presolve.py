"""The greedy screen: the one optional check ahead of the cutting-plane driver.

Marginal-gain greedy max coverage on ``NUkCInstance.balls``, the driver's rows.  A cover
that reaches the target is a dilation-1 solution; the greedy never answers
INFEASIBLE, which comes only from the driver (``cutting_plane``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import NUkCInstance, NUkCSolution

# One row's recount costs about as much as recounting this many entries at once.
_RECOUNT_ENTRIES = 1024


def greedy_cover(instance: NUkCInstance, restrict_y: Sequence[int] | None = None) -> NUkCSolution | None:
    """Try to cover m points at dilation 1 greedily; None when it falls short.

    Each step opens the ball of ``instance.balls`` that covers the most
    uncovered points, large centers only on ``restrict_y`` when given.  Ties
    go to the small radius: B(u, r2) is a subset of B(u, r1), so a large
    center is the stronger resource and is spent only on a ball that covers
    strictly more.  The covered count is exact (the rows read
    ``MetricSpace.covers``, as ``verify_solution`` does), so a returned
    cover reaches m; ``decide`` verifies it again like every solution.
    """
    n = instance.n
    (start1, points1), (start2, points2) = instance.balls
    # Row i is B(i, r2) and row n + i is B(i, r1): ties go to class 2 and then
    # to the lowest center, the first row of the largest gain.
    start = np.concatenate([start2[:-1], start1 + start2[-1]])
    points = np.concatenate([points2, points1])
    budget = [instance.k2, instance.k1]
    # Minoux's lazy greedy: gains only fall, so a row's last count bounds its
    # gain.  The first row of the largest bound is recounted and picked if it
    # keeps it, until a pick's recounts would cost more than recounting all.
    closed = np.repeat([budget[0] == 0, budget[1] == 0], n)  # no budget, or a large ball off Y
    if restrict_y is not None:
        closed[n:] |= ~np.isin(np.arange(n), restrict_y)
    bound = np.diff(start)  # the gains while nothing is covered; -1 where closed
    bound[closed] = -1
    exact, spent = True, 0
    chosen: list[int] = []
    uncovered = np.ones(n, dtype=bool)
    covered = 0
    while covered < min(instance.m, n):  # m > n: None once every point is covered
        if not exact and spent + _RECOUNT_ENTRIES > points.size:
            bound = np.add.reduceat(uncovered[points], start[:-1], dtype=np.intp)  # no row is empty
            bound[closed], exact = -1, True
        i = int(bound.argmax())
        top = int(bound[i])
        if top <= 0:
            break
        if not exact:
            bound[i] = np.count_nonzero(uncovered[points[start[i] : start[i + 1]]])
            spent += _RECOUNT_ENTRIES + start[i + 1] - start[i]
            if bound[i] < top:
                continue
        chosen.append(i)
        uncovered[points[start[i] : start[i + 1]]] = False
        covered += top
        exact, spent = False, 0
        cls = int(i >= n)
        budget[cls] -= 1
        if budget[cls] == 0:
            closed[cls * n : cls * n + n] = True
            bound[closed] = -1
    if covered < instance.m:
        return None
    return NUkCSolution(centers1=tuple(i - n for i in chosen if i >= n),
                        centers2=tuple(i for i in chosen if i < n), dilation=1.0)
