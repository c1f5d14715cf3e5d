"""The greedy screen: the one optional check ahead of the cutting-plane driver.

A greedy (plus swap polish) cover that, when it reaches the target, is a
verified dilation-1 solution.  It never answers INFEASIBLE; that verdict
comes only from the driver (``cutting_plane``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import NUkCInstance, NUkCSolution, verify_solution


def greedy_cover(
    instance: NUkCInstance, restrict_y: Sequence[int] | None = None
) -> NUkCSolution | None:
    """Try to cover m points at dilation 1 greedily; None when it falls short.

    Standard marginal-gain greedy over both center classes followed by
    single-center swap polishing.  Any returned solution is verified, so this
    is only ever a sound shortcut.
    """
    if instance.m <= 0:
        return NUkCSolution.empty()
    if instance.m > instance.n:
        return None
    cand1 = sorted(int(v) for v in restrict_y) if restrict_y is not None else list(range(instance.n))
    n1 = len(cand1)
    # One row per candidate ball, the large-radius class first.  argmax takes
    # the first maximum, so ties go to class 1 and then to the lowest
    # position: class 2 wins only on a strictly larger gain.
    centers = cand1 + list(range(instance.n))
    balls = np.vstack([instance.metric.covers(cand1, instance.r1),
                       instance.metric.covers(None, instance.r2)])
    cls = (np.arange(len(centers)) >= n1).astype(int)  # 0: large, 1: small
    budget = np.array([instance.k1, instance.k2])
    chosen: list[int] = []  # rows of balls
    covered = np.zeros(instance.n, dtype=bool)
    while budget.any() and covered.sum() < instance.m:
        gains = np.count_nonzero(balls & ~covered, axis=1)
        gains[budget[cls] == 0] = -1
        i = int(np.argmax(gains))
        if gains[i] <= 0:
            break
        chosen.append(i)
        covered |= balls[i]
        budget[cls[i]] -= 1

    # Swap polish: replace one pick at a time while coverage strictly improves.
    for _ in range(8):
        count = int(covered.sum())
        if count >= instance.m:
            break
        for pos in range(len(chosen)):
            base = balls[chosen[:pos] + chosen[pos + 1 :]].any(axis=0)
            lo, hi = (0, n1) if chosen[pos] < n1 else (n1, len(centers))
            gains = int(base.sum()) + np.count_nonzero(balls[lo:hi] & ~base, axis=1)
            better = np.flatnonzero(gains > count)
            if better.size:
                chosen[pos] = lo + int(better[0])
                covered = base | balls[chosen[pos]]
                break
        else:
            break

    if int(covered.sum()) < instance.m:
        return None
    sol = NUkCSolution(
        centers1=tuple(centers[i] for i in chosen if i < n1),
        centers2=tuple(centers[i] for i in chosen if i >= n1),
        dilation=1.0,
    )
    ok, _ = verify_solution(instance, sol, 1.0)
    return sol if ok else None
