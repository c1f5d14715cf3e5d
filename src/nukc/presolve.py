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
    single-center swap polishing.  Ties go to the small radius: B(u, r2) is a
    subset of B(u, r1), so a large center is the stronger resource and is
    spent only on a ball that covers strictly more.  Any returned solution
    is verified, so this is only ever a sound shortcut.
    """
    if instance.m <= 0:
        return NUkCSolution.empty()
    if instance.m > instance.n:
        return None
    cand1 = sorted(int(v) for v in restrict_y) if restrict_y is not None else list(range(instance.n))
    n2 = instance.n
    # One row per candidate ball, the small-radius class first.  argmax takes
    # the first maximum, so ties go to class 2 and then to the lowest
    # position: class 1 wins only on a strictly larger gain.
    centers = list(range(n2)) + cand1
    balls = np.vstack([instance.metric.covers(None, instance.r2),
                       instance.metric.covers(cand1, instance.r1)])
    cls = (np.arange(len(centers)) >= n2).astype(int)  # 0: small, 1: large
    budget = np.array([instance.k2, instance.k1])
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
            lo, hi = (0, n2) if chosen[pos] < n2 else (n2, len(centers))
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
        centers1=tuple(centers[i] for i in chosen if i >= n2),
        centers2=tuple(centers[i] for i in chosen if i < n2),
        dilation=1.0,
    )
    ok, _ = verify_solution(instance, sol, 1.0)
    return sol if ok else None
