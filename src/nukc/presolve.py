"""Cheap sound screens run before the round-or-cut machinery.

Two one-sided certificates: a greedy (plus swap polish) cover that, when it
reaches the target, is a verified dilation-1 solution; and the LP relaxation
of maximum coverage, whose optimum below m proves infeasibility outright.
Neither replaces the solver or the exact oracle; both only short-circuit the
easy mass of random instances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import linprog

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
    d = instance.metric.dist
    cand1 = sorted(int(v) for v in restrict_y) if restrict_y is not None else list(range(instance.n))
    n1 = len(cand1)
    # One row per candidate ball, the large-radius class first.  argmax takes
    # the first maximum, so ties go to class 1 and then to the lowest
    # position: class 2 wins only on a strictly larger gain.
    centers = cand1 + list(range(instance.n))
    balls = np.vstack([d[cand1] <= instance.r1, d <= instance.r2])
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


def coverage_lp(
    instance: NUkCInstance, restrict_y: Sequence[int] | None = None
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """LP-relaxation optimum of maximum coverage, with its center openings.

    Variables are fractional center openings per class plus capped per-point
    coverage.  Returns (optimum, x1, x2); the optimum upper bounds every
    integral coverage, so a value below m certifies infeasibility at
    dilation 1.  On solver failure returns (inf, None, None): no certificate,
    never unsound.
    """
    n = instance.n
    if n == 0:
        return 0.0, np.zeros(0), np.zeros(0)
    d = instance.metric.dist
    in1 = d <= instance.r1  # in1[v, u]: u's large ball reaches v
    in2 = d <= instance.r2
    # variable layout: x1 (n) | x2 (n) | c (n)
    obj = np.concatenate([np.zeros(2 * n), -np.ones(n)])
    rows = np.zeros((n + 2, 3 * n))
    rows[:n, :n] = -in1.astype(float)
    rows[:n, n : 2 * n] = -in2.astype(float)
    rows[:n, 2 * n :] = np.eye(n)
    rows[n, :n] = 1.0
    rows[n + 1, n : 2 * n] = 1.0
    rhs = np.concatenate([np.zeros(n), [float(instance.k1), float(instance.k2)]])
    ub1 = np.zeros(n)
    if restrict_y is None:
        ub1[:] = 1.0
    else:
        ub1[list(restrict_y)] = 1.0
    bounds = (
        [(0.0, float(b)) for b in ub1]
        + [(0.0, 1.0)] * n
        + [(0.0, 1.0)] * n
    )
    res = linprog(obj, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs")
    if not res.success:
        return float("inf"), None, None
    return float(-res.fun), res.x[:n].copy(), res.x[n : 2 * n].copy()


def lp_probe_vector(
    instance: NUkCInstance, x1: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """Coverage vector induced by fractional center openings, boxed to [0, 1].

    Used as a warm-start query for the separation oracles: when the LP optimum
    is integral (planted instances), this is the coverage vector of an actual
    solution and the oracle rounds it immediately.  Capping keeps the box
    constraints satisfied; any other check may still cut, which is fine.
    """
    d = instance.metric.dist
    in1 = d <= instance.r1
    in2 = d <= instance.r2
    cov1 = np.minimum(in1 @ x1, 1.0)
    cov2 = np.minimum(in2 @ x2, 1.0 - cov1)
    return np.concatenate([cov1, cov2])
