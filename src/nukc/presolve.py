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


def _candidate_masks(
    instance: NUkCInstance, restrict_y: Sequence[int] | None
) -> tuple[list[int], list[np.ndarray], list[int], list[np.ndarray]]:
    d = instance.metric.dist
    cand1 = sorted(int(v) for v in restrict_y) if restrict_y is not None else list(range(instance.n))
    cand2 = list(range(instance.n))
    masks1 = [d[u] <= instance.r1 for u in cand1]
    masks2 = [d[u] <= instance.r2 for u in cand2]
    return cand1, masks1, cand2, masks2


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
    cand1, masks1, cand2, masks2 = _candidate_masks(instance, restrict_y)
    chosen: list[tuple[int, int]] = []  # (class, candidate position)
    covered = np.zeros(instance.n, dtype=bool)
    budget = {1: instance.k1, 2: instance.k2}
    pools = {1: (cand1, masks1), 2: (cand2, masks2)}
    while (budget[1] > 0 or budget[2] > 0) and covered.sum() < instance.m:
        best = None  # (gain, class, position)
        for cls in (1, 2):
            if budget[cls] == 0:
                continue
            cands, masks = pools[cls]
            for i, mask in enumerate(masks):
                gain = int(np.count_nonzero(mask & ~covered))
                if best is None or gain > best[0]:
                    best = (gain, cls, i)
        if best is None or best[0] == 0:
            break
        _, cls, i = best
        chosen.append((cls, i))
        covered |= pools[cls][1][i]
        budget[cls] -= 1

    def coverage_of(selection: list[tuple[int, int]]) -> np.ndarray:
        out = np.zeros(instance.n, dtype=bool)
        for cls, i in selection:
            out |= pools[cls][1][i]
        return out

    # Swap polish: replace one pick at a time while coverage strictly improves.
    for _ in range(8):
        count = int(covered.sum())
        if count >= instance.m:
            break
        improved = False
        for pos in range(len(chosen)):
            cls, _ = chosen[pos]
            rest = chosen[:pos] + chosen[pos + 1 :]
            base = coverage_of(rest)
            base_count = int(base.sum())
            cands, masks = pools[cls]
            for i, mask in enumerate(masks):
                gain = base_count + int(np.count_nonzero(mask & ~base))
                if gain > count:
                    chosen[pos] = (cls, i)
                    covered = base | mask
                    count = gain
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    if int(covered.sum()) < instance.m:
        return None
    sol = NUkCSolution(
        centers1=tuple(pools[1][0][i] for cls, i in chosen if cls == 1),
        centers2=tuple(pools[2][0][i] for cls, i in chosen if cls == 2),
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
