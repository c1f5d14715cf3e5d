"""The greedy screen, and the coverage LP the cutting-plane driver starts from.

A greedy (plus swap polish) cover that, when it reaches the target, is a
verified dilation-1 solution: the one optional screen ahead of the driver.
``opening_columns`` builds the center-opening columns of the LP relaxation of
maximum coverage for both ``coverage_lp`` and the driver's model, whose
optimum below m proves infeasibility.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize._highspy import _core as _highs

from .model import NUkCInstance, NUkCSolution, verify_solution


def _highs_options() -> _highs.HighsOptions:
    """The options ``linprog(method="highs")`` sets: quiet dual simplex after presolve."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(_highs.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = False
    options.log_to_console = False
    return options


_HIGHS_OPTIONS = _highs_options()
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)


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


def opening_columns(
    instance: NUkCInstance, radius: float, first_row: int, budget_row: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC (row index, value, count per column) of one class of center openings.

    Column u holds -1 on row ``first_row + v`` for each v its radius ball
    reaches, in ascending v, then +1 on ``budget_row``.
    """
    reach = (instance.metric.dist <= radius).T  # reach[u, v]: u's ball covers v
    per_col = np.count_nonzero(reach, axis=1)
    ends = np.cumsum(per_col)
    return (
        np.insert(np.nonzero(reach)[1] + first_row, ends, budget_row),
        np.insert(np.full(ends[-1], -1.0), ends, 1.0),
        per_col + 1,
    )


def coverage_lp(
    instance: NUkCInstance, restrict_y: Sequence[int] | None = None
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """LP-relaxation optimum of maximum coverage, with its center openings.

    Variables are fractional center openings per class plus capped per-point
    coverage.  Returns (optimum, x1, x2); the optimum upper bounds every
    integral coverage, so a value below m certifies infeasibility at
    dilation 1.  On solver failure returns (inf, None, None): no certificate,
    never unsound.

    The LP goes to HiGHS through scipy's bindings with the options
    ``linprog(method="highs")`` would pass, and the answer is the one
    ``linprog`` gives; its input cleaning and dense-to-sparse conversion
    would add over half again the solve's own time at n = 60.
    """
    n = instance.n
    if n == 0:
        return 0.0, np.zeros(0), np.zeros(0)
    # Variable layout x1 (n) | x2 (n) | c (n).  Rows: c_v minus the openings
    # whose ball reaches v is <= 0 (v < n), then sum x1 <= k1 and sum x2 <= k2.
    # Column v of the c block holds +1 on row v.
    index, value, count = (np.concatenate(part) for part in zip(
        opening_columns(instance, instance.r1, 0, n),
        opening_columns(instance, instance.r2, 0, n + 1),
        (np.arange(n), np.ones(n), np.ones(n, dtype=np.int64)),
    ))
    start = np.concatenate([[0], np.cumsum(count)])

    upper = np.ones(3 * n)
    if restrict_y is not None:  # large balls only on restrict_y
        upper[:n] = 0.0
        upper[list(restrict_y)] = 1.0

    highs = _highs._Highs()
    if (
        highs.passOptions(_HIGHS_OPTIONS) == _highs.HighsStatus.kError
        or highs.passModel(
            3 * n, n + 2, int(start[-1]), _COLWISE, _MINIMIZE, 0.0,
            np.concatenate([np.zeros(2 * n), -np.ones(n)]),
            np.zeros(3 * n),
            upper,
            np.full(n + 2, -_highs.kHighsInf),
            np.concatenate([np.zeros(n), [float(instance.k1), float(instance.k2)]]),
            start.astype(np.int32),
            index.astype(np.int32),
            value,
            np.zeros(3 * n, dtype=np.int32),  # every column continuous
        ) == _highs.HighsStatus.kError
        or highs.run() == _highs.HighsStatus.kError
        or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal
    ):
        return float("inf"), None, None
    x = np.array(highs.getSolution().col_value)
    return -float(highs.getInfo().objective_function_value), x[:n], x[n : 2 * n]

