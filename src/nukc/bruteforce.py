"""Exact enumeration oracles for testing the solvers and validating cuts.

Everything here is deliberately independent of the solver code paths: plain
subset enumeration over bitmask coverage, used to confirm feasibility verdicts,
optimal firefighter values, and that emitted cuts hold at every integral
solution that covers the target.  Large centers range over the instance's Y
when it has one (the well-separated ground truth), over every point
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .firefighter import TwoFFInstance, TwoFFSolution, selection_value
from .model import (
    CoverageVector,
    Cut,
    NUkCInstance,
    NUkCSolution,
    SizeGuardError,
)

MAX_COMBOS = 2_000_000


def _center_masks(instance: NUkCInstance, rho: float) -> tuple[list[int], list[int], list[int], list[int]]:
    """Deduplicated candidate centers per class with their coverage bitmasks.

    Duplicate locations produce identical balls; keeping one representative
    per distinct mask shrinks the enumeration without changing coverage, and
    coverage still counts every point of a duplicate bunch.
    """
    d = instance.metric.dist

    def build(cands: Sequence[int], radius: float) -> tuple[list[int], list[int]]:
        kept: list[int] = []
        masks: list[int] = []
        seen: set[int] = set()
        for u in cands:
            mask = 0
            for v in np.flatnonzero(d[u] <= radius):
                mask |= 1 << int(v)
            if mask not in seen:
                seen.add(mask)
                kept.append(int(u))
                masks.append(mask)
        return kept, masks

    cand1 = sorted(instance.y) if instance.y is not None else range(instance.n)
    cand1, masks1 = build(cand1, rho * instance.r1)
    cand2, masks2 = build(range(instance.n), rho * instance.r2)
    return cand1, masks1, cand2, masks2


def _combo_count(n_cands: int, k: int) -> int:
    return sum(comb(n_cands, s) for s in range(min(k, n_cands) + 1))


def _guard(n1: int, k1: int, n2: int, k2: int, max_combos: int, what: str) -> None:
    """Raise SizeGuardError when the two-class enumeration exceeds ``max_combos``."""
    total = _combo_count(n1, k1) * _combo_count(n2, k2)
    if total > max_combos:
        raise SizeGuardError(f"{total} {what} exceed the guard ({max_combos})")


def _subsets(
    cands: list[int], masks: list[int], k: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every subset of at most k candidates with the union of their masks."""
    for size in range(min(k, len(cands)) + 1):
        for chosen in combinations(range(len(cands)), size):
            mask = 0
            for i in chosen:
                mask |= masks[i]
            yield tuple(cands[i] for i in chosen), mask


@dataclass(frozen=True)
class BruteForceResult:
    feasible: bool
    best_covered: int
    witness: NUkCSolution | None
    rho: float


def brute_force_nukc(
    instance: NUkCInstance, rho: float = 1.0, max_combos: int = MAX_COMBOS
) -> BruteForceResult:
    """Exact maximum coverage at dilation ``rho`` by subset enumeration.

    Large centers lie in the instance's Y when it has one.  Guarded: raises
    SizeGuardError when the subset count would exceed ``max_combos``.
    """
    cand1, masks1, cand2, masks2 = _center_masks(instance, rho)
    _guard(len(cand1), instance.k1, len(cand2), instance.k2, max_combos,
           "center combinations")
    best = -1
    witness: NUkCSolution | None = None
    side2 = list(_subsets(cand2, masks2, instance.k2))
    for s1, m1 in _subsets(cand1, masks1, instance.k1):
        for s2, m2 in side2:
            count = (m1 | m2).bit_count()
            if count > best:
                best = count
                witness = NUkCSolution(centers1=s1, centers2=s2, dilation=rho)
    return BruteForceResult(
        feasible=best >= instance.m, best_covered=best, witness=witness, rho=rho
    )


def brute_2ff(tree: TwoFFInstance, max_combos: int = MAX_COMBOS) -> TwoFFSolution:
    """Exact firefighter optimum by enumerating both selections."""
    _guard(len(tree.roots), tree.k1, len(tree.leaves), tree.k2, max_combos, "selections")
    best: TwoFFSolution | None = None
    for size1 in range(min(tree.k1, len(tree.roots)) + 1):
        for t1 in combinations(tree.roots, size1):
            for size2 in range(min(tree.k2, len(tree.leaves)) + 1):
                for t2 in combinations(tree.leaves, size2):
                    value = selection_value(tree, t1, t2)
                    if best is None or value > best.value:
                        best = TwoFFSolution(t1=t1, t2=t2, value=value)
    return best


def hull_coverage_vectors(
    instance: NUkCInstance, max_combos: int = MAX_COMBOS
) -> list[tuple[NUkCSolution, CoverageVector]]:
    """Coverage vectors of every solution that covers at least m at dilation 1.

    These are exactly the integral points whose convex hull the oracles cut
    around: budget-feasible, large centers in the instance's Y when it has
    one, coverage >= m, with small-radius coverage not double counting
    points already covered large.
    """
    cand1, masks1, cand2, masks2 = _center_masks(instance, 1.0)
    _guard(len(cand1), instance.k1, len(cand2), instance.k2, max_combos, "solutions")
    n = instance.n
    out: list[tuple[NUkCSolution, CoverageVector]] = []
    side2 = list(_subsets(cand2, masks2, instance.k2))
    for s1, m1 in _subsets(cand1, masks1, instance.k1):
        for s2, m2 in side2:
            covered = m1 | m2
            if covered.bit_count() < instance.m:
                continue
            cov1 = np.array([(m1 >> v) & 1 for v in range(n)], dtype=float)
            cov2 = np.array(
                [((m2 >> v) & 1) & ~((m1 >> v) & 1) & 1 for v in range(n)], dtype=float
            )
            out.append(
                (
                    NUkCSolution(centers1=s1, centers2=s2, dilation=1.0),
                    CoverageVector(cov1, cov2),
                )
            )
    return out


def validate_cut_on_hull(
    instance: NUkCInstance, cut: Cut, tol: float = 1e-9, max_combos: int = MAX_COMBOS
) -> bool:
    """Whether the cut holds at every m-covering integral solution.

    Vacuously true on infeasible instances (the hull is empty, so any cut is
    allowed there).  One cut's ``HullChecker``.
    """
    return HullChecker(instance, max_combos).validate(cut, tol)


class HullChecker:
    """Precomputed hull matrix for validating many cuts against one instance."""

    def __init__(self, instance: NUkCInstance, max_combos: int = MAX_COMBOS):
        vertices = hull_coverage_vectors(instance, max_combos)
        self.matrix = np.reshape([cov.to_vector() for _, cov in vertices], (len(vertices), 2 * instance.n))

    def validate(self, cut: Cut, tol: float = 1e-9) -> bool:
        """Whether the cut holds at every hull vertex; vacuously true without any."""
        return bool((self.matrix @ cut.as_vector() <= cut.b + tol).all())
