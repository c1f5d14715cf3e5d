"""Reduction from fractional coverage to a two-level firefighter instance.

Two nested greedy partitions turn a coverage vector over a metric into a star
forest: leaves are representatives at radius alpha2*r2 weighted by cluster
size, roots are representatives of the leaves at radius alpha1*r1.  A good
firefighter selection on the forest lifts back to centers at dilation
alpha1 + alpha2, and a fractional coverage that satisfies the relaxation
yields a fractional forest solution of the same value or more.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .clustering import hs_partition
from .firefighter import TwoFFInstance, TwoFFSolution
from .model import CoverageVector, NUkCInstance, NUkCSolution


def reduce_to_firefighter(
    instance: NUkCInstance, alpha1: float, alpha2: float, cov: CoverageVector
) -> TwoFFInstance:
    """Build the star forest induced by ``cov`` at dilations (alpha1, alpha2).

    The leaf layer partitions all points at radius alpha2*r2 ordered by total
    coverage; the root layer partitions the leaf representatives at radius
    alpha1*r1 ordered by the large-radius coverage alone.

    When the instance has a Y (well-separated mode), points within r1 of Y
    (``instance.near_y``) get selection priority in the root layer and the
    ordering uses cov1 clipped to zero on negative entries and on points
    farther than r1 from Y.  Exact queries have cov1 = 0 there anyway;
    clipping keeps the priority rule binding under the small slack the
    oracle checks tolerate.
    """
    if cov.n != instance.n:
        raise ValueError(f"coverage over {cov.n} points, instance has {instance.n}")
    if alpha1 <= 0 or alpha2 < 0:
        raise ValueError("alpha1 must be positive and alpha2 nonnegative")
    metric = instance.metric
    total = cov.cov1 + cov.cov2
    layer2 = hs_partition(metric, range(instance.n), alpha2 * instance.r2, total)

    priority = instance.near_y
    cov1 = cov.cov1 if priority is None else np.where(priority, np.maximum(cov.cov1, 0.0), 0.0)
    layer1 = hs_partition(metric, layer2.reps, alpha1 * instance.r1, cov1, priority)

    parent = layer1.parent_of()
    w = {v: len(layer2.child[v]) for v in layer2.reps}
    return TwoFFInstance(
        roots=layer1.reps,
        leaves=layer2.reps,
        parent=parent,
        leafset=layer1.child,
        w=w,
        k1=instance.k1,
        k2=instance.k2,
        alpha1=alpha1,
        alpha2=alpha2,
        child2=layer2.child,
    )


@dataclass(frozen=True)
class FracFFSolution:
    """Fractional firefighter selection derived from a coverage vector."""

    y_root: dict[int, float]
    y_leaf: dict[int, float]
    value: float


def frac_ff_solution(tree: TwoFFInstance, cov: CoverageVector) -> FracFFSolution:
    """The canonical fractional selection: roots take cov1, leaves the rest.

    Requires alpha1, alpha2 >= 2: the partitions then absorb each point's
    possible fractional covers into its representative, which is what makes the
    value at least the total coverage mass.  For a coverage vector satisfying
    the box, mass and budget constraints the result is a feasible fractional
    firefighter solution of value >= m.
    """
    if not (tree.alpha1 >= 2 and tree.alpha2 >= 2):
        raise ValueError("fractional lifting needs both dilation factors >= 2")
    y_root = {u: float(cov.cov1[u]) for u in tree.roots}
    y_leaf = {
        v: float(min(cov.cov2[v], 1.0 - cov.cov1[tree.parent[v]])) for v in tree.leaves
    }
    value = sum(
        tree.w[v] * (y_root[tree.parent[v]] + y_leaf[v]) for v in tree.leaves
    )
    return FracFFSolution(y_root=y_root, y_leaf=y_leaf, value=float(value))


def lift_ff_solution(tree: TwoFFInstance, selection: TwoFFSolution) -> NUkCSolution:
    """Turn a forest selection into centers at dilation alpha1 + alpha2.

    Selected roots become large-radius centers and selected leaves small-radius
    ones.  Every point in the cluster of a saved leaf v is within
    alpha2*r2 of v, and v is within alpha1*r1 of its root, so the dilated balls
    cover at least the saved weight.
    """
    if tree.alpha1 <= 0:
        raise ValueError("tree does not carry reduction dilations")
    if len(selection.t1) > tree.k1 or len(selection.t2) > tree.k2:
        raise ValueError("selection exceeds the tree's budgets")
    return NUkCSolution(
        centers1=selection.t1,
        centers2=selection.t2,
        dilation=tree.alpha1 + tree.alpha2,
    )
