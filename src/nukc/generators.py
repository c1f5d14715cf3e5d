"""Seeded instance generators: planted ground truth, uniform noise, graphs.

Planted instances keep the planted structure far apart (cluster sites 25*r1
from each other, outliers at least 21*r1 from everything) so the intended
solution is unambiguous and well separated; they are the workhorse for
verification because feasibility is known by construction.

Stream contract: the same seed gives the same instance, bit for bit, and the
draws come in a fixed order.  Planted and k-center: the site permutation,
the class draws (planted only, one per cluster after the first), each
cluster's angle block then its radius block, and the point permutation.
Graphs: per spanning-tree edge an integer then a weight, then per extra edge
an endpoint pair then, unless it is a loop, a weight.  The array code here
makes exactly the draws of the per-point loops that ``tests/test_generators.py``
keeps as its reference: ``uniform(a, b)``
is ``a + (b - a) * random()``, and a bounded integer below 2**32 takes half
of a 64-bit word, the generator keeping the other half for the next such
draw, so k calls of size 1 make the draws of one call of size k.  The graph
loop stays scalar: its doubles, a whole word each, interleave with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isqrt

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from .model import MetricSpace, NUkCInstance

SITE_GAP_FACTOR = 25.0
CLUSTER_FILL = 0.95


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth of a planted instance, after index shuffling."""

    centers1: tuple[int, ...]
    centers2: tuple[int, ...]
    outliers: tuple[int, ...]
    cluster_of: tuple[int, ...]  # -1 marks outliers


def _grid_sites(count: int, gap: float, rng: np.random.Generator) -> np.ndarray:
    """`count` sites on a square grid with spacing `gap`, in shuffled order."""
    side = isqrt(count - 1) + 1 if count else 1
    order = rng.permutation(count)
    return np.array(np.divmod(order, side)).T * gap  # row, column


def _plant(
    sites: np.ndarray, radii: np.ndarray, per: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Cluster c: ``per`` points, the first on site c, the rest uniform in the disk of ``radii[c]``.

    Each remaining site is one outlier.  The points are shuffled; returns
    them, each cluster's site point and each outlier as shuffled indices,
    and each point's cluster (-1 marks outliers).
    """
    clusters = len(radii)
    draws = rng.random((clusters, 2, per - 1))  # per cluster: its angle block, then its radius block
    angles = 2.0 * np.pi * draws[:, 0]
    dists = radii[:, None] * np.sqrt(draws[:, 1])
    points = np.concatenate([np.repeat(sites[:clusters], per, axis=0), sites[clusters:]])
    offsets = points[: clusters * per].reshape(clusters, per, 2)[:, 1:]  # a view
    offsets[..., 0] += dists * np.cos(angles)
    offsets[..., 1] += dists * np.sin(angles)
    cluster_of = np.append(np.repeat(np.arange(clusters), per), np.full(len(sites) - clusters, -1))
    perm = rng.permutation(len(points))
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    heads = inverse[: clusters * per : per]
    strays = tuple(inverse[clusters * per :].tolist())
    return points[perm], heads, strays, tuple(cluster_of[perm].tolist())


def planted_instance(
    seed: int,
    clusters: int = 3,
    points_per_cluster: int = 5,
    outliers: int = 2,
    r1: float = 1.0,
    r2: float = 0.4,
) -> tuple[NUkCInstance, PlantedTruth]:
    """Feasible two-radius instance with well separated planted clusters.

    Each cluster is randomly assigned to one radius class (the first is always
    class 1 so both budgets matter) and its points stay within 0.95 of that
    class radius from the site.  Budgets match the planted classes exactly and
    m = n - outliers, so the planted centers witness feasibility while the
    outliers must be discarded.
    """
    rng = np.random.default_rng(seed)
    sites = _grid_sites(clusters + outliers, SITE_GAP_FACTOR * r1, rng)
    classes = np.append(1, rng.integers(1, 3, size=max(clusters - 1, 0)))
    large = classes[:clusters] == 1
    points, heads, strays, cluster_of = _plant(
        sites, CLUSTER_FILL * np.where(large, r1, r2), points_per_cluster, rng
    )
    truth = PlantedTruth(tuple(heads[large].tolist()), tuple(heads[~large].tolist()), strays, cluster_of)
    instance = NUkCInstance(
        metric=MetricSpace.from_points(points),
        r1=r1,
        r2=r2,
        k1=int(np.count_nonzero(classes == 1)),
        k2=int(np.count_nonzero(classes == 2)),
        m=len(points) - outliers,
    )
    return instance, truth


def planted_kcenter_instance(
    seed: int,
    clusters: int = 3,
    points_per_cluster: int = 8,
    outliers: int = 2,
    r1: float = 1.0,
) -> tuple[NUkCInstance, PlantedTruth]:
    """Planted robust k-center posed with a zero second radius.

    All clusters use the large radius; the zero-radius budget equals the
    outlier count, so the intended solution covers each stray point with a
    ball of radius zero and m = n.
    """
    rng = np.random.default_rng(seed)
    sites = _grid_sites(clusters + outliers, SITE_GAP_FACTOR * r1, rng)
    points, heads, strays, cluster_of = _plant(
        sites, np.full(clusters, CLUSTER_FILL * r1), points_per_cluster, rng
    )
    truth = PlantedTruth(tuple(heads.tolist()), strays, strays, cluster_of)
    instance = NUkCInstance(
        metric=MetricSpace.from_points(points),
        r1=r1,
        r2=0.0,
        k1=clusters,
        k2=outliers,
        m=len(points),
    )
    return instance, truth


def uniform_instance(
    seed: int,
    n: int,
    r1: float,
    r2: float,
    k1: int,
    k2: int,
    m: int | None = None,
) -> NUkCInstance:
    """Points drawn uniformly from the unit square; m defaults to ceil(0.8 n)."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    return NUkCInstance(
        metric=MetricSpace.from_points(points),
        r1=r1,
        r2=r2,
        k1=k1,
        k2=k2,
        m=ceil(0.8 * n) if m is None else m,
    )


def graph_instance(
    seed: int,
    n: int,
    k1: int,
    k2: int,
    m: int | None = None,
    extra_edges: int | None = None,
    r1: float | None = None,
    r2: float | None = None,
) -> NUkCInstance:
    """Shortest-path metric of a random connected weighted graph.

    A random spanning tree keeps the graph connected; extra edges (default n/2)
    add shortcuts.  Radii default to distance quantiles so balls are neither
    empty nor everything.  Shortest-path distances of a connected graph are a
    metric by construction, and (d + d.T) / 2 is exactly symmetric (IEEE addition
    commutes), so the metric skips the O(n^3) triangle check and the symmetry pass.
    """
    rng = np.random.default_rng(seed)
    edges: dict[tuple[int, int], float] = {}  # (u, v), u < v: its weight
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[u, v] = 0.5 + rng.random()  # uniform(0.5, 1.5)
    for _ in range(n // 2 if extra_edges is None else extra_edges):
        u, v = sorted((int(rng.integers(0, n)), int(rng.integers(0, n))))  # cheaper than one call of size 2
        if u == v:
            continue
        w = 0.5 + rng.random()
        edges[u, v] = min(edges.get((u, v), w), w)
    ends = np.array(list(edges), dtype=int).reshape(-1, 2).T
    w = np.fromiter(edges.values(), float, len(edges))
    # method "auto" picks Floyd-Warshall or Dijkstra by the edge count, as it would for the dense matrix.
    dist = shortest_path(csr_array((np.append(w, w), (np.append(*ends), np.append(*ends[::-1]))), shape=(n, n)))
    dist = (dist + dist.T) / 2.0
    q1, q2 = np.quantile(dist[~np.eye(n, dtype=bool)], [0.35, 0.15]).tolist() if n > 1 else (1.0, 0.0)
    r1 = q1 if r1 is None else r1
    r2 = q2 if r2 is None else r2
    if r2 >= r1:
        r2 = r1 / 2.0
    return NUkCInstance(
        metric=MetricSpace._trusted(dist),
        r1=r1,
        r2=r2,
        k1=k1,
        k2=k2,
        m=ceil(0.8 * n) if m is None else m,
    )
