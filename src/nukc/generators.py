"""Seeded instance generators: planted ground truth, uniform noise, graphs.

Planted instances keep the planted structure far apart (cluster sites 25*r1
from each other, outliers at least 21*r1 from everything) so the intended
solution is unambiguous and well separated; they are the workhorse for
verification because feasibility is known by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isqrt

import numpy as np
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
    cells = [(i, j) for i in range(side) for j in range(side)][:count]
    order = rng.permutation(count)
    return np.array([cells[i] for i in order], dtype=float) * gap


def _disk_offsets(count: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    dists = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.stack([dists * np.cos(angles), dists * np.sin(angles)], axis=1)


def _assemble(
    site_points: list[np.ndarray],
    classes: list[int],
    outlier_sites: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, PlantedTruth]:
    """Concatenate cluster and outlier points, shuffle, remap the truth."""
    blocks = site_points + [outlier_sites[i : i + 1] for i in range(len(outlier_sites))]
    points = np.concatenate(blocks) if blocks else np.zeros((0, 2))
    n = len(points)
    cluster_of = np.concatenate(
        [np.full(len(b), c) for b, c in zip(site_points, range(len(site_points)))]
        + [np.full(len(outlier_sites), -1)]
    ) if n else np.zeros(0, dtype=int)
    # First point of each cluster block sits exactly on the site.
    firsts = np.cumsum([0] + [len(b) for b in site_points[:-1]]) if site_points else []
    perm = rng.permutation(n)
    inverse = np.empty(n, dtype=int)
    inverse[perm] = np.arange(n)
    centers1 = tuple(
        int(inverse[f]) for f, c in zip(firsts, classes) if c == 1
    )
    centers2 = tuple(
        int(inverse[f]) for f, c in zip(firsts, classes) if c == 2
    )
    base = sum(len(b) for b in site_points)
    outliers = tuple(int(inverse[base + i]) for i in range(len(outlier_sites)))
    truth = PlantedTruth(
        centers1=centers1,
        centers2=centers2,
        outliers=outliers,
        cluster_of=tuple(int(cluster_of[perm[i]]) for i in range(n)),
    )
    return points[perm], truth


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
    gap = SITE_GAP_FACTOR * r1
    sites = _grid_sites(clusters + outliers, gap, rng)
    classes = [1] + [int(rng.integers(1, 3)) for _ in range(clusters - 1)]
    site_points = []
    for c in range(clusters):
        radius = CLUSTER_FILL * (r1 if classes[c] == 1 else r2)
        offsets = _disk_offsets(points_per_cluster - 1, radius, rng)
        site_points.append(sites[c] + np.vstack([np.zeros(2), offsets]))
    points, truth = _assemble(site_points, classes, sites[clusters:], rng)
    instance = NUkCInstance(
        metric=MetricSpace.from_points(points),
        r1=r1,
        r2=r2,
        k1=classes.count(1),
        k2=classes.count(2),
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
    gap = SITE_GAP_FACTOR * r1
    sites = _grid_sites(clusters + outliers, gap, rng)
    classes = [1] * clusters
    site_points = []
    for c in range(clusters):
        offsets = _disk_offsets(points_per_cluster - 1, CLUSTER_FILL * r1, rng)
        site_points.append(sites[c] + np.vstack([np.zeros(2), offsets]))
    points, truth = _assemble(site_points, classes, sites[clusters:], rng)
    truth = PlantedTruth(
        centers1=truth.centers1,
        centers2=truth.outliers,
        outliers=truth.outliers,
        cluster_of=truth.cluster_of,
    )
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
    weights = np.full((n, n), np.inf)
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w = float(rng.uniform(0.5, 1.5))
        weights[u, v] = weights[v, u] = w
    for _ in range(n // 2 if extra_edges is None else extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        w = float(rng.uniform(0.5, 1.5))
        weights[u, v] = weights[v, u] = min(weights[u, v], w)
    dist = shortest_path(np.where(np.isinf(weights), 0.0, weights))
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
