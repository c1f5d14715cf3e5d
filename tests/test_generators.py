"""Instance generators: planted ground truth, determinism, metric validity."""

import hashlib
from math import ceil, isqrt

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from nukc import (
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    graph_instance,
    planted_instance,
    planted_kcenter_instance,
    uniform_instance,
    verify_solution,
)
from nukc.generators import CLUSTER_FILL, SITE_GAP_FACTOR, PlantedTruth


class TestPlanted:
    def test_truth_witnesses_feasibility(self):
        for seed in range(12):
            inst, truth = planted_instance(seed, clusters=3, points_per_cluster=4)
            witness = NUkCSolution(
                centers1=truth.centers1, centers2=truth.centers2, dilation=1.0
            )
            ok, count = verify_solution(inst, witness, 1.0)
            assert ok and count >= inst.m
            assert len(truth.centers1) == inst.k1
            assert len(truth.centers2) == inst.k2
            assert len(truth.outliers) == inst.n - inst.m

    def test_outliers_marked_in_cluster_map(self):
        inst, truth = planted_instance(7)
        for v in truth.outliers:
            assert truth.cluster_of[v] == -1
        assert sum(c == -1 for c in truth.cluster_of) == len(truth.outliers)
        assert len(truth.cluster_of) == inst.n

    def test_deterministic(self):
        a, ta = planted_instance(42)
        b, tb = planted_instance(42)
        assert np.array_equal(a.metric.dist, b.metric.dist)
        assert ta == tb

    def test_first_cluster_always_large(self):
        # Both budgets must matter, so k1 >= 1 whatever the class draw does.
        for seed in range(8):
            inst, _ = planted_instance(seed, clusters=2)
            assert inst.k1 >= 1
            assert inst.k1 + inst.k2 == 2


class TestPlantedKCenter:
    def test_poses_robust_kcenter(self):
        inst, truth = planted_kcenter_instance(3, clusters=2, outliers=2)
        assert inst.r2 == 0.0
        assert inst.k2 == 2
        assert inst.m == inst.n
        witness = NUkCSolution(
            centers1=truth.centers1, centers2=truth.centers2, dilation=1.0
        )
        ok, count = verify_solution(inst, witness, 1.0)
        assert ok and count == inst.n

    def test_strays_covered_by_zero_balls(self):
        _, truth = planted_kcenter_instance(9)
        assert truth.centers2 == truth.outliers


class TestUniform:
    def test_shape_and_default_target(self):
        inst = uniform_instance(1, n=10, r1=0.3, r2=0.1, k1=2, k2=2)
        assert inst.n == 10
        assert inst.m == 8
        assert inst.r1 == 0.3 and inst.r2 == 0.1

    def test_explicit_target_and_determinism(self):
        a = uniform_instance(5, n=6, r1=0.4, r2=0.2, k1=1, k2=1, m=4)
        b = uniform_instance(5, n=6, r1=0.4, r2=0.2, k1=1, k2=1, m=4)
        assert a.m == 4
        assert np.array_equal(a.metric.dist, b.metric.dist)


class TestGraph:
    def test_connected_and_radii_ordered(self):
        for seed in range(10):
            inst = graph_instance(seed, n=9, k1=2, k2=1)
            assert np.all(np.isfinite(inst.metric.dist))
            assert inst.r1 > inst.r2 >= 0.0
            assert inst.m == 8  # ceil(0.8 * 9)

    def test_extra_edges_only_shorten_paths(self):
        sparse = graph_instance(4, n=8, k1=1, k2=1, extra_edges=0)
        dense = graph_instance(4, n=8, k1=1, k2=1, extra_edges=20)
        assert np.all(dense.metric.dist <= sparse.metric.dist + 1e-12)

    def test_metric_equals_its_transpose_exactly(self):
        # The metric skips the symmetry check: (d + d.T) / 2 is symmetric bit for bit.
        for seed in range(30):
            n = int(np.random.default_rng(seed).integers(2, 80))
            d = graph_instance(seed, n=n, k1=2, k2=2).metric.dist
            assert np.array_equal(d, d.T)

    def test_deterministic(self):
        a = graph_instance(2, n=7, k1=1, k2=2)
        b = graph_instance(2, n=7, k1=1, k2=2)
        assert np.array_equal(a.metric.dist, b.metric.dist)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "make",
    [
        lambda s: planted_instance(s, 3, 5, 2)[0],
        lambda s: planted_instance(s, 6, 9, 6)[0],
        lambda s: planted_instance(s, 10, 11, 10)[0],
        lambda s: planted_kcenter_instance(s, 2, 6, 2)[0],
        lambda s: planted_kcenter_instance(s, 8, 14, 8)[0],
        lambda s: uniform_instance(s, 5, 0.3, 0.1, 1, 1),
        lambda s: uniform_instance(s, 120, 0.1, 0.05, 4, 4),
        lambda s: graph_instance(s, 2, 1, 1),
        lambda s: graph_instance(s, 60, 2, 2),
        lambda s: graph_instance(s, 120, 4, 4),
    ],
)
def test_generated_metrics_pass_the_full_check(make, seed):
    # Generators build trusted metrics that skip the triangle check; the
    # validating constructor must accept every one of them unchanged.
    metric = make(seed).metric
    assert 2 <= metric.n <= 120
    assert MetricSpace(metric.dist, metric.coords) == metric


# Reference generators: the per-point and per-cluster loops the array code in
# nukc.generators replaced.  They make the same draws in the same order, so
# both must build the same instances bit for bit.


def loop_grid_sites(count, gap, rng):
    side = isqrt(count - 1) + 1 if count else 1
    cells = [(i, j) for i in range(side) for j in range(side)][:count]
    order = rng.permutation(count)
    return np.array([cells[i] for i in order], dtype=float) * gap


def loop_disk_offsets(count, radius, rng):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    dists = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.stack([dists * np.cos(angles), dists * np.sin(angles)], axis=1)


def loop_assemble(site_points, classes, outlier_sites, rng):
    blocks = site_points + [outlier_sites[i : i + 1] for i in range(len(outlier_sites))]
    points = np.concatenate(blocks) if blocks else np.zeros((0, 2))
    n = len(points)
    cluster_of = np.concatenate(
        [np.full(len(b), c) for c, b in enumerate(site_points)] + [np.full(len(outlier_sites), -1)]
    ) if n else np.zeros(0, dtype=int)
    firsts = np.cumsum([0] + [len(b) for b in site_points[:-1]]) if site_points else []
    perm = rng.permutation(n)
    inverse = np.empty(n, dtype=int)
    inverse[perm] = np.arange(n)
    base = sum(len(b) for b in site_points)
    truth = PlantedTruth(
        centers1=tuple(int(inverse[f]) for f, c in zip(firsts, classes) if c == 1),
        centers2=tuple(int(inverse[f]) for f, c in zip(firsts, classes) if c == 2),
        outliers=tuple(int(inverse[base + i]) for i in range(len(outlier_sites))),
        cluster_of=tuple(int(cluster_of[perm[i]]) for i in range(n)),
    )
    return points[perm], truth


def loop_planted_instance(seed, clusters=3, points_per_cluster=5, outliers=2, r1=1.0, r2=0.4):
    rng = np.random.default_rng(seed)
    sites = loop_grid_sites(clusters + outliers, SITE_GAP_FACTOR * r1, rng)
    classes = [1] + [int(rng.integers(1, 3)) for _ in range(clusters - 1)]
    site_points = []
    for c in range(clusters):
        radius = CLUSTER_FILL * (r1 if classes[c] == 1 else r2)
        offsets = loop_disk_offsets(points_per_cluster - 1, radius, rng)
        site_points.append(sites[c] + np.vstack([np.zeros(2), offsets]))
    points, truth = loop_assemble(site_points, classes, sites[clusters:], rng)
    metric = MetricSpace.from_points(points)
    return NUkCInstance(metric, r1, r2, classes.count(1), classes.count(2), len(points) - outliers), truth


def loop_planted_kcenter_instance(seed, clusters=3, points_per_cluster=8, outliers=2, r1=1.0):
    rng = np.random.default_rng(seed)
    sites = loop_grid_sites(clusters + outliers, SITE_GAP_FACTOR * r1, rng)
    site_points = []
    for c in range(clusters):
        offsets = loop_disk_offsets(points_per_cluster - 1, CLUSTER_FILL * r1, rng)
        site_points.append(sites[c] + np.vstack([np.zeros(2), offsets]))
    points, truth = loop_assemble(site_points, [1] * clusters, sites[clusters:], rng)
    truth = PlantedTruth(truth.centers1, truth.outliers, truth.outliers, truth.cluster_of)
    return NUkCInstance(MetricSpace.from_points(points), r1, 0.0, clusters, outliers, len(points)), truth


def loop_graph_instance(seed, n, k1, k2, m=None, extra_edges=None, r1=None, r2=None):
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
    return NUkCInstance(MetricSpace._trusted(dist), r1, r2, k1, k2, ceil(0.8 * n) if m is None else m)


def _fingerprint(inst):
    """Everything an instance holds, distance and coordinate bytes hashed, scalars with their types."""
    coords = inst.metric.coords
    return (
        hashlib.sha256(inst.metric.dist.tobytes()).hexdigest(),
        inst.metric.dist.shape,
        None if coords is None else (hashlib.sha256(coords.tobytes()).hexdigest(), coords.shape),
        [(v, type(v)) for v in (inst.r1, inst.r2, inst.k1, inst.k2, inst.m)],
    )


def _truth_fingerprint(truth):
    # PlantedTruth equality, plus: every index is a Python int.
    return truth, {type(v) for field in vars(truth).values() for v in field} <= {int}


@pytest.mark.parametrize("outliers", [0, 6])
@pytest.mark.parametrize("points_per_cluster", [1, 9, 99])
@pytest.mark.parametrize("clusters", [0, 1, 6, 50])
@pytest.mark.parametrize(
    "loop, array",
    [(loop_planted_instance, planted_instance), (loop_planted_kcenter_instance, planted_kcenter_instance)],
    ids=["planted", "kcenter"],
)
def test_planted_generators_match_their_loops(loop, array, clusters, points_per_cluster, outliers):
    # One seed for the n = 5000 grids, whose metrics are 200 MB each.
    for seed in (0,) if clusters * points_per_cluster > 1000 else (0, 1, 2):
        want_inst, want_truth = loop(seed, clusters, points_per_cluster, outliers)
        want = _fingerprint(want_inst), _truth_fingerprint(want_truth)
        del want_inst
        got_inst, got_truth = array(seed, clusters, points_per_cluster, outliers)
        assert (_fingerprint(got_inst), _truth_fingerprint(got_truth)) == want


def test_planted_generators_match_their_loops_at_other_radii():
    for seed in range(6):
        for r1, r2 in ((2.5, 0.1), (0.3, 0.0)):
            want, want_truth = loop_planted_instance(seed, 4, 7, 3, r1, r2)
            got, got_truth = planted_instance(seed, 4, 7, 3, r1, r2)
            assert (_fingerprint(got), got_truth) == (_fingerprint(want), want_truth)
        want, want_truth = loop_planted_kcenter_instance(seed, 4, 7, 3, 2.5)
        got, got_truth = planted_kcenter_instance(seed, 4, 7, 3, 2.5)
        assert (_fingerprint(got), got_truth) == (_fingerprint(want), want_truth)


@pytest.mark.parametrize("extra_edges", [0, None, "2n"])
@pytest.mark.parametrize(
    "n", [1, 2, pytest.param(9, id="9-auto-picks-floyd-warshall"), 20, 60]
)
def test_graph_generator_matches_its_loop(n, extra_edges):
    # At n = 9, 12 edges, shortest_path's "auto" method runs Floyd-Warshall,
    # whose distances differ from Dijkstra's in the last bit on some seeds.
    extra = 2 * n if extra_edges == "2n" else extra_edges
    radii = [{}, {"r1": 1.25, "r2": 0.5}, {"r1": 0.6, "r2": 0.9}, {"r2": 1e9}]  # the last two fall back to r1 / 2
    for seed in range(8):
        for kw in radii:
            want = loop_graph_instance(seed, n, 2, 1, extra_edges=extra, **kw)
            got = graph_instance(seed, n, 2, 1, extra_edges=extra, **kw)
            assert _fingerprint(got) == _fingerprint(want)
