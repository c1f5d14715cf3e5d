"""Shared randomized builders for the test suite.

All randomness flows through explicit numpy Generators seeded by the caller,
so every test run sees the same corpus.
"""

from __future__ import annotations

import functools

import numpy as np

from nukc import (
    MetricSpace,
    NUkCInstance,
    TwoFFInstance,
    WellSepNUkCInstance,
    brute_force_nukc,
    graph_instance,
    hs_partition,
)


def count_ball_tables(monkeypatch) -> list[NUkCInstance]:
    """Patch ``NUkCInstance.balls`` to append its instance to the returned list at each build.

    The list keeps every built instance alive, so their ids stay distinct.
    """
    built: list[NUkCInstance] = []
    real = NUkCInstance.balls.func

    def balls(inst):
        built.append(inst)
        return real(inst)

    prop = functools.cached_property(balls)
    prop.__set_name__(NUkCInstance, "balls")
    monkeypatch.setattr(NUkCInstance, "balls", prop)
    return built


def random_metric(rng: np.random.Generator, n: int) -> MetricSpace:
    """Euclidean points, a graph metric, or points with duplicates."""
    kind = rng.random()
    if kind < 0.55:
        return MetricSpace.from_points(rng.uniform(0.0, 4.0, size=(n, 2)))
    if kind < 0.8 and n >= 2:
        return graph_instance(int(rng.integers(1 << 30)), n, 1, 1).metric
    # duplicates: few distinct sites, points drawn with repetition
    sites = rng.uniform(0.0, 4.0, size=(max(2, n // 2), 2))
    picks = rng.integers(0, len(sites), size=n)
    return MetricSpace.from_points(sites[picks])


def random_instance(rng: np.random.Generator, max_n: int = 10) -> NUkCInstance:
    """Mixed small instance for the solver-versus-brute-force corpora."""
    n = int(rng.integers(2, max_n + 1))
    metric = random_metric(rng, n)
    d = metric.dist
    positive = d[d > 0]
    scale = float(np.median(positive)) if positive.size else 1.0
    r1 = scale * float(rng.uniform(0.2, 1.2))
    r2 = 0.0 if rng.random() < 0.1 else r1 * float(rng.uniform(0.05, 0.9))
    k1 = int(rng.integers(0, 3))
    k2 = int(rng.integers(0, 3))
    if k1 == 0 and k2 == 0:
        k1 = 1
    m = int(rng.integers(1, n + 1))
    return NUkCInstance(metric=metric, r1=r1, r2=r2, k1=k1, k2=k2, m=m)


def near_symmetric_instance(rng):
    """Points in the plane whose matrix is off symmetric by up to 1e-9.

    Every off-diagonal entry is raised by 2e-9, which keeps the triangle
    inequality with room, and then moved by up to 5e-10 either way, which
    ``from_matrix`` accepts.  The radii are entries of the matrix, so a ball
    edge falls between d[u, v] and d[v, u].  Half the targets are the most
    that dilation 1 covers, so the instance is feasible and tight.
    """
    n = int(rng.integers(2, 8))
    pts = rng.uniform(0.0, 4.0, size=(n, 2))
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2) + 2e-9 + rng.uniform(-5e-10, 5e-10, (n, n))
    np.fill_diagonal(d, 0.0)
    entries = np.sort(d[~np.eye(n, dtype=bool)])
    r1 = float(rng.choice(entries))
    smaller = entries[entries < r1]
    r2 = float(rng.choice(smaller)) if smaller.size and rng.random() < 0.8 else 0.0
    k1, k2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    k1 = k1 or int(k2 == 0)
    inst = NUkCInstance(MetricSpace.from_matrix(d), r1, r2, k1, k2, int(rng.integers(1, n + 1)))
    if rng.random() < 0.5:
        inst = NUkCInstance(inst.metric, r1, r2, k1, k2, brute_force_nukc(inst).best_covered)
    return inst


def random_wellsep(
    rng: np.random.Generator, max_n: int = 9
) -> WellSepNUkCInstance | None:
    """Random instance plus a constructed center set pairwise > 4*r1 apart.

    Returns None when the metric cannot host two separated candidates, so
    callers can just resample.
    """
    inst = random_instance(rng, max_n)
    seps = hs_partition(
        inst.metric, range(inst.n), 4.0 * inst.r1, rng.uniform(size=inst.n)
    )
    reps = list(seps.reps)
    if len(reps) < 2:
        return None
    size = int(rng.integers(2, len(reps) + 1))
    y = sorted(int(v) for v in rng.choice(reps, size=size, replace=False))
    return WellSepNUkCInstance(base=inst, y=tuple(y))


def random_tree(rng: np.random.Generator) -> TwoFFInstance:
    """Random star forest within the exactness-test envelope."""
    n_roots = int(rng.integers(1, 6))
    extra = int(rng.integers(0, 11 - n_roots))
    roots = tuple(range(n_roots))
    leaves = []
    parent: dict[int, int] = {}
    leafset: dict[int, list[int]] = {u: [] for u in roots}
    next_id = n_roots
    for u in roots:
        if rng.random() < 0.5:  # reduction-shaped star: root is its own leaf
            parent[u] = u
            leafset[u].append(u)
            leaves.append(u)
    for _ in range(extra):
        u = int(rng.integers(0, n_roots))
        parent[next_id] = u
        leafset[u].append(next_id)
        leaves.append(next_id)
        next_id += 1
    if not leaves:
        parent[0] = 0
        leafset[0].append(0)
        leaves.append(0)
    w = {v: int(rng.integers(1, 11)) for v in leaves}
    return TwoFFInstance(
        roots=roots,
        leaves=tuple(leaves),
        parent=parent,
        leafset={u: tuple(vs) for u, vs in leafset.items()},
        w=w,
        k1=int(rng.integers(0, 4)),
        k2=int(rng.integers(0, 5)),
    )
