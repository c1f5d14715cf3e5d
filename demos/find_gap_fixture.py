"""Search for an integrality-gap fixture of the firefighter relaxation.

The reduction of a fractional coverage vector can carry fractional firefighter
value m while no integral selection reaches m; this is the reason the solvers
cut instead of rounding in that situation.  This script hunts for a small,
reproducible witness: a well separated instance plus a coverage vector whose
reduced forest shows the gap.  The first hit is printed as JSON; the frozen
copy lives in tests/fixtures/gap_fixture.json and is verified by the test
suite with the exact enumeration oracles.

Run:  python3 demos/find_gap_fixture.py
"""

import json
from math import floor
from pathlib import Path

import numpy as np

from nukc import (
    MetricSpace,
    NUkCInstance,
    brute_2ff,
    brute_force_nukc,
    frac_ff_solution,
    hs_partition,
    reduce_to_firefighter,
    solve_2ff,
    solve_feasibility,
)
from nukc.model import CoverageVector

SEED = 20250811


def random_geometry(rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """A line of well separated groups; gaps force distinct large balls."""
    groups = int(rng.integers(2, 4))
    r1 = 1.0
    r2 = float(rng.uniform(0.05, 0.2))
    points = []
    base = 0.0
    for _ in range(groups):
        size = int(rng.integers(2, 5))
        spread = float(rng.uniform(0.5, 1.0)) * r1
        xs = base + np.sort(rng.uniform(0.0, spread, size=size))
        points.extend((x, 0.0) for x in xs)
        base += float(rng.uniform(15.0, 30.0)) * r1
    return np.array(points), r1, r2


def random_coverage(
    rng: np.random.Generator, n: int, near_y: np.ndarray
) -> CoverageVector:
    """Fractional coverage concentrated near one half; halves are the classic
    shape of the gap, so bias toward them."""
    if rng.random() < 0.6:
        cov1 = np.where(near_y, 0.5, 0.0)
        cov2 = np.full(n, 0.5)
    else:
        cov1 = np.where(near_y, rng.uniform(0.0, 1.0, n), 0.0)
        cov2 = rng.uniform(0.0, 1.0, n) * (1.0 - cov1)
    return CoverageVector(cov1, cov2)


def search(max_trials: int = 20000, seed: int = SEED) -> dict | None:
    rng = np.random.default_rng(seed)
    for trial in range(max_trials):
        points, r1, r2 = random_geometry(rng)
        n = len(points)
        if n > 10:
            continue
        metric = MetricSpace.from_points(points)
        k1 = int(rng.integers(1, 3))
        k2 = int(rng.integers(1, 3))
        probe = NUkCInstance(metric=metric, r1=r1, r2=r2, k1=k1, k2=k2, m=1)
        seps = hs_partition(
            metric, range(n), 4.0 * r1, np.ones(n)
        )
        y = list(seps.reps)
        if len(y) < 2:
            continue
        near_y = metric.dist[y].min(axis=0) <= r1
        cov = random_coverage(rng, n, near_y)
        tree = reduce_to_firefighter(probe, 2.0, 2.0, cov, y=y)
        frac = frac_ff_solution(tree, cov).value
        best = solve_2ff(tree).value
        m = floor(frac + 1e-9)
        if m < 1 or m > n or best > m - 1:
            continue
        instance = NUkCInstance(metric=metric, r1=r1, r2=r2, k1=k1, k2=k2, m=m)
        # Verify with the exact oracles before accepting the fixture.
        exact = brute_2ff(tree)
        assert exact.value == best, "solver and enumeration disagree"
        brute = brute_force_nukc(instance)
        outer = solve_feasibility(instance)
        assert (outer.status == "solution") == brute.feasible
        return {
            "trial": trial,
            "instance": {
                "points": [[float(a) for a in p] for p in points],
                "r1": r1,
                "r2": r2,
                "k1": k1,
                "k2": k2,
                "m": m,
            },
            "y": [int(v) for v in y],
            "alpha1": 2.0,
            "alpha2": 2.0,
            "cov1": [float(x) for x in cov.cov1],
            "cov2": [float(x) for x in cov.cov2],
            "frac_value": frac,
            "integral_value": best,
            "brute_feasible": brute.feasible,
            "outer_status": outer.status,
        }
    return None


def main() -> None:
    fixture = search()
    if fixture is None:
        print("no gap found; widen the search")
        return
    print(
        f"found at trial {fixture['trial']}: "
        f"fractional {fixture['frac_value']:.3f} >= m={fixture['instance']['m']} "
        f"but integral optimum {fixture['integral_value']} <= m-1"
    )
    print(
        f"enclosing instance: brute feasible={fixture['brute_feasible']}, "
        f"solver says {fixture['outer_status']}"
    )
    out = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "gap_fixture.json"
    path.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
