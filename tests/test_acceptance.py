"""Acceptance gate: one test per contract criterion, at the stated sizes and
tolerances.  Each test prints a single PASS line with its headline numbers
(visible under -s; the pytest -v verdict line carries pass/fail regardless).

Criteria 1-3 share one 500-instance mixed uniform/graph suite, solved once in
a session fixture and cross-checked three ways: approximation soundness,
infeasibility soundness, and hull validity of every cut either oracle emitted.
Criteria 1, 2, 4 and 9 also hold with the greedy screen off, where every
verdict but the trivial ones comes from the cutting-plane driver.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from nukc import (
    CoverageVector,
    HullChecker,
    NUkCSolution,
    OuterOracle,
    Separating,
    SolverConfig,
    brute_2ff,
    brute_force_nukc,
    frac_ff_solution,
    graph_instance,
    hs_partition,
    instance_from_json,
    planted_kcenter_instance,
    reduce_to_firefighter,
    solve_2ff,
    solve_feasibility,
    solve_wellsep,
    uniform_instance,
    verify_solution,
    wellsep_separation_oracle,
)
from nukc.ellipsoid import EllipsoidState, ellipsoid_update
from nukc.outer import Candidate
from nukc.serialize import load_json

import test_gap_fixture as gap
from conftest import random_metric, random_tree, random_wellsep
from test_clustering import check_partition_invariants

SUITE_SIZE = 500
SUITE_BUDGET_SECONDS = 600.0
CONFIGS = {"default": SolverConfig(), "shortcut-free": SolverConfig(shortcuts=False)}


def suite_instance(seed: int):
    """Mixed uniform/graph instance within n <= 10, k1,k2 <= 2, m <= n."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    k1 = int(rng.integers(0, 3))
    k2 = int(rng.integers(0, 3))
    m = int(rng.integers(1, n + 1))
    if seed % 2 == 0:
        r1 = float(rng.uniform(0.15, 0.7))
        r2 = r1 * float(rng.uniform(0.1, 0.8))
        return uniform_instance(seed, n, r1, r2, k1, k2, m)
    return graph_instance(seed, n, k1, k2, m)


@pytest.fixture(scope="session")
def suite():
    """Rows (seed, instance, brute force, default verdict, shortcut-free verdict)."""
    start = time.perf_counter()
    rows = []
    for seed in range(SUITE_SIZE):
        inst = suite_instance(seed)
        brute = brute_force_nukc(inst)
        res, raw = (solve_feasibility(inst, cfg) for cfg in CONFIGS.values())
        rows.append((seed, inst, brute, res, raw))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def verdicts(rows):
    """(config name, seed, instance, brute force, verdict) for both configs."""
    for seed, inst, brute, *results in rows:
        for name, res in zip(CONFIGS, results, strict=True):
            yield name, seed, inst, brute, res


def test_criterion_1_approximation_soundness(suite):
    rows, elapsed = suite
    failures = []
    feasible = 0
    for name, seed, inst, brute, res in verdicts(rows):
        if not brute.feasible:
            continue
        feasible += 1
        if res.status != "solution":
            failures.append((name, seed, "no solution on brute-feasible instance"))
            continue
        if res.solution.dilation > 10.0:
            failures.append((name, seed, f"dilation {res.solution.dilation}"))
            continue
        ok, count = verify_solution(inst, res.solution, res.solution.dilation)
        if not ok or count < inst.m:
            failures.append((name, seed, f"verify failed (ok={ok}, count={count})"))
    assert not failures, failures[:10]
    assert elapsed <= SUITE_BUDGET_SECONDS
    print(
        f"\ncriterion 1 (approximation soundness): PASS - "
        f"{feasible // len(CONFIGS)} brute-feasible of {len(rows)} instances, "
        f"0 failures under {len(CONFIGS)} configs, suite solved in {elapsed:.1f}s"
    )


def test_criterion_2_infeasibility_soundness(suite):
    rows, _ = suite
    false_infeasibles = []
    infeasible = 0
    for name, seed, inst, brute, res in verdicts(rows):
        if res.status != "infeasible":
            continue
        infeasible += 1
        if brute.feasible:
            false_infeasibles.append((name, seed, res.method))
    assert not false_infeasibles, false_infeasibles
    print(
        f"\ncriterion 2 (infeasibility soundness): PASS - "
        f"{infeasible} INFEASIBLE verdicts of {len(rows)} instances under "
        f"{len(CONFIGS)} configs, all brute-confirmed"
    )


def test_criterion_3_cut_validity(suite):
    rows, _ = suite
    counts = {"outer": 0, "inner": 0}
    bad = []

    def check(seed, inst, res, tag=""):
        if res.cuts:
            checker = HullChecker(inst)
            for cut in res.cuts:
                counts["outer"] += 1
                if not checker.validate(cut):
                    bad.append((seed, tag + cut.kind))
        for cand, inner in res.inner_runs:
            # The outer query rounds most candidates before their driver
            # runs, so rerun each without it and without the greedy too.
            cold = solve_wellsep(cand.instance, CONFIGS["shortcut-free"])
            cuts = inner.cuts + cold.cuts
            if not cuts:
                continue
            inner_checker = HullChecker(cand.instance.base, restrict_y=cand.instance.y)
            for cut in cuts:
                counts["inner"] += 1
                if not inner_checker.validate(cut):
                    bad.append((seed, tag + "inner:" + cut.kind))

    # Cuts both pipelines' drivers emitted across the suite, plus the inner
    # oracle's cuts on every Case II candidate, each against its own
    # instance's hull.
    for seed, inst, _, res, raw in rows:
        check(seed, inst, res)
        check(seed, inst, raw, tag="shortcut-free:")
    # The default pipeline short-circuits most instances, so harvest extra
    # cuts by rerunning a slice of the suite with the greedy off and a small
    # iteration cap.  Verdicts are not asserted here, only cut validity.
    cfg = SolverConfig(shortcuts=False, max_iters=80)
    for seed, inst, _, _, _ in rows:
        if inst.n > 6 or seed % 5 != 0:
            continue
        check(seed, inst, solve_feasibility(inst, cfg), tag="harvest:")
    # The seeded LP keeps every driver query inside the box, off the points
    # far from Y and within the budget rows, so the checks guarding those
    # never fire end to end.  Query both oracles directly at random points.
    rng = np.random.default_rng(3)
    direct = Counter()
    for seed, inst, _, _, _ in rows:
        if inst.n > 6 or seed % 5 != 0:
            continue
        oracle, checker = OuterOracle(inst, CONFIGS["default"]), HullChecker(inst)
        for _ in range(6):
            verdict = oracle(random_query(rng, inst.n))
            if isinstance(verdict, Separating):
                direct[verdict.cut.kind] += 1
                if not checker.validate(verdict.cut):
                    bad.append((seed, "direct:" + verdict.cut.kind))
    for _ in range(200):
        ws = random_wellsep(rng, max_n=6)
        if ws is None:
            continue
        checker = HullChecker(ws.base, restrict_y=ws.y)
        for _ in range(3):
            x = random_query(rng, ws.base.n)
            if rng.random() < 0.5:  # large coverage only on Y itself
                x[: ws.base.n][np.setdiff1d(np.arange(ws.base.n), ws.y)] = 0.0
            verdict = wellsep_separation_oracle(ws, CoverageVector.from_vector(x))
            if isinstance(verdict, Separating):
                direct["inner:" + verdict.cut.kind] += 1
                if not checker.validate(verdict.cut):
                    bad.append(("wellsep", "direct:inner:" + verdict.cut.kind))
    assert not bad, bad[:10]
    assert counts["outer"] > 0 and counts["inner"] > 0  # both oracles exercised
    expected = {"box-cov1", "box-cov2", "box-total", "mass", "root-budget", "leaf-budget"}
    expected |= {"inner:box-total", "inner:y-support"}
    assert expected <= set(direct), sorted(direct)
    print(
        f"\ncriterion 3 (cut validity): PASS - "
        f"{counts['outer'] + counts['inner']} driver cuts hull-checked "
        f"({counts['outer']} outer oracle, {counts['inner']} inner oracle) "
        f"and {direct.total()} from direct queries at random points, 0 violations"
    )


def random_query(rng, n):
    """A point the seeded LP never queries: off the box, or over the budgets."""
    if rng.random() < 0.3:
        return rng.uniform(-0.2, 1.2, size=2 * n)
    cov1 = rng.uniform(size=n)
    return np.concatenate([cov1, (1.0 - cov1) * rng.uniform(size=n)])


def test_shortcuts_only_add_the_greedy(suite):
    # Past the trivial answers and the greedy, both configs run the same
    # driver on the same LP, so the verdict and its cut trail must match.
    rows, _ = suite
    compared = 0
    for seed, _, _, res, raw in rows:
        if res.method in ("trivial", "greedy"):
            continue
        compared += 1
        fingerprints = [
            (r.status, r.method, r.case, r.iterations, [cut.kind for cut in r.cuts])
            for r in (res, raw)
        ]
        assert fingerprints[0] == fingerprints[1], (seed, fingerprints)
    assert compared > 0
    print(
        f"\nshortcuts add only the greedy: PASS - {compared} driver verdicts "
        f"of {len(rows)} instances identical under both configs"
    )


def test_warm_start_only_adds_solutions(suite, monkeypatch):
    # Each Case II inner run first queries the outer query mapped onto its
    # candidate.  A rounded start is a verified solution and a separated one
    # is dropped, so against cold inner runs the warm start may only turn
    # INFEASIBLE into SOLUTION, and only where dilation 1 is infeasible.
    rows, _ = suite
    started = sum(inner.method == "start" for _, _, _, *results in rows
                  for res in results for _, inner in res.inner_runs)
    monkeypatch.setattr(Candidate, "start", lambda self, cov: None)
    gained = 0
    for name, seed, inst, brute, warm in verdicts(rows):
        cold = solve_feasibility(inst, CONFIGS[name])
        if cold.status == "solution":
            assert warm.status == "solution", (name, seed)
        elif warm.status != cold.status:
            assert not brute.feasible, (name, seed)
            gained += 1
    assert started > 0
    print(
        f"\nwarm start: PASS - {started} inner runs rounded at the outer query, "
        f"{gained} verdicts gained on brute-infeasible instances, none lost"
    )


def test_case_one_rounds():
    # Seeded instances, k1 in 3..5, where the greedy falls short and a
    # driver query has root mass at most k1 - 2, so the outer oracle rounds
    # the whole forest at dilation 10 (Case I).  The uniform ones come from a
    # search over seeds s, with n in 12..18, k1 in 3..5, k2 in 0..2 and m in
    # [0.6 n, n] drawn in that order by default_rng(s).
    corpus = [
        uniform_instance(148, 15, 0.15, 0.05, 4, 0, 10),
        uniform_instance(485, 18, 0.15, 0.05, 4, 0, 13),
        uniform_instance(513, 18, 0.15, 0.05, 4, 1, 12),
        uniform_instance(566, 18, 0.15, 0.05, 5, 1, 13),
        uniform_instance(943, 16, 0.15, 0.05, 5, 0, 11),
        uniform_instance(1570, 17, 0.15, 0.05, 4, 0, 10),
        graph_instance(417, 18, 3, 0, 18),
        graph_instance(495, 15, 3, 0, 15),
    ]
    assert {inst.k1 for inst in corpus} == {3, 4, 5}
    for inst in corpus:
        for name, cfg in CONFIGS.items():
            res = solve_feasibility(inst, cfg)
            assert (res.status, res.method, res.case) == ("solution", "round", "I"), (inst, name)
            ok, count = verify_solution(inst, res.solution, 10.0)
            assert ok and count >= inst.m
    print(f"\ncase I: PASS - {len(corpus)} instances round in Case I under {len(CONFIGS)} configs")


def test_criterion_4_inner_solver_agreement():
    rng = np.random.default_rng(40342)
    done = 0
    failures = []
    while done < 300:
        ws = random_wellsep(rng, max_n=9)
        if ws is None:
            continue
        done += 1
        brute = brute_force_nukc(ws.base, restrict_y=ws.y)
        for name, cfg in CONFIGS.items():
            res = solve_wellsep(ws, cfg)
            if brute.feasible and res.status != "solution":
                failures.append((name, done, "missed a feasible instance"))
            elif res.status == "solution":
                ok, count = verify_solution(ws.base, res.solution, 4.0)
                if not ok or count < ws.base.m:
                    failures.append((name, done, "solution invalid at dilation 4"))
    assert not failures, failures[:10]
    print(
        f"\ncriterion 4 (inner solver vs restricted brute force): PASS - "
        f"{done} well-separated instances under {len(CONFIGS)} configs, "
        f"0 disagreements"
    )


def test_criterion_5_dp_exactness():
    rng = np.random.default_rng(50500)
    for i in range(1000):
        tree = random_tree(rng)
        dp = solve_2ff(tree)
        exact = brute_2ff(tree)
        assert dp.value == exact.value, (i, dp.value, exact.value)
    print("\ncriterion 5 (2-FF DP exactness): PASS - 1000 trees, exact equality")


def test_criterion_6_gap_fixture():
    doc = load_json(gap.FIXTURE)
    inst = instance_from_json(doc["instance"])
    helper = gap.TestGapFixture()
    helper.test_fractional_clears_target_integral_does_not()
    helper.test_enclosing_instance_verdict_matches_brute_force()
    target = math.floor(doc["frac_value"] + 1e-9)
    print(
        f"\ncriterion 6 (integrality-gap fixture): PASS - fractional "
        f"{doc['frac_value']:.3f} >= {target}, integral optimum "
        f"{doc['integral_value']} <= {target - 1}; enclosing instance "
        f"(n={inst.n}) verdict matches brute force"
    )


def test_criterion_7_partition_invariants():
    rng = np.random.default_rng(70707)
    calls = 0
    while calls < 10_000:
        n = int(rng.integers(1, 13))
        metric = random_metric(rng, n)
        radius = float(rng.uniform(0.0, 5.0))
        cov = rng.uniform(size=n)
        priority = rng.random(n) < 0.3 if rng.random() < 0.5 else None
        result = hs_partition(metric, range(n), radius, cov, priority=priority)
        check_partition_invariants(metric, list(range(n)), radius, cov, result)
        calls += 1
    print(
        f"\ncriterion 7 (partition invariants a-d): PASS - {calls} randomized "
        f"calls, 0 violations"
    )


def det_ratio_expected(d: int) -> float:
    if d == 1:
        return 0.25  # limit of the closed form; the 1-D update halves the interval
    return (d * d / (d * d - 1.0)) ** d * (d - 1.0) / (d + 1.0)


def test_criterion_8_ellipsoid_numerics():
    rng = np.random.default_rng(80808)
    worst = 0.0
    for d in (1, 2, 8, 20):
        for _ in range(5):
            basis = rng.normal(size=(d, d))
            shape = basis @ basis.T + d * np.eye(d)
            state = EllipsoidState(center=rng.normal(size=d), shape=shape, iteration=0)
            a = rng.normal(size=d)
            new = ellipsoid_update(state, a)
            _, logdet_old = np.linalg.slogdet(state.shape)
            _, logdet_new = np.linalg.slogdet(new.shape)
            measured = math.exp(logdet_new - logdet_old)
            expected = det_ratio_expected(d)
            rel = abs(measured - expected) / expected
            worst = max(worst, rel)
            assert rel <= 1e-6, (d, measured, expected)
    # 2-D worked example: unit ball cut along e0 keeping x0 <= 0.
    state = EllipsoidState(center=np.zeros(2), shape=np.eye(2), iteration=0)
    new = ellipsoid_update(state, np.array([1.0, 0.0]))
    assert np.allclose(new.center, [-1.0 / 3.0, 0.0], atol=1e-12)
    assert np.allclose(new.shape, np.diag([4.0 / 9.0, 4.0 / 3.0]), atol=1e-12)
    print(
        f"\ncriterion 8 (ellipsoid determinant ratio): PASS - d in (1,2,8,20) "
        f"worst relative error {worst:.2e} <= 1e-6; 2-D worked example exact "
        f"to 1e-12"
    )


def test_criterion_9_robust_kcenter():
    cases = [
        dict(seed=1, clusters=2, points_per_cluster=10, outliers=2),
        dict(seed=2, clusters=3, points_per_cluster=12, outliers=3),
        dict(seed=3, clusters=4, points_per_cluster=13, outliers=5),
        dict(seed=4, clusters=4, points_per_cluster=8, outliers=4),
        dict(seed=5, clusters=3, points_per_cluster=18, outliers=5),
    ]
    slowest = 0.0
    biggest = 0
    for case in cases:
        inst, _ = planted_kcenter_instance(**case)
        assert inst.n <= 60 and inst.k1 <= 4 and inst.k2 <= 5
        for name, cfg in CONFIGS.items():
            start = time.perf_counter()
            res = solve_feasibility(inst, cfg)
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            biggest = max(biggest, inst.n)
            assert elapsed < 60.0, (case, name, elapsed)
            assert res.status == "solution", (case, name)
            assert res.solution.dilation <= 10.0
            ok, count = verify_solution(inst, res.solution, res.solution.dilation)
            assert ok and count >= inst.m
    print(
        f"\ncriterion 9 (robust k-center, r2 = 0): PASS - {len(cases)} planted "
        f"instances up to n={biggest} under {len(CONFIGS)} configs, slowest "
        f"{slowest:.2f}s < 60s, dilation <= 10"
    )
