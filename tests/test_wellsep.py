from collections import Counter

import numpy as np
import pytest

from nukc import (
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    Rounded,
    Separating,
    SolverConfig,
    WellSepNUkCInstance,
    brute_force_nukc,
    graph_instance,
    planted_instance,
    solve_feasibility,
    solve_wellsep,
    uniform_instance,
    validate_cut_on_hull,
    verify_solution,
    wellsep_separation_oracle,
)
from nukc.cutting_plane import ORACLE_EPS, certificate_bound
from nukc.model import CoverageVector, Cut
from nukc import outer, wellsep
from nukc.wellsep import WELLSEP_DILATION, box_violation_cut

from conftest import count_ball_tables, random_wellsep


def wellsep_line(xs, y, **kw) -> WellSepNUkCInstance:
    metric = MetricSpace.from_points([(x, 0.0) for x in xs])
    params = dict(metric=metric, r1=1.0, r2=0.25, k1=1, k2=1, m=2)
    params.update(kw)
    return WellSepNUkCInstance(base=NUkCInstance(**params), y=tuple(y))


class TestBoxCut:
    def test_none_when_inside(self):
        cov = CoverageVector(np.array([0.5, 0.0]), np.array([0.5, 1.0]))
        assert box_violation_cut(cov) is None

    def test_negative_cov1(self):
        cov = CoverageVector(np.array([0.0, -0.1]), np.zeros(2))
        cut = box_violation_cut(cov)
        assert cut.kind == "box-cov1" and cut.meta["point"] == 1

    def test_total_above_one(self):
        cov = CoverageVector(np.array([0.8, 0.0]), np.array([0.4, 0.0]))
        cut = box_violation_cut(cov)
        assert cut.kind == "box-total" and cut.meta["point"] == 0

    def test_point_order_breaks_ties(self):
        cov = CoverageVector(np.array([0.0, -0.5]), np.array([-0.5, 0.0]))
        cut = box_violation_cut(cov)
        assert cut.kind == "box-cov2" and cut.meta["point"] == 0


def replaced_box_violation_cut(cov, eps=ORACLE_EPS):
    """The three-mask box check that the one-scan version replaced."""
    n = cov.n
    bad1 = cov.cov1 < -eps
    bad2 = cov.cov2 < -eps
    bad3 = cov.cov1 + cov.cov2 > 1.0 + eps
    hits = []
    if bad1.any():
        hits.append((int(np.argmax(bad1)), 0))
    if bad2.any():
        hits.append((int(np.argmax(bad2)), 1))
    if bad3.any():
        hits.append((int(np.argmax(bad3)), 2))
    if not hits:
        return None
    v, which = min(hits)
    a1 = np.zeros(n)
    a2 = np.zeros(n)
    if which == 0:
        a1[v] = -1.0
        return Cut(a1=a1, a2=a2, b=0.0, kind="box-cov1", meta={"point": v})
    if which == 1:
        a2[v] = -1.0
        return Cut(a1=a1, a2=a2, b=0.0, kind="box-cov2", meta={"point": v})
    a1[v] = 1.0
    a2[v] = 1.0
    return Cut(a1=a1, a2=a2, b=1.0, kind="box-total", meta={"point": v})


class TestBoxCutMatchesReplaced:
    # Values on both sides of each threshold and the thresholds themselves;
    # pairs such as (-0.5, 1.6) break several checks at one point.
    POOL = np.array([
        -ORACLE_EPS, np.nextafter(-ORACLE_EPS, -1.0), np.nextafter(-ORACLE_EPS, 0.0),
        1.0 + ORACLE_EPS, 1.0, ORACLE_EPS, 0.0, 0.5, -0.5, 1.6, -1.0,
    ])
    FIXED = [
        # cov = -eps and cov1 + cov2 = 1 + eps sit on the boundary: no cut.
        (([-ORACLE_EPS, 1.0], [-ORACLE_EPS, ORACLE_EPS]), None),
        # Point 1 breaks cov1 >= 0 and the total: the cov1 check comes first.
        (([0.2, -0.5], [0.3, 1.6]), ("box-cov1", 1)),
        # Point 1 breaks both signs, point 0 the total: points come first.
        (([0.7, -0.5], [0.7, -0.5]), ("box-total", 0)),
    ]

    def test_same_cut_on_random_vectors(self):
        rng = np.random.default_rng(2718)
        vectors = [(np.array(c1), np.array(c2)) for (c1, c2), _ in self.FIXED]
        for trial in range(1500):
            n = int(rng.integers(1, 9))
            if trial % 3 == 0:
                vectors.append(tuple(rng.uniform(-0.05, 1.05, size=(2, n))))
            else:
                vectors.append(tuple(rng.choice(self.POOL, size=(2, n))))
        kinds = set()
        for index, (c1, c2) in enumerate(vectors):
            cov = CoverageVector(c1, c2)
            got, want = box_violation_cut(cov), replaced_box_violation_cut(cov)
            if index < len(self.FIXED):
                expected = self.FIXED[index][1]
                assert (want and (want.kind, want.meta["point"])) == expected
            if want is None:
                assert got is None, (c1, c2)
                continue
            kinds.add(want.kind)
            assert (got.kind, got.meta, got.b) == (want.kind, want.meta, want.b)
            assert np.array_equal(got.a1, want.a1) and np.array_equal(got.a2, want.a2)
        assert kinds == {"box-cov1", "box-cov2", "box-total"}


class TestOracle:
    def test_y_support_cut_fires_on_far_mass(self):
        ws = wellsep_line([0.0, 10.0, 20.0], y=[0])
        cov = CoverageVector(np.array([0.0, 0.5, 0.0]), np.zeros(3))
        verdict = wellsep_separation_oracle(ws, cov)
        assert isinstance(verdict, Separating)
        assert verdict.cut.kind == "y-support" and verdict.cut.meta["point"] == 1

    def test_mass_cut_fires_below_target(self):
        ws = wellsep_line([0.0, 10.0, 20.0], y=[0], m=2)
        cov = CoverageVector(np.array([0.9, 0.0, 0.0]), np.zeros(3))
        verdict = wellsep_separation_oracle(ws, cov)
        assert verdict.cut.kind == "mass"

    def test_rounds_integral_feasible_query(self):
        ws = wellsep_line([0.0, 0.5, 10.0], y=[0], m=3, k2=1)
        cov = CoverageVector(
            np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
        )
        verdict = wellsep_separation_oracle(ws, cov)
        assert isinstance(verdict, Rounded)
        solution, info = verdict.payload
        ok, count = verify_solution(ws.base, solution, WELLSEP_DILATION)
        assert ok and count == 3

    def test_tree_weight_cut_on_gap_query(self):
        # two triples, one large budget: fractional halves promise 6 but the
        # best integral selection saves 4
        xs = [0.0, 0.5, 1.0, 40.0, 40.5, 41.0]
        ws = wellsep_line(xs, y=[0, 3], r2=0.1, m=6, k1=1, k2=1)
        cov = CoverageVector(
            np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5]), np.full(6, 0.5)
        )
        verdict = wellsep_separation_oracle(ws, cov)
        assert isinstance(verdict, Separating)
        assert verdict.cut.kind == "tree-weight"
        assert verdict.cut.meta["best_value"] == 4
        # the emitted inequality holds on the instance's restricted hull
        assert validate_cut_on_hull(ws.base, verdict.cut, restrict_y=ws.y)
        # and the query violates it by nearly a full unit
        violation = float(verdict.cut.as_vector() @ cov.to_vector() - verdict.cut.b)
        assert violation >= 1.0 - 1e-6


class TestSolver:
    @pytest.mark.parametrize("cap", [0, -3])
    def test_iteration_cap_below_1_is_rejected(self, cap):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=cap)

    def test_iteration_cap_of_1_runs_the_oracle(self):
        # The coverage LP falls short of m, so the first query draws a mass
        # cut, and the cap ends the run before the re-solve.
        ws = wellsep_line([0.0, 10.0, 20.0], y=[0], m=3, k2=1)
        res = solve_wellsep(ws, SolverConfig(shortcuts=False, max_iters=1))
        assert (res.status, res.method, res.iterations) == ("undecided", "cap", 1)

    def test_finds_planted_wellsep_solution(self):
        ws = wellsep_line([0.0, 0.5, 10.0], y=[0], m=3, k2=1)
        res = solve_wellsep(ws)
        assert res.status == "solution"
        ok, count = verify_solution(ws.base, res.solution, WELLSEP_DILATION)
        assert ok and count >= 3

    def test_infeasible_when_y_cannot_reach(self):
        ws = wellsep_line([0.0, 10.0, 20.0], y=[0], m=3, k2=1)
        res = solve_wellsep(ws)
        assert res.status == "infeasible"

    def test_agrees_with_restricted_enumeration(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 60:
            ws = random_wellsep(rng)
            if ws is None:
                continue
            done += 1
            res = solve_wellsep(ws)
            brute = brute_force_nukc(ws.base, restrict_y=ws.y)
            if res.status == "infeasible":
                assert not brute.feasible
            else:
                assert res.solution.dilation <= WELLSEP_DILATION
                ok, _ = verify_solution(ws.base, res.solution, res.solution.dilation)
                assert ok
                if brute.feasible:
                    assert res.status == "solution"

    def test_no_shortcut_run_matches(self):
        rng = np.random.default_rng(19)
        cfg = SolverConfig(shortcuts=False)
        done = 0
        while done < 15:
            ws = random_wellsep(rng, max_n=7)
            if ws is None:
                continue
            done += 1
            res = solve_wellsep(ws, cfg)
            brute = brute_force_nukc(ws.base, restrict_y=ws.y)
            if brute.feasible:
                assert res.status == "solution"
            if res.status == "infeasible":
                assert not brute.feasible


def first_candidate(inst: NUkCInstance) -> WellSepNUkCInstance:
    """The first Case II candidate the outer solver solves on ``inst``.

    The solve runs without shortcuts, so the greedy cannot decide the outer
    instance first; once it has failed, both configs make the same queries.
    """
    return solve_feasibility(inst, SolverConfig(shortcuts=False)).inner_runs[0][0].instance


class TestDecide:
    """Both solvers run ``decide``: each way it ends early, checked by brute force.

    The ids name what decides the instance: the greedy screen, the coverage
    LP's bound (its optimum draws one mass cut, which empties the driver's
    LP), or the LP's optimum itself, which the oracle rounds at the first
    query (the probe).
    """

    @pytest.mark.parametrize("build, method, case, kinds", [
        (lambda: uniform_instance(0, 10, 0.3, 0.1, 2, 2, 8), "greedy", "", []),
        (lambda: uniform_instance(13, 10, 0.3, 0.1, 2, 2, 8), "lp-empty", "", ["mass"]),
        (lambda: uniform_instance(8, 10, 0.3, 0.1, 2, 2, 10), "round", "II", []),
        (lambda: first_candidate(planted_instance(4)[0]), "greedy", "", []),
        (lambda: wellsep_line([0.0, 10.0, 20.0], y=[0], m=3, k2=1), "lp-empty", "", ["mass"]),
        (lambda: first_candidate(graph_instance(104, 10, 2, 2, 9)), "round", "", []),
        # A large ball off Y would reach m; the LP's x1 = 0 off Y refutes it.
        (lambda: wellsep_line([0.0, 10.0, 10.5, 20.0], y=[0], m=3), "lp-empty", "", ["mass"]),
    ], ids=["outer-greedy", "outer-lp-bound", "outer-probe",
            "wellsep-greedy", "wellsep-lp-bound", "wellsep-probe", "wellsep-lp-bound-on-y"])
    def test_screen_verdict(self, build, method, case, kinds):
        inst = build()
        if isinstance(inst, WellSepNUkCInstance):
            res, base, y = solve_wellsep(inst), inst.base, inst.y
        else:
            res, base, y = solve_feasibility(inst), inst, None
        feasible = method != "lp-empty"
        assert (res.status, res.method, res.case) == (
            "solution" if feasible else "infeasible", method, case)
        assert res.iterations == len(kinds) and [cut.kind for cut in res.cuts] == kinds
        assert brute_force_nukc(base, restrict_y=y).feasible == feasible
        if feasible:
            ok, _ = verify_solution(base, res.solution, res.solution.dilation)
            assert ok
            assert y is None or set(res.solution.centers1) <= set(y)
            assert res.certificate is None
        else:
            assert certificate_bound(base, res.certificate, y) < base.m

    @pytest.mark.parametrize("build", [
        lambda: uniform_instance(13, 10, 0.3, 0.1, 2, 2, 8),
        lambda: wellsep_line([0.0, 10.0, 10.5, 20.0], y=[0], m=3),
    ], ids=["outer", "wellsep"])
    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_lp_refutation_without_certificate_is_undecided(self, monkeypatch, build, config):
        # The coverage LP alone refutes these; a refutation whose certificate
        # does not check proves nothing, so the verdict is UNDECIDED.
        inst = build()
        solve = solve_wellsep if isinstance(inst, WellSepNUkCInstance) else solve_feasibility
        res = solve(inst, config)
        assert (res.status, res.method) == ("infeasible", "lp-empty") and res.certificate is not None
        monkeypatch.setattr(wellsep, "lp_certificate", lambda model, y=None: None)
        res = solve(inst, config)
        assert (res.status, res.method, res.certificate) == ("undecided", "uncertified", None)
        assert [cut.kind for cut in res.cuts] == ["mass"]

    def test_start_that_rounds_skips_the_greedy_and_the_lp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("greedy or LP reached")

        monkeypatch.setattr(wellsep, "greedy_cover", refuse)
        monkeypatch.setattr(wellsep, "coverage_model", refuse)
        ws = wellsep_line([0.0, 0.5, 10.0], y=[0], m=3, k2=1)
        res = solve_wellsep(ws, start=np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0]))
        assert (res.status, res.method, res.case, res.iterations, res.cuts) == (
            "solution", "start", "", 0, [])
        assert verify_solution(ws.base, res.solution, WELLSEP_DILATION) == (True, 3)

    @pytest.mark.parametrize("build, start", [
        # Mass on the far points: the start draws a y-support cut.
        (lambda: wellsep_line([0.0, 10.0, 20.0], y=[0], m=3, k2=1), [0, 1, 1, 0, 0, 0]),
        # No mass: the start draws a mass cut.  The greedy fails on this
        # candidate, so both configs go on to the driver.
        (lambda: first_candidate(graph_instance(104, 10, 2, 2, 9)), None),
    ], ids=["infeasible", "feasible"])
    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(shortcuts=False)],
                             ids=["default", "shortcut-free"])
    def test_separated_start_leaves_the_run_as_without_it(self, build, start, config):
        ws = build()
        x = np.zeros(2 * ws.base.n) if start is None else np.array(start, dtype=float)
        verdict = wellsep_separation_oracle(ws, CoverageVector.from_vector(x))
        assert isinstance(verdict, Separating)
        runs = [solve_wellsep(ws, config, start=s) for s in (x, None)]
        fingerprints = [(r.status, r.method, r.case, r.iterations,
                         [cut.kind for cut in r.cuts]) for r in runs]
        # The start's cut would show up in the trail and the count.
        assert fingerprints[0] == fingerprints[1]


def test_ball_table_built_once_per_instance(monkeypatch):
    # The greedy, the driver and the certificate check all read the table
    # cached on the instance: solved four times, an instance builds it once.
    # A rounded start query reads none, so that inner instance builds none.
    built = count_ball_tables(monkeypatch)
    real_decide = wellsep.decide
    done: list[tuple[NUkCInstance, bool, str]] = []  # (instance, shortcuts, method), per finished decide

    def decide(inst, oracle, config, *args):
        res = real_decide(inst, oracle, config, *args)
        done.append((inst, config.shortcuts, res.method))
        return res

    for mod in (outer, wellsep):
        monkeypatch.setattr(mod, "decide", decide)
    # The greedy's first ball, at 1.05, straddles the two clusters and falls
    # one point short; the driver rounds through Case II from a start query.
    straddle = NUkCInstance(MetricSpace.from_points([[x] for x in (0, .08, .09, 1.05, 2, 2.02, 2.1)]),
                            1.0, 0.01, 2, 0, 7)
    rng = np.random.default_rng(31)
    corpus = [straddle] + [uniform_instance(s, 12, 0.3, 0.1, 2, 2, int(rng.integers(6, 13)))
                           for s in range(40)]
    for inst in corpus:
        for config in (SolverConfig(), SolverConfig(shortcuts=False)) * 2:
            solve_feasibility(inst, config)
    builds = Counter(map(id, built))
    assert set(builds.values()) == {1}
    for inst, _, method in done:
        assert builds[id(inst)] == (0 if method in ("start", "trivial") else 1), method
    seen = {(shortcuts, method) for _, shortcuts, method in done}
    want = {(True, "start"), (True, "greedy"), (True, "round"), (True, "lp-empty"),
            (False, "start"), (False, "round"), (False, "lp-empty")}
    assert want <= seen, seen


def test_nested_runs_take_their_own_highs_object(monkeypatch):
    # An inner run builds its model while the outer one is live, so it must
    # not get the outer HiGHS object from the free list.  Both objects go
    # back once their runs are done.
    real_model, real_release = wellsep.coverage_model, wellsep.release
    live: list = []
    depths: list[int] = []

    def coverage_model(*args, **kwargs):
        model = real_model(*args, **kwargs)
        assert all(model.lp is not lp for lp in live)
        depths.append(len(live))
        live.append(model.lp)
        return model

    def release(model):
        live.remove(model.lp)
        real_release(model)

    monkeypatch.setattr(wellsep, "coverage_model", coverage_model)
    monkeypatch.setattr(wellsep, "release", release)
    inner = wellsep_line([0.0, 10.0, 20.0], y=[0], m=3, k2=1)
    verdicts = []

    def oracle(x):
        verdicts.append(solve_wellsep(inner, SolverConfig(shortcuts=False)).method)
        return Rounded((NUkCSolution((0,), (), 1.0), {}))

    one_point = NUkCInstance(MetricSpace(np.zeros((1, 1))), 1.0, 0.5, 1, 1, 1)
    for _ in range(2):
        res = wellsep.decide(one_point, oracle, SolverConfig(shortcuts=False))
        assert (res.status, res.method) == ("solution", "round")
    assert verdicts == ["lp-empty"] * 2 and depths == [0, 1] * 2 and not live
