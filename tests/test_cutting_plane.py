"""The cutting-plane driver on toy oracles, its seeded coverage LP, and the
solvers it drives with the greedy screen off."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import nukc.cutting_plane as cutting_plane
from nukc import (
    MetricSpace,
    NUkCInstance,
    SolverConfig,
    brute_force_nukc,
    hull_coverage_vectors,
    planted_instance,
    planted_kcenter_instance,
    solve_feasibility,
    solve_wellsep,
    uniform_instance,
    verify_solution,
)
from nukc.cutting_plane import (
    CERTIFICATE_GRID,
    CUT_CONTRACT_EPS,
    LPSolveError,
    OracleContractError,
    Rounded,
    Separating,
    _highs,
    _split,
    certificate_bound,
    coverage_lp,
    coverage_model,
    default_max_iters,
    release,
    run_round_or_cut,
)
from nukc.model import Cut

from conftest import near_symmetric_instance, random_instance, random_wellsep
from test_presolve import linprog_coverage_lp

# One point, one ball of each size: the coverage LP projects onto the box
# 0 <= cov1, cov2 with cov1 + cov2 <= 1, where the toy oracles below work.
ONE_POINT = NUkCInstance(MetricSpace(np.zeros((1, 1))), 1.0, 0.5, 1, 1, 1)


def box_run(oracle, max_iters=None):
    return run_round_or_cut(coverage_model(ONE_POINT), oracle, max_iters)


def separate(a, b, kind=""):
    """The 1-point cut a[0]·cov1 + a[1]·cov2 <= b."""
    a = np.asarray(a, dtype=float)
    return Separating(Cut(a1=a[:1], a2=a[1:], b=b, kind=kind))


class TestDefaults:
    def test_iteration_cap_formula(self):
        for d in (2, 20, 64):
            assert default_max_iters(d) == math.ceil(
                2.0 * d * (d + 1) * math.log(d * 1e4)
            )


class TestDriver:
    def test_finds_small_target_box(self):
        # The box is where no axis cut +-x_i <= +-target_i + 0.05 is violated
        # in the driver's sense, so every cut the oracle returns keeps the
        # contract: a check on |x - target| instead rejects a query on the
        # boundary that its own cut does not separate.
        target = np.array([0.31, 0.62])
        axes = np.vstack([np.eye(2), -np.eye(2)])
        bounds = axes @ target + 0.05

        def violations(x):
            return axes @ x - bounds

        def oracle(x):
            worst = int(np.argmax(violations(x)))
            if violations(x)[worst] <= CUT_CONTRACT_EPS:
                return Rounded(("hit", x.copy()))
            return separate(axes[worst], float(bounds[worst]))

        res = box_run(oracle)
        assert res.status == "rounded"
        tag, point = res.payload
        assert tag == "hit" and np.all(violations(point) <= CUT_CONTRACT_EPS)
        assert res.iterations == len(res.cuts) > 0

    def test_rounds_at_iteration_0(self):
        queries = []

        def oracle(x):
            queries.append(x)
            return Rounded("done")

        res = box_run(oracle)
        assert (res.status, res.payload, res.iterations, res.cuts) == ("rounded", "done", 0, [])
        # The first query is an optimum of the uncut LP: the point is fully
        # covered, and the query holds cov1 | cov2 only.
        assert len(queries) == 1 and queries[0].shape == (2,)
        assert queries[0].sum() == pytest.approx(1.0)

    def test_exhausts_cap_and_collects_cuts(self):
        # Halves the total coverage at every query: the LP never empties and
        # nothing rounds, so only the cap can end the run.
        handed = []

        def oracle(x):
            verdict = separate([1.0, 1.0], float(x.sum()) / 2.0, kind="halve")
            handed.append(verdict.cut)
            return verdict

        res = box_run(oracle, 17)
        assert res.status == "exhausted"
        assert res.iterations == 17
        # The record is the oracle's own cuts, in order.
        assert all(got is cut for got, cut in zip(res.cuts, handed, strict=True))

    def test_cut_excluding_the_box_empties_the_lp(self):
        def oracle(x):
            return separate([-1.0, 0.0], -2.0)  # cov1 >= 2

        res = box_run(oracle)
        assert (res.status, res.iterations, len(res.cuts)) == ("infeasible", 1, 1)

    def test_contract_violation_raises(self):
        def oracle(x):
            return separate([1.0, 0.0], float(x[0]) + 1.0)

        with pytest.raises(OracleContractError):
            box_run(oracle)

    def test_recorded_cut_handed_again_raises(self):
        # The recorded cut is an LP row, so the next query satisfies it.
        cut = separate([1.0, 1.0], 0.5).cut

        def oracle(x):
            return Separating(cut)

        with pytest.raises(OracleContractError):
            box_run(oracle)

    def test_row_rejected_by_highs_raises_lp_solve_error(self):
        # Violated at any query that covers the point at all; HiGHS refuses
        # coefficients this large.
        def oracle(x):
            return separate([1e300, 1e300], 0.0)

        with pytest.raises(LPSolveError):
            box_run(oracle)


def dense_lp(model):
    """The model's (A, column bounds, row bounds) as dense arrays."""
    lp = model.lp.getLp()
    mat = lp.a_matrix_
    # Adding rows can leave the matrix stored row-wise.
    colwise = mat.format_ == _highs.MatrixFormat.kColwise
    a = np.zeros((lp.num_row_, lp.num_col_) if colwise else (lp.num_col_, lp.num_row_))
    for j in range(a.shape[1]):
        span = slice(mat.start_[j], mat.start_[j + 1])
        a[mat.index_[span], j] = mat.value_[span]
    a = a if colwise else a.T
    cols = np.array(lp.col_lower_), np.array(lp.col_upper_)
    return a, cols, (np.array(lp.row_lower_), np.array(lp.row_upper_))


def reach(inst, x1, x2):
    """Per point v, the x1 at centers u with d[u, v] <= r1 and the x2 with d[u, v] <= r2."""
    d = inst.metric.dist
    return (d <= inst.r1).T @ x1, (d <= inst.r2).T @ x2


class TestSeededLP:
    """The driver's model is the coverage LP: valid on the hull, same optimum."""

    @staticmethod
    def corpus(build=None):
        rng = np.random.default_rng(88)
        for _ in range(40):
            inst = build(rng) if build else random_instance(rng, max_n=7)
            for y in (None, (0,), tuple(range(0, inst.n, 2))):
                yield inst, y

    def static_rows_hold_on_the_hull(self, corpus):
        # Columns x1 | x2 | e on n ranged point rows and the two budget
        # rows, then cov1 | cov2 on 3n more rows once the split is forced.
        checked = 0
        for inst, y in corpus:
            n = inst.n
            model = coverage_model(inst, y)
            compact = dense_lp(model)
            assert compact[0].shape == (n + 2, 3 * n)
            assert np.all(compact[2][0][:n] == 0) and np.all(compact[2][1][:n] == 1)
            _split(model)
            full = dense_lp(model)
            assert full[0].shape == (4 * n + 2, 5 * n)
            for sol, cov in hull_coverage_vectors(inst, restrict_y=y):
                x = np.zeros(5 * n)
                x[np.array(sol.centers1, dtype=int)] = 1.0
                x[n + np.array(sol.centers2, dtype=int)] = 1.0
                x[2 * n : 3 * n] = sum(reach(inst, x[:n], x[n : 2 * n])) - cov.cov()
                x[3 * n :] = cov.to_vector()
                for (a, (lo, hi), (row_lo, row_hi)), z in ((compact, x[: 3 * n]), (full, x)):
                    assert np.all(z >= lo) and np.all(z <= hi)
                    assert np.all(a @ z >= row_lo - 1e-12), (inst, y, sol)
                    assert np.all(a @ z <= row_hi + 1e-12), (inst, y, sol)
                checked += 1
        return checked

    def test_hull_points_meet_every_static_row(self):
        assert self.static_rows_hold_on_the_hull(self.corpus()) > 100

    def test_near_symmetric_hull_points_meet_every_static_row(self):
        # A row that read d[v, u] for center u would cut off integral
        # solutions here: each radius is an entry of the matrix.
        assert self.static_rows_hold_on_the_hull(self.corpus(near_symmetric_instance)) > 100

    def test_first_optimum_is_the_coverage_lp_bound(self):
        # Every query before the split is a point of the full coverage
        # polytope for the optimum's openings that sums to the total
        # coverage reach - e, and the first one sums to the coverage LP's
        # optimum.  Cuts with a1 = a2 halve the largest point total twice
        # before rounding.
        for inst, y in self.corpus():
            n = inst.n
            model = coverage_model(inst, y)
            queries = []

            def oracle(x):
                col = np.array(model.lp.getSolution().col_value)
                assert col.size == 3 * n
                cov1, cov2 = x[:n], x[n:]
                r1, r2 = reach(inst, col[:n], col[n : 2 * n])
                assert np.all(x >= -1e-9) and np.all(cov1 + cov2 <= 1.0 + 1e-9)
                assert np.all(cov1 <= r1 + 1e-9) and np.all(cov2 <= r2 + 1e-9), (inst, y)
                assert x.sum() == pytest.approx((r1 + r2 - col[2 * n :]).sum(), abs=1e-9)
                queries.append(x)
                total = cov1 + cov2
                v = int(np.argmax(total))
                if len(queries) > 2 or total[v] < 1e-6:
                    return Rounded(None)
                e = np.eye(n)[v]
                return Separating(Cut(a1=e, a2=e, b=float(total[v]) / 2.0, kind="halve"))

            res = run_round_or_cut(model, oracle)
            assert res.status == "rounded" and model.lp.getNumCol() == 3 * n
            want = linprog_coverage_lp(inst, restrict_y=y)[0]
            assert queries[0].sum() == pytest.approx(want, abs=1e-7), (inst, y)
            assert coverage_lp(inst, restrict_y=y)[0] == pytest.approx(queries[0].sum(), abs=1e-9)


def test_cut_before_the_split_is_a_row_on_x_and_e():
    # a . c with c = reach - e: the row holds sum of a over the points each
    # center covers, read from the shared sparse index, and -a on e.
    rng = np.random.default_rng(21)
    for _ in range(30):
        inst = near_symmetric_instance(rng)
        n, d = inst.n, inst.metric.dist
        a = rng.integers(-2, 4, size=n).astype(float)
        a[0] = 1.0  # never a mass cut, which is recorded but not added
        queries = []

        def oracle(x):
            queries.append(x)
            if len(queries) > 1:
                return Rounded(None)
            return Separating(Cut(a1=a, a2=a, b=float(a @ (x[:n] + x[n:])) - 0.5, kind="a"))

        model = coverage_model(inst)
        run_round_or_cut(model, oracle)
        row = dense_lp(model)[0][n + 2]
        assert np.array_equal(row, np.concatenate([(d <= inst.r1) @ a, (d <= inst.r2) @ a, -a]))


def test_cut_with_unequal_blocks_splits_once():
    # A mixed cut adds cov1 | cov2 columns once; later queries read them and
    # meet every recorded cut, the ones on c from before the split included.
    inst, _ = planted_instance(3, 3, 5, 2)
    n = inst.n
    model = coverage_model(inst, y=(0, 5, 10))
    sizes = []

    def oracle(x):
        sizes.append(model.lp.getNumCol())
        for cut in res_cuts:
            assert cut.a1 @ x[:n] + cut.a2 @ x[n:] <= cut.b + CUT_CONTRACT_EPS
        block = len(res_cuts) % 3  # total, cov1, cov2, total, ...
        part = x[:n] + x[n:] if block == 0 else x[(block - 1) * n : block * n]
        v = int(np.argmax(part))
        if len(res_cuts) == 7 or part[v] < 1e-6:
            return Rounded(None)
        e, zero = np.eye(n)[v], np.zeros(n)
        a1, a2 = (e, e) if block == 0 else (e, zero) if block == 1 else (zero, e)
        res_cuts.append(Cut(a1=a1, a2=a2, b=float(part[v]) / 2.0, kind=f"halve-{block}"))
        return Separating(res_cuts[-1])

    res_cuts = []
    res = run_round_or_cut(model, oracle)
    assert res.status == "rounded" and res.cuts == res_cuts and len(res_cuts) > 2
    assert sizes[:2] == [3 * n, 3 * n] and set(sizes[2:]) == {5 * n}
    assert model.lp.getNumRow() == (n + 2) + 3 * n + len(res_cuts)


def test_sparse_build_memory_is_linear_in_the_reach():
    # Build, one pre-split cut with a1 = a2 (a row on x and e), then a cut
    # on cov1 that forces the split, at n = 2000: every array is as long as
    # the reach pairs, where a dense 3n x 5n split block alone needs 480 MB.
    inst, _ = planted_instance(1, 20, 99, 20)
    n = inst.n
    kinds = []

    def oracle(x):
        if len(kinds) == 2:
            return Rounded(None)
        part = x[:n] if kinds else x[:n] + x[n:]
        e = np.zeros(n)
        e[int(np.argmax(part))] = 1.0
        a1, a2 = (e, np.zeros(n)) if kinds else (e, e)
        kinds.append("cov1" if kinds else "total")
        return Separating(Cut(a1=a1, a2=a2, b=float(part.max()) / 2, kind=kinds[-1]))

    tracemalloc.start()
    try:
        model = coverage_model(inst)
        res = run_round_or_cut(model, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "rounded" and [cut.kind for cut in res.cuts] == ["total", "cov1"]
    assert model.lp.getNumCol() == 5 * n
    assert peak < 64 * 2**20, peak


class CountingLP:
    """A HiGHS model that counts its solves."""

    def __init__(self, lp):
        self.lp, self.runs = lp, 0

    def run(self):
        self.runs += 1
        return self.lp.run()

    def __getattr__(self, name):
        return getattr(self.lp, name)


def test_violated_mass_cut_stops_without_a_resolve():
    # The optimum maximises the total, so a cut on it that the optimum
    # violates empties the LP: the run stops with one solve, not two, and
    # the cut is recorded but never becomes a row.
    points = [[x] for x in (0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15)]
    inst = NUkCInstance(MetricSpace.from_points(points), 1.0, 0.25, 1, 1, 7)
    mass = Separating(Cut(a1=-np.ones(7), a2=-np.ones(7), b=-7.0, kind="mass"))
    for cap, status in ((None, "infeasible"), (1, "exhausted")):
        model = coverage_model(inst)
        counted = CountingLP(model.lp)
        res = run_round_or_cut(replace(model, lp=counted), lambda x: mass, cap)
        assert (res.status, res.iterations, counted.runs) == (status, 1, 1)
        assert [cut.kind for cut in res.cuts] == ["mass"]
        assert model.lp.getNumRow() == 7 + 2


GATE_FAMILIES = {
    "kcenter_2x6+2": lambda s: planted_kcenter_instance(s, 2, 6, 2)[0],
    "kcenter_3x5+2": lambda s: planted_kcenter_instance(s, 3, 5, 2)[0],
    "planted_3x5+2": lambda s: planted_instance(s, 3, 5, 2)[0],
}


@pytest.mark.parametrize("family", list(GATE_FAMILIES))
def test_shortcut_free_planted_instances_round(family):
    # Feasible by construction; with the greedy off the driver must round.
    for seed in range(5):
        inst = GATE_FAMILIES[family](seed)
        res = solve_feasibility(inst, SolverConfig(shortcuts=False))
        assert (res.status, res.method) == ("solution", "round"), (seed, res.method)
        assert res.solution.dilation <= 10.0
        ok, count = verify_solution(inst, res.solution, res.solution.dilation)
        assert ok and count >= inst.m


def test_solver_names_the_infeasible_stop():
    # Three groups on a line, one ball of each size, target all 7 points: the
    # coverage LP falls short, so one mass cut empties it, and a cap of 1
    # stops the run before that re-solve.
    points = [[x] for x in (0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15)]
    inst = NUkCInstance(MetricSpace.from_points(points), 1.0, 0.25, 1, 1, 7)
    empty = solve_feasibility(inst, SolverConfig(shortcuts=False))
    capped = solve_feasibility(inst, SolverConfig(shortcuts=False, max_iters=1))
    assert (empty.status, empty.method, empty.iterations) == ("infeasible", "lp-empty", 1)
    assert (capped.status, capped.method, capped.iterations) == ("undecided", "cap", 1)


# Its coverage LP stays below m = 18, and dual simplex proves it before the optimum.
BOUND_STOP = uniform_instance(2, 20, 0.3, 0.1, 2, 2, 18)


def never_queried(x):
    raise AssertionError("the objective bound stops the run before any query")


def test_target_stops_at_the_bound_as_a_mass_cut_would():
    # The run records the mass cut the oracle would have returned at the
    # optimum, and a cap of 1 ends it as exhausted, as that cut would.
    for cap, status in ((None, "infeasible"), (1, "exhausted")):
        model = coverage_model(BOUND_STOP, target=BOUND_STOP.m)
        res = run_round_or_cut(model, never_queried, cap)
        assert model.lp.getModelStatus() == _highs.HighsModelStatus.kObjectiveBound
        assert (res.status, res.iterations) == (status, 1)
        [cut] = res.cuts
        assert (cut.kind, cut.b) == ("mass", -18.0)
        assert np.all(cut.a1 == -1.0) and np.all(cut.a2 == -1.0)


def test_reused_highs_object_matches_a_fresh_one(monkeypatch):
    # A released object, after a run with a target, solves a model without
    # one to the same optimum, bit for bit, as a new object: the objective
    # bound does not leak into the next run.
    monkeypatch.setattr(cutting_plane, "_FREE", [])
    model = coverage_model(BOUND_STOP, target=BOUND_STOP.m)
    assert run_round_or_cut(model, never_queried).status == "infeasible"
    used = model.lp
    release(model)
    assert (used.getNumRow(), used.getNumCol()) == (0, 0)  # the free list holds no model
    runs = []
    for _ in range(2):  # the released object, then a new one
        model = coverage_model(BOUND_STOP)
        queries = []
        res = run_round_or_cut(model, lambda x: queries.append(x) or Rounded(None))
        solution = model.lp.getSolution()
        runs.append((model.lp, res.status, queries[0], np.array(solution.col_value),
                     np.array(solution.row_dual), model.lp.getInfo().objective_function_value))
    assert runs[0][0] is used and runs[1][0] is not used
    assert used.getOptionValue("objective_bound")[1] == math.inf
    assert runs[0][1] == runs[1][1] == "rounded"
    for a, b in zip(runs[0][2:], runs[1][2:]):
        assert np.array_equal(a, b)
    assert -runs[0][-1] < BOUND_STOP.m  # the run went past the bound a target would set
    coverage_lp(BOUND_STOP)
    assert len(cutting_plane._FREE) == 1


def fraction_bound(inst, beta, y=None):
    """certificate_bound in exact rationals, with balls read from dense rows."""
    d, n = inst.metric.dist, inst.n
    b = [Fraction(float(v)) for v in beta]

    def weights(r, centers):
        return sorted((sum((b[v] for v in range(n) if d[u, v] <= r), Fraction(0)) for u in centers),
                      reverse=True)

    large = weights(inst.r1, range(n) if y is None else y)[: inst.k1]
    small = weights(inst.r2, range(n))[: inst.k2]
    return sum((1 - v for v in b), Fraction(0)) + sum(large, Fraction(0)) + sum(small, Fraction(0))


class TestCertificate:
    def test_certified_verdicts_agree_with_brute_force(self):
        # Every certificate a verdict carries is below m in exact rationals,
        # and brute force finds no solution; any dyadic beta bounds the
        # brute-force optimum from above.
        rng = np.random.default_rng(17)
        certified = 0
        for t in range(160):
            ws = random_wellsep(rng, max_n=12) if t % 2 else None
            inst, y = (ws.base, ws.y) if ws else (random_instance(rng, max_n=12), None)
            best = brute_force_nukc(inst, restrict_y=y).best_covered
            beta = rng.integers(0, 2**20 + 1, size=inst.n) * CERTIFICATE_GRID
            assert certificate_bound(inst, beta, y) == fraction_bound(inst, beta, y) >= best
            for config in (SolverConfig(), SolverConfig(shortcuts=False)):
                res = solve_wellsep(ws, config) if ws else solve_feasibility(inst, config)
                if res.certificate is None:
                    continue
                assert (res.status, res.method, [cut.kind for cut in res.cuts]) == (
                    "infeasible", "lp-empty", ["mass"])
                bound = certificate_bound(inst, res.certificate, y)
                assert bound == fraction_bound(inst, res.certificate, y) < inst.m
                assert best < inst.m
                certified += 1
        assert certified > 40

    @pytest.mark.parametrize("beta", [[0.5, 0.3], [0.5, 1.5], [0.5, -0.25], [0.5, np.nan], [0.5]])
    def test_bound_rejects_beta_off_the_grid(self, beta):
        inst = NUkCInstance(MetricSpace.from_points([[0.0], [1.0]]), 1.0, 0.5, 1, 1, 2)
        with pytest.raises(ValueError, match="multiples of 2"):
            certificate_bound(inst, np.array(beta))
