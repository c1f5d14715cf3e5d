"""Workloads, verdict checker and measurement loop of the nukc benchmark.

``run.py`` is the command; this module holds everything it runs so that the
smoke test can drive the same code at tiny sizes.  See README.md for why each
workload exists and what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from nukc import generators, outer
from nukc.model import NUkCInstance
from nukc.wellsep import SolverConfig
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "out"

# Set-up is repeated (at least this often and for at least this long) and its
# median reported, so that one slow repetition on a shared machine does not
# read as set-up work added by a change.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

# The solver's dilation guarantee, and the slack the recount allows so that a
# point exactly on a dilated radius is not lost to float rounding.
MAX_DILATION = 10.0
RADIUS_RTOL = 1e-9

# Faults of a returned SOLUTION, as opposed to a missing or refused one.
UNSOUND = ("over-budget", "dilation", "bad-index", "coverage")


@dataclass(frozen=True)
class Family:
    """``count`` instances from one generator; ``planted`` ones are feasible.

    ``entry`` is the entry point that decides them: "solve"
    (solve_feasibility) or "optimize".
    """

    name: str
    make: Callable[[int], NUkCInstance]
    count: int
    planted: bool
    entry: str = "solve"


@dataclass(frozen=True)
class Workload:
    name: str
    config: SolverConfig
    families: tuple[Family, ...]
    tiny: tuple[Family, ...]  # smoke-test sizes, same entry points and config


def _planted(clusters, per_cluster, outliers):
    return lambda s: generators.planted_instance(s, clusters, per_cluster, outliers)[0]


def _kcenter(clusters, per_cluster, outliers):
    return lambda s: generators.planted_kcenter_instance(s, clusters, per_cluster, outliers)[0]


def _uniform(n, r1, r2, k1, k2):
    return lambda s: generators.uniform_instance(s, n, r1, r2, k1, k2)


def _graph(n, k1, k2):
    return lambda s: generators.graph_instance(s, n, k1, k2)


# default_config uses metrics of n = 60: the n x n x n array that metric
# validation builds then fits one core's L2, so a run's time drifts less with
# load on a shared host.  Batches are sized to fill a 50 s run.  README.md
# gives the measurements.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default_config", SolverConfig(),
            (
                Family("planted_6x9+6", _planted(6, 9, 6), 840, True),
                Family("uniform_60_k2", _uniform(60, 0.2, 0.08, 2, 2), 80, False, "optimize"),
                Family("graph_60_k2", _graph(60, 2, 2), 80, False, "optimize"),
            ),
            (
                Family("planted_3x5+2", _planted(3, 5, 2), 1, True),
                Family("uniform_20_k2", _uniform(20, 0.3, 0.1, 2, 2), 1, False, "optimize"),
                Family("graph_20_k2", _graph(20, 2, 2), 1, False, "optimize"),
            ),
        ),
        Workload(
            "engine_noshortcuts", SolverConfig(shortcuts=False),
            (
                Family("uniform_100_k4", _uniform(100, 0.15, 0.05, 4, 4), 6, False),
                Family("planted_3x5+2", _planted(3, 5, 2), 10, True),
                Family("kcenter_2x6+2", _kcenter(2, 6, 2), 5, True),
                Family("kcenter_3x5+2", _kcenter(3, 5, 2), 5, True),
            ),
            (
                Family("uniform_30_k4", _uniform(30, 0.25, 0.1, 4, 4), 1, False),
                Family("uniform_20_k2", _uniform(20, 0.3, 0.1, 2, 2), 1, False),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Case:
    family: Family
    gen_seed: int
    instance: NUkCInstance


def build_cases(workload: Workload, seed: int, tiny: bool = False) -> list[Case]:
    """The run's instances: generator seeds drawn from ``seed``, family by family."""
    rng = np.random.default_rng(seed)
    cases = []
    for fam in workload.tiny if tiny else workload.families:
        for gen_seed in rng.integers(0, 2**31, size=fam.count).tolist():
            cases.append(Case(fam, gen_seed, fam.make(gen_seed)))
    return cases


def _solution_fault(inst: NUkCInstance, sol, max_dilation: float) -> str | None:
    """Why ``sol`` is not a valid answer, recounted from the distances; None if valid."""
    if len(sol.centers1) > inst.k1 or len(sol.centers2) > inst.k2:
        return "over-budget"
    if sol.dilation > max_dilation * (1 + RADIUS_RTOL):
        return "dilation"
    if any(not 0 <= c < inst.n for c in sol.centers1 + sol.centers2):
        return "bad-index"
    d = inst.metric.dist
    slack = sol.dilation * (1 + RADIUS_RTOL)
    covered = np.zeros(inst.n, dtype=bool)
    for centers, r in ((sol.centers1, inst.r1), (sol.centers2, inst.r2)):
        covered |= (d[list(centers)] <= slack * r).any(axis=0)
    if int(covered.sum()) < inst.m:
        return "coverage"
    return None


def check_verdict(case: Case, entry: str, result) -> str | None:
    """The benchmark's own check of one entry-point result; None when it holds.

    A SOLUTION must be in budget, at dilation <= 10 (10 * rho_star for
    optimize) and cover m points by a recount from the distance matrix.
    INFEASIBLE is wrong on a planted instance, which is feasible by
    construction.  Every generated instance is feasible at some scale, so
    optimize must return a solution.
    """
    inst = case.instance
    if entry == "optimize":
        if result.solution is None:
            return "no-solution"
        return _solution_fault(inst, result.solution, MAX_DILATION * result.rho_star)
    if result.status == "solution":
        return _solution_fault(inst, result.solution, MAX_DILATION)
    if result.status == "infeasible":
        return "infeasible-on-planted" if case.family.planted else None
    return f"status-{result.status}"


@dataclass
class Outcome:
    """One entry-point call: its wall time and what came back."""

    seconds: float
    verdict: str = ""  # status/method/case, or the exception type
    error: str = ""
    wrong: str = ""


def call_entry(workload: Workload, case: Case) -> Outcome:
    entry = case.family.entry
    fn = outer.optimize if entry == "optimize" else outer.solve_feasibility
    t0 = perf_counter()
    try:
        result = fn(case.instance, workload.config)
    except Exception as exc:  # a raised call is a counted failure, not a crash
        return Outcome(perf_counter() - t0, type(exc).__name__, error=type(exc).__name__)
    seconds = perf_counter() - t0
    if entry == "optimize":
        verdict = "solution" if result.solution is not None else "none"
    else:
        verdict = "/".join(v for v in (result.status, result.method, result.case) if v)
    return Outcome(seconds, verdict, wrong=check_verdict(case, entry, result) or "")


def warm_up(workload: Workload) -> None:
    """Load HiGHS and first-call state before timing, off the clock."""
    outer.optimize(generators.uniform_instance(0, 20, 0.3, 0.1, 2, 2), SolverConfig())
    call_entry(workload, build_cases(workload, 0, tiny=True)[0])


def run_rounds(workload: Workload, cases: list[Case], seconds: float) -> list[list[Outcome]]:
    """Decide the whole batch once, then again while another round fits in ``seconds``."""
    rounds: list[list[Outcome]] = []
    t0 = perf_counter()
    while True:
        start = perf_counter()
        rounds.append([call_entry(workload, c) for c in cases])
        last = perf_counter() - start
        if perf_counter() - t0 + last > seconds:
            return rounds


@dataclass
class Tally:
    """Verdict accounting over every call of a run."""

    attempted: int = 0
    errors: int = 0
    wrong: int = 0
    unsound: int = 0  # SOLUTIONs that failed the recount
    mix: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def add(self, cases: list[Case], outcomes: list[Outcome]) -> None:
        for case, out in zip(cases, outcomes):
            self.attempted += 1
            self.errors += bool(out.error)
            self.wrong += bool(out.wrong)
            self.unsound += out.wrong in UNSOUND
            self.mix.setdefault(case.family.name, Counter())[out.verdict] += 1
            if out.error or out.wrong:
                fault = {"family": case.family.name, "gen_seed": case.gen_seed,
                         "error": out.error, "wrong": out.wrong}
                if fault not in self.failures:
                    self.failures.append(fault)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "nukc").glob("*.py"))


def end_to_end(setup: list[float], rounds: list[list[Outcome]]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.median(sum(o.seconds for o in r) for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def call_times(cases: list[Case], rounds: list[list[Outcome]]) -> dict:
    """Slowest single call and mean seconds per call of each family (ungated)."""
    per_family: dict[str, list[float]] = {}
    for outcomes in rounds:
        for case, out in zip(cases, outcomes):
            per_family.setdefault(case.family.name, []).append(out.seconds)
    return {
        "instance_s_max": max(max(t) for t in per_family.values()),
        "family_mean_s": {fam: statistics.fmean(t) for fam, t in per_family.items()},
    }


def traced_pass(workload: Workload, cases: list[Case], trace_file: Path) -> tuple[dict, list[Outcome]]:
    tracer = Tracer()
    outcomes = []
    with tracer.installed():
        for op, case in enumerate(cases):
            with tracer.operation(op):
                outcomes.append(call_entry(workload, case))
    tracer.write(trace_file)
    return layer_metrics(tracer), outcomes


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name]
    setup = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        t0 = perf_counter()
        cases = build_cases(workload, seed, tiny)
        setup.append(perf_counter() - t0)
    warm_up(workload)

    tally = Tally()
    detail = {"workload": workload_name, "seed": seed, "calls_per_round": len(cases)}
    if trace:
        untraced = [call_entry(workload, c) for c in cases]
        trace_file = TRACE_DIR / f"trace-{workload_name}-{seed}.csv.gz"
        metrics, traced = traced_pass(workload, cases, trace_file)
        for outcomes in (untraced, traced):
            tally.add(cases, outcomes)
        base = sum(o.seconds for o in untraced)
        metrics["trace.untraced_solve_s"] = base
        metrics["trace.solve_s"] = sum(o.seconds for o in traced)
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - base
        detail["trace_file"] = os.path.relpath(trace_file, ROOT)
        units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("_ratio") else "count")
                 for k in metrics}
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        rounds = run_rounds(workload, cases, seconds)
        for outcomes in rounds:
            tally.add(cases, outcomes)
        detail["rounds"] = len(rounds)
        detail["solve_s_rounds"] = [sum(o.seconds for o in r) for r in rounds]
        detail.update(call_times(cases, rounds))
        out_metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end(setup, rounds).items()}

    detail.update(
        error_ratio=tally.errors / tally.attempted,
        wrong_ratio=tally.wrong / tally.attempted,
        mix={fam: dict(c) for fam, c in tally.mix.items()},
        failures=tally.failures,
        src_nukc_lines=src_lines(),
    )
    return {
        "detail": detail,
        "result": {
            # A false INFEASIBLE or a raised call is a failed operation; an
            # unsound SOLUTION, which the solver claims to have verified, is
            # wrong output.
            "correct": tally.unsound == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": out_metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0
