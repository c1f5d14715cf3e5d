"""Smoke test of the benchmark: tiny runs of every workload and the verdict checker.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from nukc import generators  # noqa: E402
from nukc.model import NUkCSolution  # noqa: E402
from nukc.outer import OptimizeResult, SolveResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_declared_metric(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "TRACE_DIR", tmp_path)
    result = bench.run(workload, seed=3, seconds=0.0, trace=trace, tiny=True)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        assert list(tmp_path.glob("trace-*.csv.gz"))
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    wl = bench.WORKLOADS["default_config"]
    a, b = bench.build_cases(wl, 5, tiny=True), bench.build_cases(wl, 5, tiny=True)
    assert [(c.gen_seed, c.instance) for c in a] == [(c.gen_seed, c.instance) for c in b]


def _planted_case():
    inst, truth = generators.planted_instance(0)
    fam = bench.Family("planted", lambda s: inst, 1, True)
    return bench.Case(fam, 0, inst), truth


def test_checker_accepts_the_planted_truth():
    case, truth = _planted_case()
    sol = NUkCSolution(truth.centers1, truth.centers2, 1.0)
    assert bench.check_verdict(case, "solve", SolveResult("solution", sol)) is None


def test_checker_flags_wrong_solutions():
    case, truth = _planted_case()
    short = NUkCSolution(truth.centers1[:1], (), 1.0)
    over = NUkCSolution(truth.centers1 * 2, truth.centers2, 1.0)
    wide = NUkCSolution(truth.centers1, truth.centers2, 11.0)
    assert bench.check_verdict(case, "solve", SolveResult("solution", short)) == "coverage"
    assert bench.check_verdict(case, "solve", SolveResult("solution", over)) == "over-budget"
    assert bench.check_verdict(case, "solve", SolveResult("solution", wide)) == "dilation"
    scaled = OptimizeResult(1.0, NUkCSolution(truth.centers1, truth.centers2, 10.5))
    assert bench.check_verdict(case, "optimize", scaled) == "dilation"
    assert bench.check_verdict(case, "optimize", OptimizeResult(float("inf"), None)) == "no-solution"


def test_checker_flags_infeasible_on_planted():
    case, _ = _planted_case()
    assert bench.check_verdict(case, "solve", SolveResult("infeasible")) == "infeasible-on-planted"
    free = bench.Case(bench.Family("u", None, 1, False), 0, case.instance)
    assert bench.check_verdict(free, "solve", SolveResult("infeasible")) is None


def test_tally_counts_failures_and_unsound_solutions():
    case, _ = _planted_case()
    tally = bench.Tally()
    tally.add([case] * 3, [
        bench.Outcome(0.1, "EllipsoidNumericsError", error="EllipsoidNumericsError"),
        bench.Outcome(0.1, "infeasible/cap", wrong="infeasible-on-planted"),
        bench.Outcome(0.1, "solution/round/II", wrong="coverage"),
    ])
    assert (tally.attempted, tally.errors, tally.wrong, tally.failed, tally.unsound) == (3, 1, 2, 3, 1)


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "default_config",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
