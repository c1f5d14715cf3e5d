"""Command line round trips driven in-process through main(argv)."""

import json

import pytest

from nukc import NUkCSolution, instance_from_json, verify_solution
from nukc.cli import main
from nukc.serialize import load_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_planted(tmp_path, capsys, name="inst.json", **extra):
    path = tmp_path / name
    argv = ["gen", "planted", "--seed", "4", "--clusters", "2",
            "--points-per-cluster", "3", "--outliers", "1", "-o", str(path)]
    for key, value in extra.items():
        argv += [key, str(value)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return path


class TestGen:
    def test_writes_instance_with_planted_truth(self, tmp_path, capsys):
        path = gen_planted(tmp_path, capsys)
        doc = load_json(path)
        inst = instance_from_json(doc)
        assert inst.n == 7  # 2 clusters x 3 points + 1 outlier
        assert set(doc["planted"]) == {"centers1", "centers2", "outliers", "cluster_of"}

    def test_stdout_by_default(self, capsys):
        code, out, _ = run(capsys, "gen", "uniform", "--n", "5", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 5

    def test_kcenter_truth_covers_strays(self, tmp_path, capsys):
        path = tmp_path / "kc.json"
        code, _, _ = run(capsys, "gen", "kcenter", "--seed", "2", "--clusters", "2",
                         "--points-per-cluster", "4", "--outliers", "2",
                         "-o", str(path))
        assert code == 0
        doc = load_json(path)
        assert doc["r2"] == 0.0
        assert doc["planted"]["centers2"] == doc["planted"]["outliers"]


class TestSolve:
    def test_solution_exit_and_schema(self, tmp_path, capsys):
        path = gen_planted(tmp_path, capsys)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "solution"
        assert doc["dilation"] <= 10.0
        inst = instance_from_json(load_json(path))
        sol = NUkCSolution(
            centers1=tuple(doc["centers1"]),
            centers2=tuple(doc["centers2"]),
            dilation=doc["dilation"],
        )
        ok, count = verify_solution(inst, sol, doc["dilation"])
        assert ok and count == doc["covered_count"]

    def test_infeasible_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "points": [[0.0], [9.0]], "r1": 1.0, "r2": 0.5,
            "k1": 0, "k2": 0, "m": 1,
        }))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 2
        assert json.loads(out) == {"status": "infeasible"}

    def test_rho_reports_original_units(self, tmp_path, capsys):
        path = gen_planted(tmp_path, capsys)
        code, out, _ = run(capsys, "solve", str(path), "--rho", "2.0")
        assert code == 0
        doc = json.loads(out)
        inst = instance_from_json(load_json(path))
        sol = NUkCSolution(
            centers1=tuple(doc["centers1"]),
            centers2=tuple(doc["centers2"]),
            dilation=doc["dilation"],
        )
        ok, _ = verify_solution(inst, sol, doc["dilation"])
        assert ok  # dilation is relative to the file's radii, not the scaled ones

    def test_optimize_adds_rho_star(self, tmp_path, capsys):
        path = gen_planted(tmp_path, capsys)
        code, out, _ = run(capsys, "solve", str(path), "--optimize")
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["rho_star"] <= 1.0
        inst = instance_from_json(load_json(path))
        sol = NUkCSolution(
            centers1=tuple(doc["centers1"]),
            centers2=tuple(doc["centers2"]),
            dilation=doc["dilation"],
        )
        ok, _ = verify_solution(inst, sol, doc["dilation"])
        assert ok

    def test_trace_goes_to_stderr(self, tmp_path, capsys):
        path = gen_planted(tmp_path, capsys)
        code, out, err = run(capsys, "solve", str(path), "--trace")
        assert code == 0
        assert "trace:" in err
        json.loads(out)  # stdout stays machine readable

    def test_engine_trace_is_two_lines(self, tmp_path, capsys):
        # The trace is a summary line and one per-kind cut count, not a line
        # per oracle call.  The driver starts from the coverage LP, so small
        # instances take at most one cut: this one's LP falls short of m = 7,
        # and one mass cut empties it.
        path = tmp_path / "line7.json"
        path.write_text(json.dumps({
            "points": [[0.0], [0.6], [0.9], [20.0], [20.2], [40.0], [40.15]],
            "r1": 1.0, "r2": 0.25, "k1": 1, "k2": 1, "m": 7,
        }))
        code, out, err = run(capsys, "solve", str(path), "--no-shortcuts", "--trace")
        assert code == 2 and json.loads(out)["status"] == "infeasible"
        lines = err.splitlines()
        assert len(lines) == 2 and all(line.startswith("trace: ") for line in lines)
        summary = dict(field.split("=") for field in lines[0].split()[1:])
        assert summary == {"method": "lp-empty", "case": "-", "iterations": "1", "cuts": "1"}
        prefix = "trace: cuts by kind: "
        assert lines[1].startswith(prefix)
        kinds = dict(field.split("=") for field in lines[1][len(prefix):].split())
        assert kinds == {"mass": "1"}
        assert sum(int(count) for count in kinds.values()) == int(summary["cuts"])

    def test_no_shortcuts_agrees(self, tmp_path, capsys):
        # k1 + k2 < m dodges the trivial route; the slack (4 coverable vs
        # m = 3) keeps the driver run short.
        path = tmp_path / "slack.json"
        path.write_text(json.dumps({
            "points": [[0.0], [0.2], [9.0], [9.2]], "r1": 1.0, "r2": 0.3,
            "k1": 1, "k2": 1, "m": 3,
        }))
        code, out, _ = run(capsys, "solve", str(path), "--no-shortcuts")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "solution"
        assert doc["covered_count"] >= 3

    def test_output_file(self, tmp_path, capsys):
        path = gen_planted(tmp_path, capsys)
        out_path = tmp_path / "sol.json"
        code, out, _ = run(capsys, "solve", str(path), "-o", str(out_path))
        assert code == 0
        assert out == ""
        assert load_json(out_path)["status"] == "solution"


class TestCheck:
    def solved(self, tmp_path, capsys):
        inst_path = gen_planted(tmp_path, capsys)
        sol_path = tmp_path / "sol.json"
        code, _, _ = run(capsys, "solve", str(inst_path), "-o", str(sol_path))
        assert code == 0
        return inst_path, sol_path

    def test_valid_solution(self, tmp_path, capsys):
        inst_path, sol_path = self.solved(tmp_path, capsys)
        code, out, _ = run(capsys, "check", str(inst_path), str(sol_path))
        assert code == 0
        assert out.startswith("valid")

    def test_wrong_count_rejected(self, tmp_path, capsys):
        inst_path, sol_path = self.solved(tmp_path, capsys)
        doc = load_json(sol_path)
        doc["covered_count"] += 1
        sol_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(inst_path), str(sol_path))
        assert code == 2
        assert "claimed covered_count" in out

    def test_undercovering_rejected(self, tmp_path, capsys):
        inst_path, sol_path = self.solved(tmp_path, capsys)
        doc = load_json(sol_path)
        doc["centers1"] = []
        doc["centers2"] = []
        doc["covered_count"] = 0
        sol_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(inst_path), str(sol_path))
        assert code == 2
        assert out.startswith("invalid")

    def test_infeasible_claim_passes_vacuously(self, tmp_path, capsys):
        inst_path, _ = self.solved(tmp_path, capsys)
        claim = tmp_path / "claim.json"
        claim.write_text(json.dumps({"status": "infeasible"}))
        code, out, _ = run(capsys, "check", str(inst_path), str(claim))
        assert code == 0
        assert "nothing to verify" in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/inst.json")
        assert code == 1
        assert "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "error:" in err

    def test_invalid_instance_document(self, tmp_path, capsys):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"points": [[0.0], [1.0]], "r1": 1.0}))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("doc", [
        {"status": "solution", "dilation": 1.0},
        {"status": "solution", "dilation": 1.0, "centers1": 5, "centers2": [],
         "covered_count": 0},
    ])
    def test_malformed_solution_document(self, tmp_path, capsys, doc):
        inst_path = gen_planted(tmp_path, capsys)
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(inst_path), str(sol_path))
        assert code == 1
        assert "error:" in err and "centers1" in err

    def test_null_instance_parameter(self, tmp_path, capsys):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({
            "points": [[0.0], [1.0]], "r1": 1.0, "r2": 0.5,
            "k1": None, "k2": 1, "m": 1,
        }))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "error:" in err and "k1" in err

    @pytest.mark.parametrize("key, value", [("m", 2.9), ("k1", True)])
    def test_non_integer_instance_count(self, tmp_path, capsys, key, value):
        # Truncated, k1 = 1.9 and m = 2.9 would be solved as 1 and 2.
        doc = {"points": [[0.0], [0.3], [5.0]], "r1": 0.5, "r2": 0.25,
               "k1": 1, "k2": 1, "m": 2}
        doc[key] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (1, "")
        assert "error:" in err and f"'{key}'" in err

    @pytest.mark.parametrize("key, value", [("r1", "0.5"), ("r2", float("nan"))])
    def test_non_number_instance_radius(self, tmp_path, capsys, key, value):
        doc = {"points": [[0.0], [0.3], [5.0]], "r1": 0.5, "r2": 0.25,
               "k1": 1, "k2": 1, "m": 2}
        doc[key] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (1, "")
        assert "error:" in err and f"'{key}'" in err

    @pytest.mark.parametrize("value", [float("inf"), True])
    def test_non_finite_dilation(self, tmp_path, capsys, value):
        # With Infinity every ball covers everything, and the check passed.
        inst_path = gen_planted(tmp_path, capsys)
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps({
            "status": "solution", "dilation": value, "centers1": [0],
            "centers2": [], "covered_count": 1,
        }))
        code, out, err = run(capsys, "check", str(inst_path), str(sol_path))
        assert (code, out) == (1, "")
        assert "error:" in err and "'dilation'" in err

    def test_non_integer_center_index(self, tmp_path, capsys):
        inst_path = gen_planted(tmp_path, capsys)
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(json.dumps({
            "status": "solution", "dilation": 1.0, "centers1": [0.6],
            "centers2": [], "covered_count": 1,
        }))
        code, out, err = run(capsys, "check", str(inst_path), str(sol_path))
        assert (code, out) == (1, "")
        assert "error:" in err and "'centers1'" in err

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bench_is_unknown_command(self, capsys):
        # Timing lives in perfbench/, not in the CLI.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--count", "2"])
        assert exc.value.code == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--bogus", "x"],
        ["solve"],
    ])
    def test_usage_error_exits_1_not_infeasible(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_iters_below_1_is_not_infeasible(self, tmp_path, capsys, cap):
        # A cap below 1 would end the engine before its first oracle call.
        path = gen_planted(tmp_path, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--no-shortcuts", "--max-iters", cap])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert "infeasible" not in out
        assert "--max-iters" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
