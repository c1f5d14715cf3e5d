"""JSON round trips for instances and solutions, plus input validation."""

import json

import numpy as np
import pytest

from nukc import (
    NUkCSolution,
    SolveResult,
    graph_instance,
    instance_from_json,
    instance_to_json,
    solution_from_json,
    uniform_instance,
)
from nukc.serialize import dump_json, load_json


class TestInstanceRoundTrip:
    def test_point_instance_exact(self):
        inst = uniform_instance(8, n=7, r1=0.3, r2=0.1, k1=2, k2=1)
        back = instance_from_json(instance_to_json(inst))
        assert np.array_equal(back.metric.dist, inst.metric.dist)
        assert (back.r1, back.r2, back.k1, back.k2, back.m) == (
            inst.r1,
            inst.r2,
            inst.k1,
            inst.k2,
            inst.m,
        )

    def test_matrix_instance_exact(self):
        inst = graph_instance(8, n=6, k1=1, k2=1)
        doc = instance_to_json(inst)
        assert "distance_matrix" in doc and "points" not in doc
        back = instance_from_json(doc)
        assert np.array_equal(back.metric.dist, inst.metric.dist)

    def test_survives_json_text(self, tmp_path):
        inst = uniform_instance(3, n=5, r1=0.5, r2=0.2, k1=1, k2=1)
        path = tmp_path / "inst.json"
        dump_json(instance_to_json(inst), path)
        back = instance_from_json(load_json(path))
        assert np.array_equal(back.metric.dist, inst.metric.dist)

    def test_extra_keys_ignored(self):
        doc = instance_to_json(uniform_instance(1, n=4, r1=0.5, r2=0.2, k1=1, k2=1))
        doc["generator"] = {"kind": "uniform", "seed": 1}
        inst = instance_from_json(doc)
        assert inst.n == 4


class TestInstanceValidation:
    def base(self):
        return {"r1": 1.0, "r2": 0.5, "k1": 1, "k2": 1, "m": 2}

    def test_points_and_matrix_exclusive(self):
        doc = self.base()
        doc["points"] = [[0.0], [1.0]]
        doc["distance_matrix"] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match="exactly one"):
            instance_from_json(doc)

    def test_neither_geometry_key(self):
        with pytest.raises(ValueError, match="exactly one"):
            instance_from_json(self.base())

    def test_missing_parameter_named(self):
        doc = self.base()
        doc["points"] = [[0.0], [1.0]]
        del doc["k2"]
        with pytest.raises(ValueError, match="k2"):
            instance_from_json(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json([1, 2, 3])

    def test_flat_points_rejected(self):
        doc = self.base()
        doc["points"] = [0.0, 1.0]
        with pytest.raises(ValueError, match="coordinate rows"):
            instance_from_json(doc)

    def test_null_parameter_named(self):
        doc = self.base()
        doc["points"] = [[0.0], [1.0]]
        doc["k1"] = None
        with pytest.raises(ValueError, match="'k1'"):
            instance_from_json(doc)

    @pytest.mark.parametrize("key, value", [
        ("k1", 1.9), ("m", 2.9), ("k2", 0.5), ("k1", True), ("m", False), ("m", "2"),
    ])
    def test_non_integer_count_named(self, key, value):
        # int() would read 1.9 as 1 and true as 1, and solve another instance.
        doc = self.base()
        doc["points"] = [[0.0], [1.0]]
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            instance_from_json(doc)

    @pytest.mark.parametrize("key, value", [
        ("r1", True), ("r2", "0.5"), ("r1", float("inf")), ("r2", float("nan")),
    ])
    def test_non_number_radius_named(self, key, value):
        # float() would read true as 1.0 and "0.5" as 0.5; inf and nan are
        # no radius.
        doc = self.base()
        doc["points"] = [[0.0], [1.0]]
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            instance_from_json(json.loads(json.dumps(doc)))

    def test_integral_float_count_accepted(self):
        doc = self.base()
        doc["points"] = [[0.0], [1.0]]
        doc["m"] = 2.0
        assert instance_from_json(doc).m == 2


class TestSolutionRoundTrip:
    def test_solution_exact(self):
        rec = SolveResult(
            status="solution",
            solution=NUkCSolution(centers1=(0, 3), centers2=(5,), dilation=4.0),
            covered_count=9,
        )
        back = solution_from_json(rec.to_json())
        assert back == rec

    def test_infeasible(self):
        doc = SolveResult(status="infeasible").to_json()
        assert doc == {"status": "infeasible"}
        assert solution_from_json(doc).status == "infeasible"

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown status"):
            solution_from_json({"status": "maybe"})

    def test_missing_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            solution_from_json({"dilation": 1.0})

    def test_missing_key_named(self):
        with pytest.raises(ValueError, match="centers1"):
            solution_from_json({"status": "solution", "dilation": 1.0})

    def test_malformed_centers_named(self):
        doc = {"status": "solution", "dilation": 1.0, "centers1": 5,
               "centers2": [], "covered_count": 0}
        with pytest.raises(ValueError, match="'centers1'"):
            solution_from_json(doc)

    @pytest.mark.parametrize("key, value", [
        ("centers1", [0.6]), ("centers2", [True]), ("covered_count", 2.5),
        ("covered_count", True),
    ])
    def test_non_integer_index_or_count_named(self, key, value):
        doc = {"status": "solution", "dilation": 1.0, "centers1": [0],
               "centers2": [], "covered_count": 2}
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}'"):
            solution_from_json(doc)

    @pytest.mark.parametrize("value", [True, "4.0", float("inf"), float("-inf"), float("nan")])
    def test_non_finite_dilation_named(self, value):
        doc = {"status": "solution", "dilation": value, "centers1": [0],
               "centers2": [], "covered_count": 2}
        with pytest.raises(ValueError, match="'dilation'"):
            solution_from_json(json.loads(json.dumps(doc)))

    def test_integer_dilation_accepted(self):
        doc = {"status": "solution", "dilation": 4, "centers1": [0],
               "centers2": [], "covered_count": 2}
        assert solution_from_json(doc).solution.dilation == 4.0

    def test_encoding_bad_record_rejected(self):
        with pytest.raises(ValueError):
            SolveResult(status="solution", solution=None).to_json()


class TestDumpJson:
    def test_stdout_dash(self, capsys):
        dump_json({"a": 1}, "-")
        assert json.loads(capsys.readouterr().out) == {"a": 1}

    def test_file_gets_trailing_newline(self, tmp_path):
        path = tmp_path / "out.json"
        dump_json([1, 2], path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == [1, 2]
