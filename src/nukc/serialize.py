"""JSON encoding of instances and solutions.

Instance objects carry either "points" (rows of coordinates, Euclidean metric)
or an explicit "distance_matrix", never both, plus r1, r2, k1, k2, m.  Unknown
keys are ignored on input so files can carry provenance such as generator
metadata.  Solution objects always carry "status"; a solution additionally has
"dilation", "centers1", "centers2", and "covered_count".  They are written by
``SolveResult.to_json`` and read back by :func:`solution_from_json`; a missing
or malformed key raises ValueError naming it; integer fields and center
indices must be JSON integers (a float such as 2.0 passes, 2.5 and true do
not), and the radii and the dilation finite JSON numbers (true, "0.5",
Infinity and NaN do not pass).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .model import MetricSpace, NUkCInstance, NUkCSolution, SolveResult

INSTANCE_KEYS = ("r1", "r2", "k1", "k2", "m")
SOLUTION_KEYS = ("dilation", "centers1", "centers2", "covered_count")


def _require(data: dict[str, Any], keys: tuple[str, ...], what: str) -> None:
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} JSON missing keys: {', '.join(missing)}")


def _read(data: dict[str, Any], key: str, convert: Callable[[Any], Any]) -> Any:
    """``convert(data[key])``, failing with a ValueError that names the key."""
    try:
        return convert(data[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {key!r}: {data[key]!r} ({exc})") from None


def _integer(value: Any) -> int:
    """A JSON integer; ``int()`` would truncate 1.9 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise TypeError("expected an integer")
    return int(value)


def _real(value: Any) -> float:
    """A finite JSON number; ``float()`` would read true, "0.5" and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError("expected a finite number")
    return float(value)


def _indices(value: Any) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError("expected a list of point indices")
    return tuple(_integer(v) for v in value)


def instance_to_json(instance: NUkCInstance) -> dict[str, Any]:
    data: dict[str, Any] = {}
    if instance.metric.coords is not None:
        data["points"] = [[float(x) for x in row] for row in instance.metric.coords]
    else:
        data["distance_matrix"] = [
            [float(x) for x in row] for row in instance.metric.dist
        ]
    data["r1"] = float(instance.r1)
    data["r2"] = float(instance.r2)
    data["k1"] = int(instance.k1)
    data["k2"] = int(instance.k2)
    data["m"] = int(instance.m)
    return data


def instance_from_json(data: dict[str, Any]) -> NUkCInstance:
    if not isinstance(data, dict):
        raise ValueError("instance JSON must be an object")
    has_points = "points" in data
    has_matrix = "distance_matrix" in data
    if has_points == has_matrix:
        raise ValueError("instance needs exactly one of 'points' or 'distance_matrix'")
    _require(data, INSTANCE_KEYS, "instance")
    if has_points:
        points = np.asarray(data["points"], dtype=float)
        if points.ndim != 2:
            raise ValueError("'points' must be a list of coordinate rows")
        metric = MetricSpace.from_points(points)
    else:
        metric = MetricSpace.from_matrix(np.asarray(data["distance_matrix"], dtype=float))
    return NUkCInstance(
        metric=metric,
        r1=_read(data, "r1", _real),
        r2=_read(data, "r2", _real),
        k1=_read(data, "k1", _integer),
        k2=_read(data, "k2", _integer),
        m=_read(data, "m", _integer),
    )


def solution_from_json(data: dict[str, Any]) -> SolveResult:
    """Parse a solution file; the inverse of ``SolveResult.to_json``."""
    if not isinstance(data, dict) or "status" not in data:
        raise ValueError("solution JSON must be an object with a 'status'")
    status = data["status"]
    if status == "infeasible":
        return SolveResult("infeasible")
    if status != "solution":
        raise ValueError(f"unknown status {status!r}")
    _require(data, SOLUTION_KEYS, "solution")
    solution = NUkCSolution(
        centers1=_read(data, "centers1", _indices),
        centers2=_read(data, "centers2", _indices),
        dilation=_read(data, "dilation", _real),
    )
    return SolveResult("solution", solution, _read(data, "covered_count", _integer))


def load_json(path: str | Path) -> Any:
    with open(path) as handle:
        return json.load(handle)


def dump_json(data: Any, path: str | Path | None) -> None:
    """Write to the path, or stdout when the path is None or '-'."""
    text = json.dumps(data, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")
