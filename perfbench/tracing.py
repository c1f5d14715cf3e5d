"""Spans and counters recorded from outside the solver, by wrapping its calls.

The solver has no tracing of its own, so a traced run patches the public
functions the pipeline calls.  A function imported into another module with
``from .x import f`` is a separate name there; it is patched in every module
that calls it, or the calls made through that name are missed.

Each call made while an operation is open records one span: name, start, end
(``perf_counter_ns``), the enclosing span and the operation id.  A span's self
time is its duration minus the time its child spans cover; the per-layer
times are sums of self time, so they add up to the traced solve time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from nukc import ellipsoid, model, outer, reduction, wellsep
from nukc.ellipsoid import Rounded, Separating

CUT_KINDS = (
    "box-cov1", "box-cov2", "box-total", "mass", "root-budget", "leaf-budget",
    "candidates", "y-support", "tree-weight",
)


def _count_greedy(counts, args, result):
    counts["presolve.greedy_hits"] += result is not None


def _count_lp(counts, args, result):
    # Same threshold the solvers use to answer INFEASIBLE from the LP bound.
    counts["presolve.lp_bound_hits"] += result[0] < args[0].m - 1e-6


def _count_wellsep(counts, args, result):
    counts["wellsep.solutions"] += result.status == "solution"


def _count_candidates(counts, args, result):
    counts["outer.candidates"] += len(result)


def _count_outer_case(counts, args, result):
    if isinstance(result, Rounded):
        counts["outer.case1" if result.payload[1]["case"] == "I" else "outer.case2"] += 1
    elif result.cut is not None and result.cut.kind == "candidates":
        counts["outer.case2"] += 1


class Tracer:
    """In-memory span store plus counters; patches are live only inside ``installed``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span named ``name`` while an operation is open."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            stack.append(sid)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _engine(self, fn):
        """run_round_or_cut, counting every cut its oracle hands the engine."""
        counts = self.counts

        def run_round_or_cut(dim, oracle, config=None):
            def counted(x):
                verdict = oracle(x)
                if isinstance(verdict, Separating):
                    kind = verdict.cut.kind if verdict.cut is not None else "raw"
                    counts[f"ellipsoid.cuts.{kind}"] += 1
                return verdict
            return fn(dim, counted, config)

        return self.wrap("ellipsoid.run_round_or_cut", run_round_or_cut)

    @contextlib.contextmanager
    def installed(self):
        """Patch the solver's call sites for the duration of the block."""
        targets = [
            (model.MetricSpace, "__post_init__", "model.metric", None),
            (model.MetricSpace, "restrict", "model.restrict", None),
            (outer, "solve_feasibility", "outer.solve_feasibility", None),
            (outer, "optimize", "outer.optimize", None),
            (outer, "enumerate_candidates", "outer.enumerate_candidates", _count_candidates),
            (outer.OuterOracle, "__call__", "outer.oracle", _count_outer_case),
            (wellsep, "wellsep_separation_oracle", "wellsep.oracle", None),
            (ellipsoid, "ellipsoid_update", "ellipsoid.update", None),
            (reduction, "hs_partition", "clustering.hs_partition", None),
        ]
        for mod in (outer, wellsep):
            targets += [
                (mod, "greedy_cover", "presolve.greedy_cover", _count_greedy),
                (mod, "coverage_lp", "presolve.coverage_lp", _count_lp),
                (mod, "reduce_to_firefighter", "reduction.reduce_to_firefighter", None),
                (mod, "solve_2ff", "firefighter.solve_2ff", None),
            ]
        targets.append((outer, "solve_wellsep", "wellsep.solve_wellsep", _count_wellsep))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        saved += [(mod, "run_round_or_cut", mod.run_round_or_cut) for mod in (outer, wellsep)]
        try:
            for owner, attr, name, count in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            for mod in (outer, wellsep):
                mod.run_round_or_cut = self._engine(mod.run_round_or_cut)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Record spans under ``op_id`` for the duration of the block."""
        self.current_op = op_id
        try:
            yield
        finally:
            self.current_op = -1
            self._stack.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self time in seconds, number of spans)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        children = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        own = np.bincount(name, weights=dur - children, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (float(own[i]) / 1e9, int(calls[i])) for i, n in enumerate(self.names)}

    def nested_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose enclosing span is named ``parent``."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        name = np.frombuffer(self.name, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int64)
        hits = (name == self._name_ids[child]) & (par >= 0)
        return int(np.count_nonzero(name[par[hits]] == self._name_ids[parent]))

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: span, parent, op, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("span,parent,op,name,start_ns,end_ns\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid},{self.parent[sid]},{self.op[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid]},{self.end[sid]}\n"
                )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    own = tracer.self_times()
    c = tracer.counts

    def secs(name):
        return own.get(name, (0.0, 0))[0]

    def calls(name):
        return own.get(name, (0.0, 0))[1]

    def ratio(hits, total):
        return hits / total if total else 0.0

    out = {
        "model.metric_s": secs("model.metric"),
        "model.metric_calls": calls("model.metric"),
        "model.restrict_s": secs("model.restrict"),
        "outer.entry_s": secs("outer.solve_feasibility") + secs("outer.optimize"),
        "outer.enumerate_s": secs("outer.enumerate_candidates"),
        "outer.candidates": c["outer.candidates"],
        "outer.oracle_s": secs("outer.oracle"),
        "outer.oracle_calls": calls("outer.oracle"),
        "outer.case1": c["outer.case1"],
        "outer.case2": c["outer.case2"],
        # Case II enumerates only on a cache miss, so every other Case II query hit.
        "outer.case2_cache_hits": c["outer.case2"] - calls("outer.enumerate_candidates"),
        "outer.optimize_probes": tracer.nested_calls("outer.solve_feasibility", "outer.optimize"),
        "ellipsoid.run_s": secs("ellipsoid.run_round_or_cut"),
        "ellipsoid.runs": calls("ellipsoid.run_round_or_cut"),
        "ellipsoid.update_s": secs("ellipsoid.update"),
        "ellipsoid.iterations": calls("ellipsoid.update"),
    }
    for kind in CUT_KINDS:
        out[f"ellipsoid.cuts.{kind}"] = c[f"ellipsoid.cuts.{kind}"]
    out.update({
        "reduction.reduce_s": secs("reduction.reduce_to_firefighter"),
        "reduction.reduce_calls": calls("reduction.reduce_to_firefighter"),
        "clustering.hs_partition_s": secs("clustering.hs_partition"),
        "clustering.hs_partition_calls": calls("clustering.hs_partition"),
        "presolve.greedy_s": secs("presolve.greedy_cover"),
        "presolve.greedy_calls": calls("presolve.greedy_cover"),
        "presolve.greedy_hit_ratio": ratio(c["presolve.greedy_hits"], calls("presolve.greedy_cover")),
        "presolve.lp_s": secs("presolve.coverage_lp"),
        "presolve.lp_calls": calls("presolve.coverage_lp"),
        "presolve.lp_bound_hit_ratio": ratio(c["presolve.lp_bound_hits"], calls("presolve.coverage_lp")),
        "wellsep.solve_s": secs("wellsep.solve_wellsep"),
        "wellsep.solve_calls": calls("wellsep.solve_wellsep"),
        "wellsep.oracle_s": secs("wellsep.oracle"),
        "wellsep.oracle_calls": calls("wellsep.oracle"),
        "wellsep.solution_ratio": ratio(c["wellsep.solutions"], calls("wellsep.solve_wellsep")),
        "firefighter.solve_2ff_s": secs("firefighter.solve_2ff"),
        "firefighter.solve_2ff_calls": calls("firefighter.solve_2ff"),
        "trace.spans": len(tracer.start),
    })
    return out
