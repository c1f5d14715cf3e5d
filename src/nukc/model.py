"""Core data model: metric spaces, instances, solutions, coverage vectors, cuts.

Everything downstream (partitioning, reductions, the round-or-cut solvers and the
brute-force oracles) works in terms of the types defined here.  Points are integer
indices into a fixed finite metric; coverage vectors live in [0,1]^{2n} with the
first block for the large radius and the second block for the small one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

# Tolerance for metric axioms (symmetry, triangle inequality) and for hull-side
# cut validation.  Kept small; oracle firing thresholds are handled separately.
METRIC_EPS = 1e-9


class MetricError(ValueError):
    """Raised when a distance matrix fails the metric axioms."""


class SizeGuardError(RuntimeError):
    """Raised when an exact enumeration would exceed its size guard."""


class TheoryViolationError(RuntimeError):
    """Raised when an invariant the correctness proof guarantees fails at runtime.

    Carries a diagnostic payload in ``dump`` so the offending state can be frozen
    into a regression test instead of being silently papered over.
    """

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


def as_indices(values: Iterable, what: str) -> list[int]:
    """``values`` as point indices.

    Raises ValueError naming the first boolean or non-integral entry, which
    ``int`` would silently truncate.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.tolist()
    vals = list(values)
    if set(map(type, vals)) <= {int}:  # the common case, checked without a Python loop
        return vals
    out = [int(v) for v in vals]
    for v, u in zip(vals, out):
        if isinstance(v, (bool, np.bool_)) or u != v:
            raise ValueError(f"{what} {v!r} is not an integer index")
    return out


def require_integer(value, what: str) -> None:
    """Raise ValueError naming ``what`` unless ``value`` is a Python or NumPy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


# Rows (and as many columns) per block of the symmetry check.
_SYMMETRY_BLOCK = 64


def _checked_matrix(dist, symmetric: bool = False) -> np.ndarray:
    """``dist`` as a float array, after the O(n^2) metric checks.

    Square, finite, nonnegative, zero diagonal, symmetric within METRIC_EPS
    (unchecked when ``symmetric`` says so by construction); the triangle
    inequality is left to :func:`_check_triangle`.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MetricError(f"distance matrix must be square, got shape {d.shape}")
    lo, hi = d.min(initial=0.0), d.max(initial=0.0)  # no n x n temporaries; NaN propagates through both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise MetricError("distance matrix contains non-finite entries")
    if lo < 0:
        raise MetricError("distances must be nonnegative")
    if np.any(np.abs(np.diag(d)) > 0):
        raise MetricError("self-distances must be zero")
    if symmetric:
        return d
    # By row blocks: d - d.T at once reads d.T against the cache and
    # allocates n x n temporaries.
    for i in range(0, d.shape[0], _SYMMETRY_BLOCK):
        rows, cols = d[i : i + _SYMMETRY_BLOCK], d[:, i : i + _SYMMETRY_BLOCK]
        if np.any(np.abs(rows - cols.T) > METRIC_EPS):
            raise MetricError(f"distance matrix not symmetric within {METRIC_EPS}")
    return d


def _check_triangle(d: np.ndarray) -> None:
    """Raise unless d[i,k] <= d[i,j] + d[j,k] + METRIC_EPS for all i, j, k.

    ``best[i,k]``, the minimum over j of d[i,j] + d[j,k], is built one middle
    index j at a time in O(n^2) memory, not from the n x n x n array of all
    sums.  The sums and their minimum are the same floats either way, so the
    worst pair and its amount are too.
    """
    n = d.shape[0]
    if not n:
        return
    best = np.full_like(d, np.inf)
    sums = np.empty_like(d)
    for j in range(n):
        np.add(d[:, j, None], d[None, j, :], out=sums)
        np.minimum(best, sums, out=best)
    slack = np.subtract(best, d, out=best)
    worst = int(np.argmin(slack))
    if slack.flat[worst] < -METRIC_EPS:
        i, k = divmod(worst, n)
        raise MetricError(
            f"triangle inequality violated at pair ({i}, {k}) by {-slack.flat[worst]:.3g}"
        )


@dataclass(frozen=True)
class MetricSpace:
    """A finite metric given by an explicit distance matrix.

    ``coords`` is kept when the metric came from points in the plane so that
    instances can be serialized compactly and plotted; it never participates in
    distance computations.

    Constructing it directly (and through :meth:`from_matrix`) validates every
    metric axiom, the triangle inequality in O(n^3) time but O(n^2) memory.
    :meth:`from_points`, :meth:`restrict` and the graph generator build
    metrics whose triangle inequality holds by construction and skip that
    check.  Both arrays are read-only copies.
    """

    dist: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        d = _checked_matrix(self.dist)
        _check_triangle(d)
        self._set(d.copy(), self.coords)

    def _set(self, dist: np.ndarray, coords) -> None:
        """Store ``dist`` and a float copy of ``coords``, both read-only."""
        dist.setflags(write=False)
        object.__setattr__(self, "dist", dist)
        if coords is not None:
            coords = np.array(coords, dtype=float)
            coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _trusted(cls, dist, coords=None) -> MetricSpace:
        """A metric whose triangle inequality and exact symmetry hold by construction.

        Keeps the other O(n^2) checks, skips the triangle and symmetry checks, keeps ``dist`` uncopied.
        """
        out = object.__new__(cls)
        out._set(_checked_matrix(dist, symmetric=True), coords)
        return out

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @staticmethod
    def from_points(points: Sequence[Sequence[float]]) -> MetricSpace:
        """Euclidean metric on explicit planar (or any-dimensional) points.

        A Euclidean distance is a metric, so the triangle check is skipped:
        with large coordinates its rounding would exceed METRIC_EPS and
        reject genuine point sets.  Time and memory are O(n^2).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise MetricError(f"points must be a 2-d array, got shape {pts.shape}")
        # cdist computes (i, j) and (j, i) alike: exactly symmetric, so that check is skipped too.
        return MetricSpace._trusted(cdist(pts, pts), coords=pts)

    @staticmethod
    def from_matrix(dist: Sequence[Sequence[float]]) -> MetricSpace:
        """Metric from an explicit matrix, checked against every metric axiom."""
        return MetricSpace(dist=np.asarray(dist, dtype=float))

    def restrict(self, points: Sequence[int]) -> MetricSpace:
        """Sub-metric on the given original indices, in the given order.

        Repeated indices are allowed: duplicated locations are distinct
        points.  The result is not validated again, because every axiom on
        the submatrix is an axiom on entries and triples of this metric.
        """
        if np.asarray(points).dtype == bool:
            raise ValueError(f"restrict takes point indices, not the boolean mask {points!r}")
        idx = np.array(as_indices(points, "restrict index"), dtype=int)
        bad = (idx < 0) | (idx >= self.n)
        if bad.any():
            raise ValueError(f"restrict index {idx[bad][0]} out of range for {self.n} points")
        out = object.__new__(MetricSpace)
        out._set(self.dist[np.ix_(idx, idx)], None if self.coords is None else self.coords[idx])
        return out

    def covers(self, centers: int | slice | Sequence[int] | None, radius: float) -> np.ndarray:
        """Row i: the mask of B(centers[i], radius), the v with dist[centers[i], v] <= radius.

        The one ball predicate of the solver (``bruteforce`` keeps its own as
        the reference).  ``None`` takes every point as a center; one int gives
        its ball as a 1-d mask, and a slice its rows' balls, both read from a
        view of the rows.
        """
        if centers is None:
            centers = slice(None)
        elif not isinstance(centers, (int, np.integer, slice)):  # a tuple would index dimensions
            centers = np.asarray(centers, dtype=np.intp)
        return self.dist[centers] <= radius

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricSpace):
            return NotImplemented
        if not np.array_equal(self.dist, other.dist):
            return False
        if (self.coords is None) != (other.coords is None):
            return False
        return self.coords is None or np.array_equal(self.coords, other.coords)


# Mask entries per row block of ``NUkCInstance.balls`` (4 MB): n <= 2048 takes one block.
_BALL_BLOCK = 1 << 22


@dataclass(frozen=True, eq=False)
class NUkCInstance:
    """A robust two-radius cover instance.

    Cover at least ``m`` of the points with at most ``k1`` balls of radius
    ``r1`` and at most ``k2`` balls of radius ``r2``; the rest are outliers.
    Duplicated locations are legitimate distinct points and each counts toward
    ``m`` separately.

    ``y``, when given, holds the points that may hold a large center of a
    dilation-1 solution: the greedy, the coverage LP, its certificate bound,
    the forest reduction and the brute-force references read it from here.
    It is checked once, at construction.  ``verify_solution`` ignores it,
    and a well-separated solver's SOLUTION may place large centers off it
    (see ``WellSepNUkCInstance``); ``solve_feasibility``, ``optimize`` and
    ``instance_to_json`` reject an instance with a Y.
    """

    metric: MetricSpace
    r1: float
    r2: float
    k1: int
    k2: int
    m: int
    y: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (self.r1 > self.r2 >= 0):
            raise ValueError(f"need r1 > r2 >= 0, got r1={self.r1}, r2={self.r2}")
        for name in ("k1", "k2", "m"):  # a float budget never runs out in the greedy
            require_integer(getattr(self, name), name)
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("budgets must be nonnegative")
        if self.m < 0:
            raise ValueError("coverage target must be nonnegative")
        if self.y is not None:  # as indices, each in range and named once
            ys, seen = tuple(as_indices(self.y, "Y entry")), set()
            for v in ys:
                if not 0 <= v < self.n:
                    raise ValueError(f"Y index {v} out of range for {self.n} points")
                if v in seen:
                    raise ValueError(f"Y repeats index {v}")
                seen.add(v)
            object.__setattr__(self, "y", ys)

    @property
    def n(self) -> int:
        return self.metric.n

    @cached_property
    def balls(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each B(u, r1), then each B(u, r2), as CSR rows: ``MetricSpace.covers`` rows, read in row blocks.

        Per radius ``(start, points)``, u's points ascending at ``points[start[u] : start[u + 1]]``;
        no row is empty, as each ball holds its center.  A block's mask holds
        at most ``_BALL_BLOCK`` entries, or one row.  Built on first use and
        kept: the instance is immutable, so the table cannot go stale.
        """
        n = self.n
        rows = max(_BALL_BLOCK // max(n, 1), 1)
        flat1 = np.concatenate([  # u * n + v; at least one block, so n = 0 gives an empty array
            np.flatnonzero(self.metric.covers(slice(i, i + rows), self.r1)) + i * n for i in range(0, max(n, 1), rows)
        ])
        flat2 = flat1[self.metric.dist.ravel()[flat1] <= self.r2]  # B(u, r2) lies within B(u, r1)
        return tuple((np.searchsorted(flat, np.arange(n + 1) * n), flat % n) for flat in (flat1, flat2))

    @cached_property
    def near_y(self) -> np.ndarray | None:
        """The mask of the points within r1 of Y (None without Y), built on first use and kept."""
        return None if self.y is None else self.metric.covers(self.y, self.r1).any(axis=0)

    def scaled(self, rho: float) -> NUkCInstance:
        """The same instance (its type and Y too) with both radii multiplied by ``rho`` (> 0)."""
        if rho <= 0:
            raise ValueError("scale must be positive")
        return type(self)(self.metric, self.r1 * rho, self.r2 * rho, self.k1, self.k2, self.m, self.y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NUkCInstance):
            return NotImplemented
        return (
            self.metric == other.metric
            and (self.r1, self.r2, self.k1, self.k2, self.m, self.y)
            == (other.r1, other.r2, other.k1, other.k2, other.m, other.y)
        )


class WellSepNUkCInstance(NUkCInstance):
    """An instance whose Y is given and pairwise strictly more than 4*r1 apart.

    The strict separation makes the r1-balls around Y points pairwise
    disjoint with room to spare, which is what the inner oracle's
    cut-validity argument uses; it is checked again on every construction,
    ``dataclasses.replace`` and ``scaled`` included.  Its solver's contract:
    INFEASIBLE means no dilation-1 solution has its large centers in Y; a
    SOLUTION is checked for budgets and coverage at dilation 4 on this
    instance, and its large centers may lie off Y (the forest reduction's
    roots are only preferred near Y).
    """

    def __post_init__(self):
        super().__post_init__()
        if self.y is None:
            raise ValueError("a well-separated instance needs its Y")
        ys, d = self.y, self.metric.dist
        thresh = 4.0 * self.r1
        # Pairs i < j, first in row-major order, that are not strictly apart.
        close = np.argwhere(np.triu(~(d[np.ix_(ys, ys)] > thresh), k=1))
        if len(close):
            u, v = ys[close[0][0]], ys[close[0][1]]
            raise ValueError(f"Y not well separated: d({u},{v})={d[u, v]} <= 4*r1={thresh}")


@dataclass(frozen=True)
class NUkCSolution:
    """Centers for both radius classes plus the dilation they are valid at.

    ``dilation`` is the factor rho such that the solution's balls are
    B(c, rho*r1) and B(c, rho*r2).  Solver outputs carry rho in {1, 4, 8, 10};
    the scale-optimization path may report 0 for the all-duplicates corner.
    """

    centers1: tuple[int, ...]
    centers2: tuple[int, ...]
    dilation: float

    def __post_init__(self):
        object.__setattr__(self, "centers1", tuple(as_indices(self.centers1, "center")))
        object.__setattr__(self, "centers2", tuple(as_indices(self.centers2, "center")))
        if not self.dilation >= 0:
            raise ValueError(f"dilation must be nonnegative, got {self.dilation}")

    @staticmethod
    def empty(dilation: float = 1.0) -> NUkCSolution:
        return NUkCSolution((), (), dilation)


@dataclass(frozen=True)
class CoverageVector:
    """Fractional per-point coverage by each radius class.

    The cutting-plane driver works on the flat vector (cov1 ++ cov2); oracles
    reshape it through :meth:`from_vector`.
    """

    cov1: np.ndarray
    cov2: np.ndarray

    def __post_init__(self):
        c1 = np.asarray(self.cov1, dtype=float)
        c2 = np.asarray(self.cov2, dtype=float)
        if c1.shape != c2.shape or c1.ndim != 1:
            raise ValueError("cov1 and cov2 must be 1-d arrays of equal length")
        object.__setattr__(self, "cov1", c1)
        object.__setattr__(self, "cov2", c2)

    @property
    def n(self) -> int:
        return self.cov1.shape[0]

    def cov(self) -> np.ndarray:
        """Total coverage cov1 + cov2 per point."""
        return self.cov1 + self.cov2

    @staticmethod
    def from_vector(x: np.ndarray) -> CoverageVector:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] % 2:
            raise ValueError(f"coverage vector must have even length, got {x.shape}")
        n = x.shape[0] // 2
        return CoverageVector(x[:n], x[n:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.cov1, self.cov2])


@dataclass(frozen=True)
class Cut:
    """A valid inequality a1·cov1 + a2·cov2 <= b for the coverage hull.

    ``kind`` labels which oracle check produced it (certificate traces key off
    it); coefficients of every emitted cut are integers with |a| <= n.
    """

    a1: np.ndarray
    a2: np.ndarray
    b: float
    kind: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        a1 = np.asarray(self.a1, dtype=float)
        a2 = np.asarray(self.a2, dtype=float)
        if a1.shape != a2.shape or a1.ndim != 1:
            raise ValueError("cut coefficient blocks must be 1-d arrays of equal length")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.a1, self.a2])


def eval_cut(cut: Cut, cov: CoverageVector) -> float:
    """Slack b - (a1·cov1 + a2·cov2); negative means the cut is violated."""
    if cut.n != cov.n:
        raise ValueError(f"cut over {cut.n} points evaluated on {cov.n}-point coverage")
    return float(cut.b - cut.a1 @ cov.cov1 - cut.a2 @ cov.cov2)


def covered_points(instance: NUkCInstance, solution: NUkCSolution, rho: float) -> np.ndarray:
    """Indices covered by the solution's balls dilated by ``rho``."""
    metric = instance.metric
    return np.flatnonzero(metric.covers(solution.centers1, rho * instance.r1).any(axis=0)
                          | metric.covers(solution.centers2, rho * instance.r2).any(axis=0))


def verify_solution(
    instance: NUkCInstance, solution: NUkCSolution, rho: float
) -> tuple[bool, int]:
    """Check budgets, index validity and coverage >= m at dilation ``rho``.

    Returns (ok, covered_count); the count is reported even when ok is False.
    """
    n = instance.n
    for c in solution.centers1 + solution.centers2:
        if not (0 <= c < n):
            return False, 0
    covered = covered_points(instance, solution, rho)
    count = int(covered.size)
    ok = (
        len(solution.centers1) <= instance.k1
        and len(solution.centers2) <= instance.k2
        and count >= instance.m
    )
    return ok, count


def coverage_of_solution(
    instance: NUkCInstance, centers1: Iterable[int], centers2: Iterable[int]
) -> CoverageVector:
    """0/1 coverage of an integral solution at dilation 1.

    A point claimed by the large-radius class is not counted again for the
    small one, so cov1 + cov2 is the indicator of the covered set.
    """
    metric = instance.metric
    c1 = metric.covers(list(centers1), instance.r1).any(axis=0)
    c2 = metric.covers(list(centers2), instance.r2).any(axis=0) & ~c1
    return CoverageVector(c1, c2)


@dataclass
class SolveResult:
    """A solver verdict, and the parsed form of a solution file.

    SOLUTION results the solvers return come from :meth:`verified`, which
    checks coverage at the solution's own dilation.  The driver fields
    (``case`` onward) stay empty for screen verdicts and parsed files.
    """

    status: str  # "solution" | "infeasible" | "undecided" (a cap ran out, or an LP refutation went uncertified)
    solution: NUkCSolution | None = None
    covered_count: int = 0
    # trivial|start|greedy|round|lp-empty|cap|uncertified, or optimize (CLI); start: an
    # inner run rounded the outer query it was handed, before any LP.
    method: str = ""
    case: str = ""  # which outer rounding case produced the solution, if any
    cuts: list[Cut] = field(default_factory=list)
    inner_runs: list = field(default_factory=list)
    # lp-empty with no cut added to the LP: a dyadic beta whose
    # cutting_plane.certificate_bound (at this instance, with its Y) is below m.
    certificate: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        """Driver steps: one per cut the oracle returned."""
        return len(self.cuts)

    @classmethod
    def verified(
        cls, instance: NUkCInstance, solution: NUkCSolution, method: str, **fields
    ) -> SolveResult:
        """A SOLUTION whose coverage was recounted at its dilation.

        Raises TheoryViolationError when the solution misses the target or a
        budget: solvers only return solutions their proofs guarantee.
        """
        ok, count = verify_solution(instance, solution, solution.dilation)
        if not ok:
            raise TheoryViolationError(
                f"{method} solution failed verification",
                dump={"instance": instance, "solution": solution},
            )
        return cls("solution", solution, count, method=method, **fields)

    def to_json(self) -> dict:
        """The solution-file record: status, plus centers and count for a SOLUTION."""
        if self.status in ("infeasible", "undecided"):
            return {"status": self.status}
        if self.status != "solution" or self.solution is None:
            raise ValueError(f"cannot encode status {self.status!r} without a solution")
        sol = self.solution
        return {
            "status": "solution",
            "dilation": float(sol.dilation),
            "centers1": [int(v) for v in sol.centers1],
            "centers2": [int(v) for v in sol.centers2],
            "covered_count": int(self.covered_count),
        }
