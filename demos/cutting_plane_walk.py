"""Watch the cutting-plane driver round, cut and re-solve, and find an empty LP.

The driver keeps one LP over the coverage box: for each point a cov1 and a
cov2 coordinate in [0, 1] with cov1 + cov2 <= 1, maximising total coverage.
It hands each LP optimum to a separation oracle.  The oracle either rounds
the query into a payload, which ends the run, or returns one violated
inequality as a ``Cut``.  The driver records the cut, adds it to the LP as a
row, and re-solves with dual simplex from the previous basis.  A run also
ends when the LP becomes empty (status "infeasible") or when the iteration
cap runs out (status "exhausted").

The toy oracles below work on one point, so a query is the pair (cov1, cov2).

Run:  python3 demos/cutting_plane_walk.py
"""

import numpy as np

from nukc.cutting_plane import Rounded, Separating, run_round_or_cut
from nukc.model import Cut


def separate(a, b, kind):
    """Separating verdict for a[0]·cov1 + a[1]·cov2 <= b, as a 1-point cut."""
    return Separating(Cut(a1=np.array(a[:1], float), a2=np.array(a[1:], float),
                          b=b, kind=kind))


# ------------------------------------------------------ a round at the start
# The first query is an optimum of the uncut LP, so any oracle that accepts
# full coverage rounds it at iteration 0.
res = run_round_or_cut(2, lambda x: Rounded(x.copy()))
print(f"accept-all oracle: {res.status} after {res.iterations} iterations "
      f"at {res.payload + 0.0}")

# --------------------------------------------- cuts, each one a warm re-solve
# The oracle wants the query inside a small box around a target and cuts
# along the worst coordinate.  Each cut becomes an LP row; the next optimum
# satisfies every recorded row, so a query is never cut twice by one row.
target = np.array([0.2, 0.3])
halfside = 0.05
queries = []


def box_oracle(x):
    queries.append(x)
    if np.all(np.abs(x - target) <= halfside):
        return Rounded(x.copy())
    i = int(np.argmax(np.abs(x - target)))
    a = np.zeros(2)
    a[i] = 1.0 if x[i] > target[i] else -1.0
    return separate(a, float(a @ target) + halfside, f"axis-{i}")


res = run_round_or_cut(2, box_oracle)
print(f"\nbox oracle: {res.status} after {res.iterations} iteration(s)")
for x, cut in zip(queries, res.cuts + [None]):
    step = "rounded" if cut is None else (
        f"cut {cut.kind}: {cut.as_vector()} . x <= {cut.b:.2f}")
    print(f"  query {np.round(x, 4) + 0.0} -> {step}")

# ------------------------------------------------- the LP-empty stop
# A cut that no point of the box satisfies leaves the LP empty; the driver
# stops at the next solve.
res = run_round_or_cut(2, lambda x: separate([-1.0, 0.0], -2.0, "cov1>=2"))
print(f"\nimpossible oracle: {res.status} after {res.iterations} iteration(s), "
      f"cuts {[cut.kind for cut in res.cuts]}")

# ------------------------------------------------------------- the cap
# An oracle that halves the total coverage at every query never rounds and
# never empties the LP, so only the cap ends the run.
res = run_round_or_cut(
    2, lambda x: separate([1.0, 1.0], float(x.sum()) / 2.0, "halve"), 10
)
print(f"\nhalving oracle: {res.status} after {res.iterations} iterations, "
      f"last bound {res.cuts[-1].b:.6f}")
