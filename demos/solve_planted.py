"""Generate a planted two-radius instance and solve it end to end.

A planted instance hides a known dilation-1 solution: each cluster fits inside
one ball of its radius class and the strays must be left out.  The default
solver pipeline decides it with its greedy cover at dilation 1, before any
cutting-plane work: ties go to the small radius, so the large balls stay
free for the clusters only they can hold.  The second half of the script
turns the greedy off on a small slack instance to show the separation
oracle rounding a query by itself.

Run:  python3 demos/solve_planted.py
"""

from nukc import (
    MetricSpace,
    NUkCInstance,
    NUkCSolution,
    SolverConfig,
    planted_instance,
    solve_feasibility,
    verify_solution,
)

# ---------------------------------------------------------------- planted run
instance, truth = planted_instance(seed=7)
print(f"instance: n={instance.n}, r1={instance.r1}, r2={instance.r2}, "
      f"k1={instance.k1}, k2={instance.k2}, m={instance.m}")
print(f"planted:  centers1={truth.centers1} centers2={truth.centers2} "
      f"outliers={truth.outliers}")

result = solve_feasibility(instance)
print(f"\nsolver:   status={result.status} method={result.method} "
      f"dilation={result.solution.dilation}")
print(f"          centers1={result.solution.centers1} "
      f"centers2={result.solution.centers2}")
ok, count = verify_solution(instance, result.solution, result.solution.dilation)
print(f"verified: covers {count} >= m={instance.m}: {ok}")

# The planted witness itself is also checkable directly.
witness = NUkCSolution(truth.centers1, truth.centers2, dilation=1.0)
ok, count = verify_solution(instance, witness, 1.0)
print(f"witness:  covers {count} at dilation 1: {ok}")

# ------------------------------------------------------- oracle path, no nets
# Four points in two pairs, budgets one ball each, target 3 of 4: the greedy
# screen is off, so the cutting-plane driver queries the oracle directly.  The first query (an optimum of the uncut coverage LP) already
# satisfies every hull constraint here and Case II rounds it through a
# candidate sub-instance.
slack = NUkCInstance(
    MetricSpace.from_points([[0.0], [0.2], [9.0], [9.2]]),
    r1=1.0, r2=0.3, k1=1, k2=1, m=3,
)
raw = solve_feasibility(slack, SolverConfig(shortcuts=False))
print(f"\nno-shortcut run: status={raw.status} method={raw.method} "
      f"case={raw.case} iterations={raw.iterations}")
# Every driver step is one recorded cut; Case II also keeps its inner runs.
print(f"cuts: {len(raw.cuts)}, inner runs (q, status): "
      f"{[(cand.q, inner.status) for cand, inner in raw.inner_runs]}")
ok, count = verify_solution(slack, raw.solution, raw.solution.dilation)
print(f"verified: covers {count} >= 3 at dilation {raw.solution.dilation}: {ok}")
