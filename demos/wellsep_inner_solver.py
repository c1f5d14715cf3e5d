"""The inner solver on well separated instances, across its three regimes.

Large-ball centers restricted to a set Y of pairwise far apart points make the
problem reducible to a star forest: each Y point roots a cluster of nearby
mass, small balls pick leaves.  The solver's contract is one-sided in the
dilation: SOLUTION means a verified cover at dilation 4, INFEASIBLE means no
cover exists at dilation 1.  Between those two radii both answers can be
simultaneously true, and this script walks one instance of each regime.

Run:  python3 demos/wellsep_inner_solver.py
"""

from collections import Counter

from nukc import (
    MetricSpace,
    NUkCInstance,
    SolverConfig,
    WellSepNUkCInstance,
    brute_force_nukc,
    solve_wellsep,
    validate_cut_on_hull,
    verify_solution,
)

RAW = SolverConfig(shortcuts=False)  # no greedy / LP screens: oracle only


def on_line(xs, r1, r2, k1, k2, m, y):
    base = NUkCInstance(
        MetricSpace.from_points([(x, 0.0) for x in xs]),
        r1=r1, r2=r2, k1=k1, k2=k2, m=m,
    )
    return WellSepNUkCInstance(base=base, y=y)


# -------------------------------------------------- regime 1: feasible as is
# One large ball takes the wide group, two small balls the tight pairs.
ws = on_line([0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15],
             r1=1.0, r2=0.25, k1=1, k2=2, m=6, y=(0, 3, 5))
res = solve_wellsep(ws)
brute = brute_force_nukc(ws.base, restrict_y=ws.y)
print(f"feasible instance:  solver={res.status} ({res.method}), "
      f"brute at dilation 1: {brute.feasible}")
raw = solve_wellsep(ws, RAW)
print(f"  oracle-only run rounds the very first query: "
      f"iterations={raw.iterations}, cuts={len(raw.cuts)}")

# ------------------------------------------- regime 2: the dilation gap zone
# Sparser groups: no dilation-1 cover reaches m = 6, but inflating the radii
# by 4 makes one.  The default pipeline certifies the dilation-1 verdict with
# the coverage LP; the oracle path instead works toward a dilation-4 cover.
# Both answers are correct, they speak about different radii.
gap = on_line([0.0, 0.6, 1.1, 20.0, 20.5, 40.0, 40.3, 40.9],
              r1=1.0, r2=0.25, k1=1, k2=2, m=6, y=(0, 3, 5))
res = solve_wellsep(gap)
brute = brute_force_nukc(gap.base, restrict_y=gap.y)
print(f"\ngap-zone instance:  solver={res.status} ({res.method}), "
      f"brute at dilation 1: {brute.feasible}")
raw = solve_wellsep(gap, RAW)
sol = raw.solution
ok, count = verify_solution(gap.base, sol, sol.dilation)
kinds = Counter(cut.kind for cut in raw.cuts)
print(f"  oracle-only run:  {raw.status} at dilation {sol.dilation} "
      f"covering {count} (verified {ok})")
print(f"  after {raw.iterations} iterations and cuts {dict(kinds)}")
valid = all(validate_cut_on_hull(gap.base, cut, restrict_y=gap.y)
            for cut in raw.cuts)
print(f"  all {len(raw.cuts)} cuts valid on the restricted hull: {valid}")

# --------------------------------------------- regime 3: beyond any dilation
# Too few balls for the target no matter the radius: the cuts leave the
# driver's LP empty and the exact oracle confirms there is nothing to find.
hard = on_line([0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15],
               r1=1.0, r2=0.25, k1=1, k2=1, m=7, y=(0, 3, 5))
raw = solve_wellsep(hard, RAW)
brute = brute_force_nukc(hard.base, restrict_y=hard.y)
print(f"\nimpossible target:  solver={raw.status} ({raw.method}) "
      f"after {raw.iterations} iterations, "
      f"brute at dilation 1: {brute.feasible}")
