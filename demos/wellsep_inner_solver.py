"""The inner solver on well separated instances, across its three regimes.

Large-ball centers restricted to a set Y of pairwise far apart points make the
problem reducible to a star forest: each Y point roots a cluster of nearby
mass, small balls pick leaves.  The instance carries its Y, and every check
below (the brute-force references included) reads it from there.  The
solver's contract is one-sided in the dilation: SOLUTION means a cover
verified at dilation 4 (its large centers may sit off Y), INFEASIBLE means no
cover with large centers in Y exists at dilation 1.  Between those two radii
both answers can be simultaneously true, and this script walks one instance
of each regime.

Run:  python3 demos/wellsep_inner_solver.py
"""

from collections import Counter

from nukc import (
    MetricSpace,
    SolverConfig,
    WellSepNUkCInstance,
    brute_force_nukc,
    solve_wellsep,
    validate_cut_on_hull,
)

RAW = SolverConfig(shortcuts=False)  # no greedy screen: the driver and oracle only


def on_line(xs, r1, r2, k1, k2, m, y):
    return WellSepNUkCInstance(
        MetricSpace.from_points([(x, 0.0) for x in xs]),
        r1=r1, r2=r2, k1=k1, k2=k2, m=m, y=y,
    )


# -------------------------------------------------- regime 1: feasible as is
# One large ball takes the wide group, two small balls the tight pairs.
ws = on_line([0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15],
             r1=1.0, r2=0.25, k1=1, k2=2, m=6, y=(0, 3, 5))
res = solve_wellsep(ws)
brute = brute_force_nukc(ws)
print(f"feasible instance:  solver={res.status} ({res.method}), "
      f"brute at dilation 1: {brute.feasible}")
raw = solve_wellsep(ws, RAW)
print(f"  oracle-only run rounds the very first query: "
      f"iterations={raw.iterations}, cuts={len(raw.cuts)}")

# ------------------------------------------- regime 2: the dilation gap zone
# Sparser groups: no dilation-1 cover reaches m = 6, but inflating the radii
# by 4 makes one, so SOLUTION at dilation 4 and INFEASIBLE would both be
# correct.  Here the coverage LP the driver starts from already falls short
# of m: its first query draws one mass cut, the LP empties, and both
# pipelines answer INFEASIBLE about dilation 1.
gap = on_line([0.0, 0.6, 1.1, 20.0, 20.5, 40.0, 40.3, 40.9],
              r1=1.0, r2=0.25, k1=1, k2=2, m=6, y=(0, 3, 5))
res = solve_wellsep(gap)
brute = brute_force_nukc(gap)
wide = brute_force_nukc(gap, rho=4.0)
print(f"\ngap-zone instance:  solver={res.status} ({res.method}), "
      f"brute at dilation 1: {brute.feasible}, at dilation 4: {wide.feasible}")
raw = solve_wellsep(gap, RAW)
kinds = Counter(cut.kind for cut in raw.cuts)
print(f"  oracle-only run:  {raw.status} ({raw.method}) after "
      f"{raw.iterations} iteration(s) and cuts {dict(kinds)}")
valid = all(validate_cut_on_hull(gap, cut) for cut in raw.cuts)
print(f"  all {len(raw.cuts)} cuts valid on the restricted hull: {valid}")

# --------------------------------------------- regime 3: beyond any dilation
# Too few balls for the target no matter the radius: the mass cut leaves the
# driver's LP empty and the exact oracle confirms there is nothing to find.
hard = on_line([0.0, 0.6, 0.9, 20.0, 20.2, 40.0, 40.15],
               r1=1.0, r2=0.25, k1=1, k2=1, m=7, y=(0, 3, 5))
raw = solve_wellsep(hard, RAW)
brute = brute_force_nukc(hard)
print(f"\nimpossible target:  solver={raw.status} ({raw.method}) "
      f"after {raw.iterations} iterations, "
      f"brute at dilation 1: {brute.feasible}")
