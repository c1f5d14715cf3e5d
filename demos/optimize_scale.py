"""Search for the smallest radius scale the solver cannot refute.

Scaling both radii by rho trades coverage against tightness, and the
interesting values of rho are the quotients distance/radius: between two
consecutive quotients no ball gains or loses a point.  The optimizer first
bisects that finite grid on cheap openings (a farthest-first traversal, or
a greedy cover) for the lowest scale they cover, then steps down from it
on the coverage LP: a probe is `infeasible` when a certificate shows the LP
below m there, and `lp-feasible` when openings (an LP optimum, or a greedy
cover) reach m there.  Only the scale the search settles on is solved in
full, starting from its openings.  Every scale below the result was refuted
outright, so the result lower bounds the true optimum and the returned
solution is valid within a factor 10 of it.

Run:  python3 demos/optimize_scale.py
"""

from nukc import (MetricSpace, NUkCInstance, optimize, planted_instance,
                  verify_solution)

instance, truth = planted_instance(seed=11, clusters=3, points_per_cluster=4)
print(f"instance: n={instance.n}, r1={instance.r1}, r2={instance.r2}, "
      f"k1={instance.k1}, k2={instance.k2}, m={instance.m}")

out = optimize(instance)
print(f"\nsmallest irrefutable scale: rho* = {out.rho_star:.6f}")
print("probes (scale -> verdict):")
for rho, status in out.probes:
    marker = " <-- rho*" if rho == out.rho_star else ""
    print(f"  {rho:>10.6f}  {status}{marker}")

sol = out.solution
ok, count = verify_solution(instance, sol, sol.dilation)
print(f"\nsolution in original units: dilation {sol.dilation:.6f} "
      f"(<= 10 * rho* = {10 * out.rho_star:.6f})")
print(f"centers1={sol.centers1} centers2={sol.centers2}, "
      f"covers {count} >= m={instance.m}: {ok}")

# The planted construction is feasible at scale 1, so the optimizer always
# lands at or below it; how far below depends on how tightly the random
# clusters hug their planted centers.
slack = 1.0 - out.rho_star
print(f"\nplanted instances are feasible at scale 1; this draw had "
      f"{slack:.1%} radius slack")

# Degenerate but well defined: with duplicate points, k1 + k2 zero-radius
# balls can already cover the target, and the optimum collapses to 0.
pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]
dup = NUkCInstance(MetricSpace.from_points(pts), 1.0, 0.5, 1, 1, 4)
out = optimize(dup)
print(f"\nduplicate-point instance: rho* = {out.rho_star}, "
      f"dilation {out.solution.dilation}, centers "
      f"{out.solution.centers1 + out.solution.centers2}")
