"""Watch the central-cut ellipsoid shrink, round, and certify emptiness.

The engine maintains an ellipsoid meant to contain every feasible point.
Each oracle answer either rounds the center or hands back one violated cut
(a ``Cut`` over the point blocks cov1 and cov2; in two dimensions, one point);
the engine records the cut and keeps the half of the ellipsoid on the cut's
side of the center.  The replacement is the smallest ellipsoid holding that
half, and its volume drops by a fixed dimension-dependent ratio.  A run ends
when a query rounds, when a cut is violated by more than the ellipsoid's
half-width along it, when the ellipsoid fits inside the stop radius, or at the
iteration cap.

Run:  python3 demos/ellipsoid_walk.py
"""

import math

import numpy as np

from nukc.ellipsoid import (
    EllipsoidState,
    Rounded,
    Separating,
    ellipsoid_update,
    initial_ellipsoid,
    run_round_or_cut,
)
from nukc.model import Cut


def shrink_ratio(d):
    """det(A') / det(A) after one central cut: (d^2/(d^2-1))^d (d-1)/(d+1)."""
    return 0.25 if d == 1 else (d * d / (d * d - 1.0)) ** d * (d - 1) / (d + 1)


def separate(a, b):
    """Separating verdict for a[0]·x0 + a[1]·x1 <= b, as a 1-point cut."""
    return Separating(Cut(a1=a[:1], a2=a[1:], b=b))


# ------------------------------------------------------ hunting a small box
# The oracle knows a target box and cuts along the worst coordinate until the
# query lands inside.  Volume decays by sqrt(shrink_ratio(2)) per iteration.
target = np.array([0.31, 0.62])
halfside = 0.02


def box_oracle(x):
    if np.all(np.abs(x - target) <= halfside):
        return Rounded(x.copy())
    i = int(np.argmax(np.abs(x - target)))
    a = np.zeros(2)
    a[i] = 1.0 if x[i] > target[i] else -1.0
    return separate(a, float(a @ target) + halfside)


res = run_round_or_cut(2, box_oracle)
print(f"box hunt: {res.status} after {res.iterations} iterations, "
      f"landed at {np.round(res.payload, 4)}")

state = initial_ellipsoid(2)
volumes = [math.sqrt(np.linalg.det(state.shape))]
for _ in range(res.iterations):
    verdict = box_oracle(state.center)
    state = ellipsoid_update(state, verdict.cut.as_vector())
    volumes.append(math.sqrt(np.linalg.det(state.shape)))
measured = [volumes[i + 1] / volumes[i] for i in range(len(volumes) - 1)]
print(f"volume ratio per step: measured {measured[0]:.6f}, "
      f"closed form {math.sqrt(shrink_ratio(2)):.6f}")
print(f"recorded cuts: {len(res.cuts)}, first {res.cuts[0].as_vector()} "
      f"<= {res.cuts[0].b:.2f}")

# ------------------------------------------------- the textbook 2-D update
# Unit ball, keep the half-space x0 <= 0: the new center slides a third of
# the way down the axis and the matrix stretches across it.
state = EllipsoidState(center=np.zeros(2), shape=np.eye(2))
after = ellipsoid_update(state, np.array([1.0, 0.0]))
print(f"\nunit ball cut along e0: center {after.center} "
      f"(exact (-1/3, 0)), shape diag {np.diag(after.shape)} "
      f"(exact (4/9, 4/3))")

print("\nper-update determinant ratio, measured on a random cut:")
rng = np.random.default_rng(0)
for d in (1, 2, 8, 20):
    start = initial_ellipsoid(d)
    after = ellipsoid_update(start, rng.normal(size=d))
    _, before_log = np.linalg.slogdet(start.shape)
    _, after_log = np.linalg.slogdet(after.shape)
    print(f"  d={d:>2}: {math.exp(after_log - before_log):.9f}  "
          f"(closed form {shrink_ratio(d):.9f})")

# ----------------------------------------------- emptiness by a single cut
# A cut violated by more than the half-width excludes the entire ellipsoid,
# so the engine declares infeasibility without touching the iteration cap.
def hopeless_oracle(x):
    return separate(np.array([1.0, 0.0]), float(x[0]) - 1.0)


res = run_round_or_cut(2, hopeless_oracle)
print(f"\nhopeless oracle: {res.status} after {res.iterations} iterations "
      f"({len(res.cuts)} cut), violation 1.0 > half-width "
      f"{math.sqrt(initial_ellipsoid(2).shape[0, 0]):.4f}")
