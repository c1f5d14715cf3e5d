"""Two-level weighted firefighter: exact selection over a star forest.

A tree instance has root nodes (each owning a star of weighted leaves) and two
budgets: k1 roots and k2 individual leaves may be picked.  A leaf counts as
saved when it is picked itself or its root is picked; the goal is to maximize
the saved weight.  Instances produced by the coverage reduction carry the
dilation factors and the per-leaf cluster they stand for, so a good selection
lifts directly back to centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NEG = -1  # unreachable DP marker; values are nonnegative integers


@dataclass(frozen=True)
class TwoFFInstance:
    """A star forest with leaf weights and the two selection budgets.

    ``roots`` and ``leaves`` keep deterministic (selection) order.  For trees
    built by the coverage reduction every root is also one of its own leaves
    and ``child2`` records the original points each leaf stands for; hand-built
    trees may use disjoint id spaces and leave ``child2`` empty.
    """

    roots: tuple[int, ...]
    leaves: tuple[int, ...]
    parent: dict[int, int]
    leafset: dict[int, tuple[int, ...]]
    w: dict[int, int]
    k1: int
    k2: int
    alpha1: float = 0.0
    alpha2: float = 0.0
    child2: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        roots = tuple(int(u) for u in self.roots)
        leaves = tuple(int(v) for v in self.leaves)
        if len(set(roots)) != len(roots) or len(set(leaves)) != len(leaves):
            raise ValueError("repeated ids in roots or leaves")
        if set(self.parent) != set(leaves):
            raise ValueError("parent must be defined exactly on the leaves")
        for v, u in self.parent.items():
            if u not in set(roots):
                raise ValueError(f"parent of {v} is not a root")
        seen: set[int] = set()
        for u in roots:
            members = self.leafset.get(u, ())
            if any(self.parent[v] != u for v in members):
                raise ValueError("leafset inconsistent with parent")
            seen.update(members)
        if seen != set(leaves):
            raise ValueError("leafsets must partition the leaves")
        for v in leaves:
            wv = self.w[v]
            if wv != int(wv) or wv < 1:
                raise ValueError(f"leaf weight must be a positive integer, got w[{v}]={wv}")
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("budgets must be nonnegative")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "leaves", leaves)

    def total_weight(self) -> int:
        return sum(self.w[v] for v in self.leaves)


@dataclass(frozen=True)
class TwoFFSolution:
    t1: tuple[int, ...]
    t2: tuple[int, ...]
    value: int


def covered_leaves(tree: TwoFFInstance, t1, t2) -> tuple[int, ...]:
    """Leaves saved by the selection: picked directly or via their root."""
    t1 = set(t1)
    t2 = set(t2)
    return tuple(v for v in tree.leaves if v in t2 or tree.parent[v] in t1)


def selection_value(tree: TwoFFInstance, t1, t2) -> int:
    return sum(tree.w[v] for v in covered_leaves(tree, t1, t2))


def solve_2ff(tree: TwoFFInstance) -> TwoFFSolution:
    """Exact optimum by dynamic programming over stars.

    State is (roots used, leaves used).  Per star, either the root is selected
    (saving the whole star) or its j heaviest leaves are (prefix sums make the
    per-star choice greedy-exact).  Equal-value ties prefer selecting the root,
    and the reported end state is the first one reaching the optimum in budget
    order, so results are deterministic.
    """
    k1 = min(tree.k1, len(tree.roots))
    k2 = min(tree.k2, len(tree.leaves))
    stars = []
    for u in tree.roots:
        lv = sorted(tree.leafset[u], key=lambda v: (-tree.w[v], v))
        pre = [0]
        for v in lv:
            pre.append(pre[-1] + tree.w[v])
        stars.append((u, lv, pre))

    dp = [[NEG] * (k2 + 1) for _ in range(k1 + 1)]
    dp[0][0] = 0
    choices: list[dict[tuple[int, int], tuple[str, int]]] = []
    for _, lv, pre in stars:
        ndp = [[NEG] * (k2 + 1) for _ in range(k1 + 1)]
        ch: dict[tuple[int, int], tuple[str, int]] = {}
        for a in range(k1 + 1):
            for b in range(k2 + 1):
                base = dp[a][b]
                if base == NEG:
                    continue
                if a + 1 <= k1 and base + pre[-1] > ndp[a + 1][b]:
                    ndp[a + 1][b] = base + pre[-1]
                    ch[(a + 1, b)] = ("root", 0)
                for j in range(min(k2 - b, len(lv)) + 1):
                    if base + pre[j] > ndp[a][b + j]:
                        ndp[a][b + j] = base + pre[j]
                        ch[(a, b + j)] = ("leaves", j)
        dp = ndp
        choices.append(ch)

    best, state = 0, (0, 0)
    for a in range(k1 + 1):
        for b in range(k2 + 1):
            if dp[a][b] > best:
                best, state = dp[a][b], (a, b)

    t1: list[int] = []
    t2: list[int] = []
    a, b = state
    for (u, lv, _), ch in zip(reversed(stars), reversed(choices)):
        kind, j = ch[(a, b)]
        if kind == "root":
            t1.append(u)
            a -= 1
        else:
            t2.extend(lv[:j])
            b -= j
    t1.reverse()
    t2.sort()
    return TwoFFSolution(t1=tuple(t1), t2=tuple(t2), value=best)
