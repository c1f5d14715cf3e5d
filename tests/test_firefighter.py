import numpy as np
import pytest

from nukc import (
    TwoFFInstance,
    brute_2ff,
    covered_leaves,
    selection_value,
    solve_2ff,
)

from conftest import random_tree


def two_star_tree(k1=1, k2=1) -> TwoFFInstance:
    """Roots 0 and 1; star 0 holds leaves {0,2,3}, star 1 holds {1,4}."""
    return TwoFFInstance(
        roots=(0, 1),
        leaves=(0, 1, 2, 3, 4),
        parent={0: 0, 2: 0, 3: 0, 1: 1, 4: 1},
        leafset={0: (0, 2, 3), 1: (1, 4)},
        w={0: 1, 1: 2, 2: 5, 3: 1, 4: 4},
        k1=k1,
        k2=k2,
    )


class TestStructure:
    def test_rejects_orphan_parent(self):
        with pytest.raises(ValueError, match="not a root"):
            TwoFFInstance(
                roots=(0,), leaves=(1,), parent={1: 9}, leafset={0: ()},
                w={1: 1}, k1=1, k2=1,
            )

    def test_rejects_nonpartition(self):
        with pytest.raises(ValueError):
            TwoFFInstance(
                roots=(0, 1), leaves=(2,), parent={2: 0},
                leafset={0: (2,), 1: (2,)}, w={2: 1}, k1=1, k2=1,
            )

    def test_rejects_fractional_weight(self):
        with pytest.raises(ValueError, match="weight"):
            TwoFFInstance(
                roots=(0,), leaves=(1,), parent={1: 0}, leafset={0: (1,)},
                w={1: 0.5}, k1=1, k2=1,
            )

    def test_total_weight(self):
        assert two_star_tree().total_weight() == 13


class TestSelections:
    def test_covered_leaves_union(self):
        tree = two_star_tree()
        assert covered_leaves(tree, (0,), (4,)) == (0, 2, 3, 4)
        assert selection_value(tree, (0,), (4,)) == 11

    def test_solver_optimum_two_stars(self):
        tree = two_star_tree(k1=1, k2=1)
        best = solve_2ff(tree)
        # e.g. star 0 (weight 7) plus leaf 4 (weight 4)
        assert best.value == 11
        assert selection_value(tree, best.t1, best.t2) == 11

    def test_budgets_can_exceed_sizes(self):
        tree = two_star_tree(k1=5, k2=9)
        best = solve_2ff(tree)
        assert best.value == tree.total_weight()
        assert len(best.t1) <= 5 and len(best.t2) <= 9

    def test_zero_budgets(self):
        tree = two_star_tree(k1=0, k2=0)
        assert solve_2ff(tree).value == 0

    def test_tie_prefers_root(self):
        # selecting root 0 or leaf 2 both give 5; the root must win
        tree = TwoFFInstance(
            roots=(0,),
            leaves=(2, 3),
            parent={2: 0, 3: 0},
            leafset={0: (2, 3)},
            w={2: 5, 3: 5},
            k1=1,
            k2=1,
        )
        best = solve_2ff(tree)
        assert best.value == 10
        assert best.t1 == (0,)

    def test_leaf_choice_prefers_heavy_then_low_id(self):
        tree = TwoFFInstance(
            roots=(0,),
            leaves=(1, 2, 3),
            parent={1: 0, 2: 0, 3: 0},
            leafset={0: (1, 2, 3)},
            w={1: 3, 2: 3, 3: 7},
            k1=0,
            k2=2,
        )
        best = solve_2ff(tree)
        assert best.value == 10
        assert set(best.t2) == {3, 1}  # weight first, then lowest id

    def test_is_valuable_threshold(self):
        tree = two_star_tree(k1=1, k2=1)
        assert solve_2ff(tree).value == 11  # weight 11 is reachable, 12 is not


class TestAgainstEnumeration:
    def test_matches_brute_force_on_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tree = random_tree(rng)
            fast = solve_2ff(tree)
            slow = brute_2ff(tree)
            assert fast.value == slow.value
            assert selection_value(tree, fast.t1, fast.t2) == fast.value
            assert len(fast.t1) <= tree.k1 and len(fast.t2) <= tree.k2
