"""Chain solver: cost model vs oracle, DP vs exhaustive enumeration."""

import random

import pytest

from momc.chain import (
    left_fold_tree,
    optimal_parenthesization,
    tree_cost,
    tree_string,
)
from momc.errors import DimMismatch
from momc.ir import MatrixType
from momc.properties import EMPTY_PROPS, ElemKind, Property, PropertySet

from chain_reference import (
    ChainTooLong,
    cost_oracle,
    enumerate_parenthesizations,
    mul_cost,
    tree_props,
)
from gen import CLOSED_PSETS, default_seed, random_chain

LOWER = PropertySet.closure((Property.LOWER_TRIANGULAR,))
UPPER = PropertySet.closure((Property.UPPER_TRIANGULAR,))
DIAG = PropertySet.closure((Property.DIAGONAL,))

BENCH_DIMS = [800, 1100, 900, 1200, 100]


def operand(rows, cols, props=EMPTY_PROPS):
    return MatrixType(rows, cols, ElemKind.F32, props)


def bench_chain():
    return [operand(BENCH_DIMS[i], BENCH_DIMS[i + 1]) for i in range(4)]


def test_mul_cost_full_matches_dim_product():
    assert mul_cost((800, 1100, EMPTY_PROPS), (1100, 900, EMPTY_PROPS)) == \
        792_000_000


def test_mul_cost_lower_lower():
    assert mul_cost((5, 5, LOWER), (5, 5, LOWER)) == 35  # 5*6*7/6


def test_mul_cost_diag_times_full():
    assert mul_cost((3, 3, DIAG), (3, 2, EMPTY_PROPS)) == 6


def test_mul_cost_rejects_dim_mismatch():
    with pytest.raises(DimMismatch):
        mul_cost((5, 5, EMPTY_PROPS), (4, 4, EMPTY_PROPS))


def test_cost_oracle_small_cases():
    assert cost_oracle((2, 3, EMPTY_PROPS), (3, 2, EMPTY_PROPS)) == 12
    assert cost_oracle((3, 3, LOWER), (3, 3, LOWER)) == 10
    assert cost_oracle((2, 2, LOWER), (2, 2, UPPER)) == 5


def test_closed_form_equals_oracle_spot_grid():
    for n in range(1, 9):
        for pa in CLOSED_PSETS:
            for pb in CLOSED_PSETS:
                a = (n, n, pa)
                b = (n, n, pb)
                assert mul_cost(a, b) == cost_oracle(a, b)


def test_dp_reproduces_bench_chain():
    sol = optimal_parenthesization(bench_chain())
    names = ["A1", "A2", "A3", "A4"]
    assert tree_string(sol.tree, names) == "(A1*(A2*(A3*A4)))"
    assert sol.total_cost == 295_000_000
    assert tree_cost(sol.tree, bench_chain()) == 295_000_000


def test_enumeration_of_bench_chain():
    trees = enumerate_parenthesizations(bench_chain())
    assert len(trees) == 5  # Catalan(3)
    costs = sorted(c for _, c in trees)
    assert costs == [295_000_000, 972_000_000, 1_408_000_000,
                     1_752_000_000, 2_340_000_000]
    assert tree_cost(left_fold_tree(4), bench_chain()) == 1_752_000_000


def test_single_operand_chain():
    sol = optimal_parenthesization([operand(4, 7)])
    assert sol.total_cost == 0
    assert sol.tree == ((0, 0),)


def test_two_lower_triangular_operands():
    sol = optimal_parenthesization([operand(5, 5, LOWER), operand(5, 5, LOWER)])
    assert sol.total_cost == 35
    assert sol.tree == ((0, 0), (1, 1), (0, 1))


def test_enumeration_counts_are_catalan():
    chain2 = [operand(2, 2)] * 2
    assert len(enumerate_parenthesizations(chain2)) == 1
    chain5 = [operand(2, 2)] * 5
    assert len(enumerate_parenthesizations(chain5)) == 14  # Catalan(4)


def test_enumeration_rejects_long_chains():
    with pytest.raises(ChainTooLong):
        enumerate_parenthesizations([operand(2, 2)] * 11)


def test_chain_requires_compatible_dims():
    with pytest.raises(DimMismatch):
        optimal_parenthesization([operand(2, 3), operand(4, 2)])
    with pytest.raises(ValueError, match="must not be empty"):
        optimal_parenthesization([])


def test_tie_breaks_choose_smallest_split():
    chain = [operand(4, 4)] * 3
    sol = optimal_parenthesization(chain)
    assert sol.split[0][2] == 0


def test_dp_table_invariants():
    chain = bench_chain()
    sol = optimal_parenthesization(chain)
    k = len(chain)
    for i in range(k):
        assert sol.cost[i][i] == 0
        assert sol.props[i][i] == chain[i].props
    for i in range(k):
        for j in range(i + 1, k):
            s = sol.split[i][j]
            left = (chain[i].rows, chain[s].cols, sol.props[i][s])
            right = (chain[s + 1].rows, chain[j].cols, sol.props[s + 1][j])
            assert sol.cost[i][j] == sol.cost[i][s] + sol.cost[s + 1][j] + \
                mul_cost(left, right)


def test_dp_matches_enumeration_on_random_chains():
    rng = random.Random(default_seed() ^ 0x2B)
    for _ in range(60):
        chain = random_chain(rng, max_len=7)
        sol = optimal_parenthesization(chain)
        trees = enumerate_parenthesizations(chain)
        best = min(c for _, c in trees)
        assert sol.total_cost == best
        assert tree_cost(sol.tree, chain) == sol.total_cost
        # monotonicity: no enumerated tree beats the DP cell
        assert all(sol.total_cost <= c for _, c in trees)


def test_subchain_type_independent_of_grouping():
    rng = random.Random(default_seed() ^ 0x3C)
    for _ in range(30):
        n = rng.randint(1, 8)
        chain = [operand(n, n, rng.choice(CLOSED_PSETS))
                 for _ in range(rng.randint(2, 6))]
        sol = optimal_parenthesization(chain)
        for tree, _ in enumerate_parenthesizations(chain):
            assert tree_props(tree, chain) == sol.props[0][len(chain) - 1]


def _leaves(tree):
    return [i for i, j in tree if i == j]


def test_trees_preserve_operand_order():
    rng = random.Random(default_seed() ^ 0x4D)
    for _ in range(40):
        chain = random_chain(rng, max_len=8)
        sol = optimal_parenthesization(chain)
        assert _leaves(sol.tree) == list(range(len(chain)))


def test_tree_string_of_deep_left_fold():
    k = 3000  # deeper than Python's default recursion limit
    names = [f"A{i}" for i in range(k)]
    expected = "(" * (k - 1) + names[0] + "".join(f"*{n})" for n in names[1:])
    assert tree_string(left_fold_tree(k), names) == expected


def test_postorder_spans_follow_dp_splits():
    rng = random.Random(default_seed() ^ 0x5E)
    for _ in range(60):
        chain = random_chain(rng, max_len=12)
        sol = optimal_parenthesization(chain)
        k = len(chain)
        assert len(sol.tree) == 2 * k - 1
        done = []  # spans of the subtrees read so far, not yet consumed
        for i, j in sol.tree:
            assert 0 <= i <= j < k
            if i < j:
                (ri, rj), (li, lj) = done.pop(), done.pop()
                s = sol.split[i][j]
                assert (li, lj, ri, rj) == (i, s, s + 1, j)
            done.append((i, j))
        assert done == [(0, k - 1)]
