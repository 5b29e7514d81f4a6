"""Chain DP against its naive reference, deep trees without recursion, and
the DP's pattern lookups and property inferences per cell."""

import random

from momc import chain as chain_mod
from momc.chain import (
    _build,
    left_fold_tree,
    optimal_parenthesization,
    tree_cost,
)
from momc.ir import MatrixType
from momc.properties import EMPTY_PROPS, ElemKind

from chain_reference import reference_parenthesization, tree_props
from gen import CLOSED_PSETS, default_seed, random_chain, run_chain


def assert_matches_reference(chain):
    sol = optimal_parenthesization(chain)
    ref = reference_parenthesization(chain)
    assert sol.cost == ref.cost
    assert sol.split == ref.split
    assert sol.props == ref.props
    assert sol.total_cost == ref.total_cost
    assert sol.tree == ref.tree
    return sol


def test_dp_tables_match_naive_reference():
    rng = random.Random(default_seed() ^ 0x6F)
    for _ in range(100):
        assert_matches_reference(random_chain(rng, min_len=1, max_len=30))


def test_long_chains_of_structured_runs_match_naive_reference():
    """Chains like chain-dp's: most splits have a full operand on one side
    and rectangular steps make m, k and n differ."""
    rng = random.Random(default_seed() ^ 0x3C)
    chains = [run_chain(rng, rng.randint(40, 60)) for _ in range(12)]
    assert any(op.rows == op.cols == 1 for chain in chains for op in chain)
    for chain in chains:
        assert_matches_reference(chain)


def test_costs_past_two_to_the_63_stay_exact():
    """Dims have no limit, so costs are Python ints: a fixed-width or float
    DP would wrap or round these tables."""
    n = 10 ** 7
    lower, upper, symm, diag = CLOSED_PSETS[1:]
    shapes = [(n + 3, n, EMPTY_PROPS), (n, n + 1, EMPTY_PROPS),
              (n + 1, n + 1, lower), (n + 1, n + 1, lower),
              (n + 1, n + 1, diag), (n + 1, n - 2, EMPTY_PROPS),
              (n - 2, n - 2, upper), (n - 2, n - 2, symm),
              (n - 2, n + 7, EMPTY_PROPS), (n + 7, n + 7, upper)]
    chain = [MatrixType(r, c, ElemKind.F64, p) for r, c, p in shapes]
    sol = assert_matches_reference(chain)
    assert sol.total_cost > 2 ** 63
    assert sol.cost[0][1] == (n + 3) * n * (n + 1)
    assert sol.cost[2][3] == (n + 1) * (n + 2) * (n + 3) // 6
    assert all(type(c) is int for row in sol.cost for c in row if c is not None)


def test_tree_walks_do_not_recurse():
    k = 3000
    chain = [MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)] * k
    tree = left_fold_tree(k)
    assert tree_cost(tree, chain) == (k - 1) * 8
    assert tree_props(tree, chain) == EMPTY_PROPS


def test_build_does_not_recurse():
    class Row:
        def __getitem__(self, j):
            return j - 1

    class Splits:
        def __getitem__(self, i):
            return Row()

    assert _build(Splits(), 3000) == left_fold_tree(3000)


def test_dp_looks_up_one_pattern_per_cell(monkeypatch):
    """One `stored_pattern` per cell and one `infer_mul` per product cell,
    through the names perfbench's tracer counts."""
    calls = {"stored_pattern": 0, "infer_mul": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(chain_mod, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(chain_mod, name, counted)
    k = 60
    rng = random.Random(default_seed() ^ 0x7A)
    optimal_parenthesization(random_chain(rng, min_len=k, max_len=k))
    assert calls == {"stored_pattern": k * (k + 1) // 2,
                     "infer_mul": k * (k - 1) // 2}
