"""Chain DP against its naive reference, deep trees without recursion, and
the DP's pattern lookups per cell."""

import random

from momc import chain as chain_mod
from momc.chain import (
    ChainLeaf,
    _build,
    left_fold_tree,
    optimal_parenthesization,
    tree_cost,
)
from momc.ir import MatrixType
from momc.properties import EMPTY_PROPS, ElemKind

from chain_reference import reference_parenthesization, tree_props
from gen import default_seed, random_chain


def test_dp_tables_match_naive_reference():
    rng = random.Random(default_seed() ^ 0x6F)
    for _ in range(100):
        chain = random_chain(rng, min_len=1, max_len=30)
        sol = optimal_parenthesization(chain)
        ref = reference_parenthesization(chain)
        assert sol.cost == ref.cost
        assert sol.split == ref.split
        assert sol.props == ref.props
        assert sol.total_cost == ref.total_cost
        assert sol.tree == ref.tree


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

    k = 3000
    node = _build(Splits(), k)
    for j in range(k - 1, 0, -1):  # walk the left spine; == would recurse
        assert node.right == ChainLeaf(j)
        node = node.left
    assert node == ChainLeaf(0)


def test_dp_looks_up_one_pattern_per_cell(monkeypatch):
    calls = 0
    real = chain_mod.stored_pattern

    def counted(s):
        nonlocal calls
        calls += 1
        return real(s)

    monkeypatch.setattr(chain_mod, "stored_pattern", counted)
    k = 60
    rng = random.Random(default_seed() ^ 0x7A)
    optimal_parenthesization(random_chain(rng, min_len=k, max_len=k))
    assert 0 < calls <= k * (k + 1) // 2
