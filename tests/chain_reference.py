"""Reference oracles for the chain solver, used only by the tests.

- `reference_parenthesization`: the DP as it was before cells kept their
  stored patterns, recomputing each operand type's pattern inside `mul_cost`
  for every split. Tests compare the production DP's tables with this one
  cell by cell.
- `enumerate_parenthesizations`: every binary tree of a short chain with its
  exact cost, the oracle for the DP's optimum.
- `cost_oracle`: the cost model counted triple by triple, the oracle for the
  closed forms.
"""

from __future__ import annotations

from typing import Iterator

from momc.chain import (
    ChainLeaf,
    ChainNode,
    ChainOperand,
    ChainSolution,
    ChainTree,
    OperandType,
    mul_cost,
    product_type,
    tree_cost,
)
from momc.errors import DimMismatch
from momc.properties import stored_pattern


class ChainTooLong(ValueError):
    """Exhaustive parenthesization requested for a chain longer than 10."""


def _check_chain(chain: list[ChainOperand] | tuple[ChainOperand, ...]) -> None:
    if not chain:
        raise ValueError("chain must not be empty")
    for a, b in zip(chain, chain[1:]):
        if a.cols != b.rows:
            raise DimMismatch(f"inner dims disagree, {a.cols} vs {b.rows}")


def cost_oracle(a: OperandType, b: OperandType) -> int:
    """Count the stored multiplication triples directly (dims at most 64)."""
    m, ka, pa = a
    kb, n, pb = b
    if ka != kb:
        raise DimMismatch(f"inner dims disagree, {ka} vs {kb}")
    if max(m, ka, n) > 64:
        raise ValueError("cost_oracle is for dims <= 64")
    sa = stored_pattern(pa)
    sb = stored_pattern(pb)
    count = 0
    for i in range(m):
        for k in range(ka):
            if sa.contains(i, k):
                for j in range(n):
                    if sb.contains(k, j):
                        count += 1
    return count


def _all_trees(i: int, j: int) -> Iterator[ChainTree]:
    if i == j:
        yield ChainLeaf(i)
        return
    for s in range(i, j):
        for left in _all_trees(i, s):
            for right in _all_trees(s + 1, j):
                yield ChainNode(left, right)


def enumerate_parenthesizations(
        chain: list[ChainOperand] | tuple[ChainOperand, ...]
) -> list[tuple[ChainTree, int]]:
    """All binary trees with their exact costs; the DP correctness oracle."""
    _check_chain(chain)
    if len(chain) > 10:
        raise ChainTooLong(f"{len(chain)} operands exceeds the enumeration "
                           "limit of 10")
    return [(tree, tree_cost(tree, chain))
            for tree in _all_trees(0, len(chain) - 1)]


def reference_parenthesization(
        chain: list[ChainOperand] | tuple[ChainOperand, ...]) -> ChainSolution:
    """O(k^3) interval DP; ties break toward the smallest split index."""
    _check_chain(chain)
    k = len(chain)
    cost: list[list[int | None]] = [[None] * k for _ in range(k)]
    split: list[list[int | None]] = [[None] * k for _ in range(k)]
    types: list[list[OperandType | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        cost[i][i] = 0
        types[i][i] = chain[i].type
    for length in range(2, k + 1):
        for i in range(0, k - length + 1):
            j = i + length - 1
            types[i][j] = product_type(types[i][j - 1], types[j][j])
            best: int | None = None
            best_s = i
            for s in range(i, j):
                q = cost[i][s] + cost[s + 1][j] \
                    + mul_cost(types[i][s], types[s + 1][j])
                if best is None or q < best:
                    best, best_s = q, s
            cost[i][j] = best
            split[i][j] = best_s

    def build(i: int, j: int) -> ChainTree:
        if i == j:
            return ChainLeaf(i)
        s = split[i][j]
        return ChainNode(build(i, s), build(s + 1, j))

    return ChainSolution(cost, split, types, build(0, k - 1), cost[0][k - 1])
