"""Naive reference for the chain DP: the solver as it was before cells kept
their stored patterns, recomputing each operand type's pattern inside
`mul_cost` for every split. Tests compare the production DP's tables with
this one cell by cell."""

from __future__ import annotations

from momc.chain import (
    ChainLeaf,
    ChainNode,
    ChainOperand,
    ChainSolution,
    ChainTree,
    OperandType,
    mul_cost,
    product_type,
)
from momc.errors import DimMismatch


def reference_parenthesization(
        chain: list[ChainOperand] | tuple[ChainOperand, ...]) -> ChainSolution:
    """O(k^3) interval DP; ties break toward the smallest split index."""
    if not chain:
        raise ValueError("chain must not be empty")
    for a, b in zip(chain, chain[1:]):
        if a.cols != b.rows:
            raise DimMismatch(f"inner dims disagree, {a.cols} vs {b.rows}")
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
