"""Reference oracles for the chain solver, used only by the tests.

- `mul_cost`: the cost of one product of two (rows, cols, props) operand
  types, checked and computed from scratch.
- `reference_parenthesization`: the DP as it was before cells kept their
  stored patterns, carrying a (rows, cols, props) type per cell and
  recomputing each type's pattern inside `mul_cost` for every split. Tests
  compare the production DP's tables with this one cell by cell.
- `enumerate_parenthesizations`: every binary tree of a short chain with its
  exact cost, the oracle for the DP's optimum.
- `cost_oracle`: the cost model counted triple by triple, the oracle for the
  closed forms.
- `tree_props`: the properties of the product a tree computes, which must
  not depend on the grouping.
"""

from __future__ import annotations

from typing import Iterator

from momc.chain import ChainSolution, ChainTree, pattern_cost, tree_cost
from momc.errors import DimMismatch
from momc.ir import MatrixType
from momc.properties import PropertySet, StoredPattern, infer_mul, stored_pattern

from util import pattern_contains

# (rows, cols, props) of an operand or of a subchain product.
OperandType = tuple[int, int, PropertySet]


class ChainTooLong(ValueError):
    """Exhaustive parenthesization requested for a chain longer than 10."""


def mul_cost(a: OperandType, b: OperandType) -> int:
    """Scalar multiplications for one product of two typed operands."""
    m, ka, pa = a
    kb, n, pb = b
    if ka != kb:
        raise DimMismatch(f"inner dims disagree, {ka} vs {kb}")
    sa = stored_pattern(pa)
    sb = stored_pattern(pb)
    if sa is not StoredPattern.FULL and m != ka:
        raise DimMismatch("structured left operand must be square")
    if sb is not StoredPattern.FULL and n != ka:
        raise DimMismatch("structured right operand must be square")
    return pattern_cost(m, ka, n, sa, sb)


def product_type(a: OperandType, b: OperandType) -> OperandType:
    if a[1] != b[0]:
        raise DimMismatch(f"inner dims disagree, {a[1]} vs {b[0]}")
    return (a[0], b[1], infer_mul(a[2], (a[0], a[1]), b[2], (b[0], b[1])))


def _check_chain(chain: list[MatrixType] | tuple[MatrixType, ...]) -> None:
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
            if pattern_contains(sa, i, k):
                for j in range(n):
                    if pattern_contains(sb, k, j):
                        count += 1
    return count


def _all_trees(i: int, j: int) -> Iterator[ChainTree]:
    if i == j:
        yield ((i, i),)
        return
    for s in range(i, j):
        for left in _all_trees(i, s):
            for right in _all_trees(s + 1, j):
                yield left + right + ((i, j),)


def enumerate_parenthesizations(
        chain: list[MatrixType] | tuple[MatrixType, ...]
) -> list[tuple[ChainTree, int]]:
    """All binary trees with their exact costs; the DP correctness oracle."""
    _check_chain(chain)
    if len(chain) > 10:
        raise ChainTooLong(f"{len(chain)} operands exceeds the enumeration "
                           "limit of 10")
    return [(tree, tree_cost(tree, chain))
            for tree in _all_trees(0, len(chain) - 1)]


def reference_parenthesization(
        chain: list[MatrixType] | tuple[MatrixType, ...]) -> ChainSolution:
    """O(k^3) interval DP; ties break toward the smallest split index. The
    solution's cells hold the properties of each cell's type."""
    _check_chain(chain)
    k = len(chain)
    cost: list[list[int | None]] = [[None] * k for _ in range(k)]
    split: list[list[int | None]] = [[None] * k for _ in range(k)]
    types: list[list[OperandType | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        cost[i][i] = 0
        types[i][i] = (chain[i].rows, chain[i].cols, chain[i].props)
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
            return ((i, i),)
        s = split[i][j]
        return build(i, s) + build(s + 1, j) + ((i, j),)

    props = [[None if t is None else t[2] for t in row] for row in types]
    return ChainSolution(cost, split, props, build(0, k - 1), cost[0][k - 1])


def tree_props(tree: ChainTree, chain: list[MatrixType]) -> PropertySet:
    """Properties of the product a parenthesization tree computes."""
    done: list[tuple[int, PropertySet]] = []  # per subtree: cols, properties
    for i, j in tree:
        if i == j:
            done.append((chain[i].cols, chain[i].props))
        else:
            n, rp = done.pop()
            k, lp = done.pop()
            done.append((n, infer_mul(lp, (chain[i].rows, k), rp, (k, n))))
    return done[0][1]
