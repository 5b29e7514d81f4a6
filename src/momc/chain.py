"""Structure-aware matrix-chain parenthesization.

Classic interval dynamic programming over a chain of typed operands, with a
cost model that counts scalar multiplications touching stored entries only:

    cost(a, b) = |{(i, j, k) : (i, k) in stored(a) and (k, j) in stored(b)}|

For unstructured operands this is the familiar m*k*n; triangular and diagonal
operands pay only for their stored region. Each DP cell also carries the
inferred type of its subchain product, so structure propagates into later
cost decisions. All costs are exact integers.

The stored pattern of each cell's type is looked up once, when the cell is
filled, and kept beside the type. The O(k^3) split scan then only does
integer arithmetic in `pattern_cost`, the one closed form of the cost model
(`mul_cost` is a thin wrapper over it). Every walk over a tree (`tree_type`,
`tree_cost`, `tree_string`, the optimizer's emission of products) is a loop
over the iterative `postorder`, which yields each node with the span i..j of
operands under it, the DP cell holding that node's type; so chain length is
not bounded by Python's recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import DimMismatch
from .properties import (
    PropertySet,
    StoredPattern,
    infer_mul,
    stored_pattern,
)

# (rows, cols, props) of an operand or of a subchain product.
OperandType = tuple[int, int, PropertySet]

_FULL = StoredPattern.FULL
_DIAG = StoredPattern.DIAG_ONLY


@dataclass(frozen=True)
class ChainOperand:
    rows: int
    cols: int
    props: PropertySet

    @property
    def type(self) -> OperandType:
        return (self.rows, self.cols, self.props)


@dataclass(frozen=True)
class ChainLeaf:
    index: int


@dataclass(frozen=True)
class ChainNode:
    left: "ChainTree"
    right: "ChainTree"


ChainTree = Union[ChainLeaf, ChainNode]


def pattern_cost(m: int, k: int, n: int,
                 pa: StoredPattern, pb: StoredPattern) -> int:
    """Scalar multiplications of an (m x k) by (k x n) product, in closed form.

    Structured patterns only occur on square operands (enforced by the type
    system), so the triangular/diagonal cases reduce to formulas in the shared
    inner dimension k.
    """
    if pa is _FULL:
        if pb is _FULL:
            return m * k * n
        if pb is _DIAG:
            return m * k
        return m * k * (k + 1) // 2  # triangular right
    if pa is _DIAG:
        if pb is _FULL:
            return k * n
        if pb is _DIAG:
            return k
        return k * (k + 1) // 2  # triangular right
    # triangular left
    if pb is _FULL:
        return k * (k + 1) // 2 * n
    if pb is _DIAG:
        return k * (k + 1) // 2
    if pa is pb:
        return k * (k + 1) * (k + 2) // 6
    return k * k + k * (k - 1) * (2 * k - 1) // 6


def mul_cost(a: OperandType, b: OperandType) -> int:
    """Scalar multiplications for one product of two typed operands."""
    m, ka, pa = a
    kb, n, pb = b
    if ka != kb:
        raise DimMismatch(f"inner dims disagree, {ka} vs {kb}")
    sa = stored_pattern(pa)
    sb = stored_pattern(pb)
    if sa is not _FULL and m != ka:
        raise DimMismatch("structured left operand must be square")
    if sb is not _FULL and n != ka:
        raise DimMismatch("structured right operand must be square")
    return pattern_cost(m, ka, n, sa, sb)


def product_type(a: OperandType, b: OperandType) -> OperandType:
    if a[1] != b[0]:
        raise DimMismatch(f"inner dims disagree, {a[1]} vs {b[0]}")
    return (a[0], b[1], infer_mul(a[2], (a[0], a[1]), b[2], (b[0], b[1])))


def _leaf_pattern(op: ChainOperand) -> StoredPattern:
    p = stored_pattern(op.props)
    if p is not _FULL and op.rows != op.cols:
        raise DimMismatch(
            f"structured operand must be square, got {op.rows}x{op.cols}")
    return p


def postorder(tree: ChainTree) -> Iterator[tuple[ChainTree, int, int]]:
    """Every node with the span i..j of operand indices under it, children
    before parents and left before right. A node's left child spans i..s and
    its right child s+1..j, like the DP's (i, split, j) cells."""
    stack: list[tuple[ChainTree, bool]] = [(tree, False)]
    spans: list[tuple[int, int]] = []
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, ChainLeaf):
            spans.append((node.index, node.index))
        elif children_done:
            j = spans.pop()[1]
            spans[-1] = (spans[-1][0], j)
        else:
            stack += ((node, True), (node.right, False), (node.left, False))
            continue
        yield node, *spans[-1]


def _evaluate(tree: ChainTree, chain: list[ChainOperand] | tuple[ChainOperand, ...]
              ) -> tuple[OperandType, int]:
    """Type and cost of a tree in one post-order pass; each node's type,
    pattern and product cost are computed once."""
    done: list[tuple[OperandType, StoredPattern, int]] = []
    for node, i, _ in postorder(tree):
        if isinstance(node, ChainLeaf):
            done.append((chain[i].type, _leaf_pattern(chain[i]), 0))
        else:
            rt, rp, rc = done.pop()
            lt, lp, lc = done.pop()
            t = product_type(lt, rt)
            done.append((t, stored_pattern(t[2]),
                         lc + rc + pattern_cost(lt[0], lt[1], rt[1], lp, rp)))
    t, _, cost = done[0]
    return t, cost


def tree_type(tree: ChainTree, chain: list[ChainOperand] | tuple[ChainOperand, ...]) -> OperandType:
    return _evaluate(tree, chain)[0]


def tree_cost(tree: ChainTree, chain: list[ChainOperand] | tuple[ChainOperand, ...]) -> int:
    """Recompute the scalar-multiplication cost of a parenthesization tree."""
    return _evaluate(tree, chain)[1]


def tree_string(tree: ChainTree, names: list[str] | tuple[str, ...]) -> str:
    """Bracketed rendering, e.g. `(A1*(A2*(A3*A4)))`."""
    done: list[str] = []
    for node, i, _ in postorder(tree):
        if isinstance(node, ChainLeaf):
            done.append(names[i])
        else:
            right = done.pop()
            done[-1] = f"({done[-1]}*{right})"
    return done[0]


def left_fold_tree(length: int) -> ChainTree:
    """The source-order parenthesization ((A1*A2)*A3)*..."""
    tree: ChainTree = ChainLeaf(0)
    for i in range(1, length):
        tree = ChainNode(tree, ChainLeaf(i))
    return tree


@dataclass
class ChainSolution:
    """DP tables plus the chosen tree. Cells are None below the diagonal."""

    cost: list[list[int | None]]          # m[i][j], exact integers
    split: list[list[int | None]]         # s[i][j]
    types: list[list[OperandType | None]]  # type of the subchain product
    tree: ChainTree
    total_cost: int


def _check_chain(chain: list[ChainOperand] | tuple[ChainOperand, ...]) -> None:
    if not chain:
        raise ValueError("chain must not be empty")
    for a, b in zip(chain, chain[1:]):
        if a.cols != b.rows:
            raise DimMismatch(f"inner dims disagree, {a.cols} vs {b.rows}")


def optimal_parenthesization(
        chain: list[ChainOperand] | tuple[ChainOperand, ...]) -> ChainSolution:
    """O(k^3) interval DP with per-cell type propagation.

    Subchain types fold left, which is safe because property inference is
    associative for square same-size operands. Cost ties break toward the
    smallest split index so dumps are deterministic.
    """
    _check_chain(chain)
    k = len(chain)
    dims = [op.rows for op in chain] + [chain[-1].cols]
    cost: list[list[int | None]] = [[None] * k for _ in range(k)]
    split: list[list[int | None]] = [[None] * k for _ in range(k)]
    types: list[list[OperandType | None]] = [[None] * k for _ in range(k)]
    pattern: list[list[StoredPattern | None]] = [[None] * k for _ in range(k)]
    for i, op in enumerate(chain):
        cost[i][i] = 0
        types[i][i] = op.type
        pattern[i][i] = _leaf_pattern(op)
    for length in range(2, k + 1):
        for i in range(0, k - length + 1):
            j = i + length - 1
            t = product_type(types[i][j - 1], types[j][j])  # type: ignore[arg-type]
            types[i][j] = t
            pattern[i][j] = stored_pattern(t[2])
            m, n = dims[i], dims[j + 1]
            cost_i, pattern_i = cost[i], pattern[i]
            best, best_s = math.inf, i
            for s in range(i, j):
                q = cost_i[s] + cost[s + 1][j] + pattern_cost(  # type: ignore[operator]
                    m, dims[s + 1], n, pattern_i[s], pattern[s + 1][j])  # type: ignore[arg-type]
                if q < best:
                    best, best_s = q, s
            cost[i][j] = best  # type: ignore[assignment]  # j > i: a split was taken
            split[i][j] = best_s

    total = cost[0][k - 1]
    assert total is not None
    return ChainSolution(cost, split, types, _build(split, k), total)


def _build(split: list[list[int | None]], k: int) -> ChainTree:
    """The tree a split table chooses for the whole chain, built iteratively."""
    stack: list[tuple[int, int, bool]] = [(0, k - 1, False)]
    done: list[ChainTree] = []
    while stack:
        i, j, children_done = stack.pop()
        if i == j:
            done.append(ChainLeaf(i))
        elif children_done:
            right = done.pop()
            done.append(ChainNode(done.pop(), right))
        else:
            s = split[i][j]
            assert s is not None
            stack += ((i, j, True), (s + 1, j, False), (i, s, False))
    return done[0]
