"""Structure-aware matrix-chain parenthesization.

`optimal_parenthesization` is the classic O(k^3) interval DP over a chain of
`ir.MatrixType` operands. Its cost model counts the scalar multiplications
that touch stored entries only:

    cost(a, b) = |{(i, j, k) : (i, k) in stored(a) and (k, j) in stored(b)}|

For unstructured operands this is the familiar m*k*n; triangular and diagonal
operands pay only for their stored region. `pattern_cost` is its one closed
form, and all costs are exact integers. It rests on one count rule: a full
left operand's m rows each meet every stored entry of the right operand
once, so the product costs m times the right operand's stored-entry count
(`_stored_count`); a full right operand costs the left's count times n, and
a diagonal operand the other's count. Only two triangular operands need a
formula of their own.

DP cell (i, j) holds the subchain product's cost, split, properties, stored
pattern and stored-entry count (its dims are `chain[i].rows` x
`chain[j].cols`), so structure propagates into later cost decisions, and the
optimizer types each emitted product from its cell. A cell's pattern and
count are computed once, when the cell is filled, so a split with a full
operand is priced inline by one multiplication, and `pattern_cost` is called
only for splits of two structured operands.

A tree is the tuple of its nodes' operand spans (i, j), that is their DP
cells, children before parents and left before right; a leaf is (i, i). A
walk is one loop over it with a stack of subtree results, so `tree_cost`,
`tree_string`, `_build` and the optimizer's emission of products are not
bounded by Python's recursion limit.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DimMismatch
from .ir import MatrixType
from .properties import (
    PropertySet,
    StoredPattern,
    infer_mul,
    stored_pattern,
)
from .record import Record

_FULL = StoredPattern.FULL
_DIAG = StoredPattern.DIAG_ONLY


# Node spans in postorder: an inner node (i, j) follows its children's
# spans (i, s) and (s+1, j).
ChainTree = tuple[tuple[int, int], ...]


def _stored_count(rows: int, cols: int, pattern: StoredPattern) -> int:
    """Entries a rows x cols operand stores; a structured one is square."""
    if pattern is _FULL:
        return rows * cols
    if pattern is _DIAG:
        return rows
    return rows * (rows + 1) // 2  # triangular


def pattern_cost(m: int, k: int, n: int,
                 pa: StoredPattern, pb: StoredPattern) -> int:
    """Scalar multiplications of an (m x k) by (k x n) product, in closed form.

    A full left operand, a full right one or a diagonal one multiplies the
    other's stored entries m times, n times or once (the module's count
    rule). Structured patterns only occur
    on square operands (enforced by the type system), so two triangular
    operands reduce to formulas in the shared inner dimension k.
    """
    if pa is _FULL:
        return m * _stored_count(k, n, pb)
    if pb is _FULL:
        return _stored_count(m, k, pa) * n
    if pa is _DIAG:
        return _stored_count(k, k, pb)
    if pb is _DIAG:
        return _stored_count(k, k, pa)
    if pa is pb:
        return k * (k + 1) * (k + 2) // 6
    return k * k + k * (k - 1) * (2 * k - 1) // 6


def tree_cost(tree: ChainTree, chain: Sequence[MatrixType]) -> int:
    """Recompute the scalar-multiplication cost of a parenthesization tree in
    one post-order pass; each node's properties, pattern and product cost are
    computed once."""
    # Per subtree: its product's column count, properties, pattern and cost.
    done: list[tuple[int, PropertySet, StoredPattern, int]] = []
    for i, j in tree:
        if i == j:
            p = chain[i].props
            done.append((chain[i].cols, p, stored_pattern(p), 0))
        else:
            n, rp, rpat, rc = done.pop()
            k, lp, lpat, lc = done.pop()
            m = chain[i].rows
            p = infer_mul(lp, (m, k), rp, (k, n))
            done.append((n, p, stored_pattern(p),
                         lc + rc + pattern_cost(m, k, n, lpat, rpat)))
    return done[0][3]


def tree_string(tree: ChainTree, names: list[str] | tuple[str, ...]) -> str:
    """Bracketed rendering, e.g. `(A1*(A2*(A3*A4)))`."""
    done: list[str] = []
    for i, j in tree:
        if i == j:
            done.append(names[i])
        else:
            right = done.pop()
            done[-1] = f"({done[-1]}*{right})"
    return done[0]


def left_fold_tree(length: int) -> ChainTree:
    """The source-order parenthesization ((A1*A2)*A3)*..."""
    return ((0, 0),) + tuple(span for j in range(1, length)
                             for span in ((j, j), (0, j)))


class ChainSolution(Record):
    """DP tables plus the chosen tree, as the spans of its nodes in
    postorder. Cells are None below the diagonal."""

    __slots__ = ("cost", "split", "props", "tree", "total_cost")

    def __init__(self, cost: list[list[int | None]], split: list[list[int | None]],
                 props: list[list[PropertySet | None]], tree: ChainTree,
                 total_cost: int) -> None:
        self.cost = cost    # m[i][j], exact integers
        self.split = split  # s[i][j]
        self.props = props  # properties of the subchain product
        self.tree = tree
        self.total_cost = total_cost


def _check_chain(chain: Sequence[MatrixType]) -> None:
    if not chain:
        raise ValueError("chain must not be empty")
    for a, b in zip(chain, chain[1:]):
        if a.cols != b.rows:
            raise DimMismatch(f"inner dims disagree, {a.cols} vs {b.rows}")


def optimal_parenthesization(chain: Sequence[MatrixType]) -> ChainSolution:
    """O(k^3) interval DP with per-cell property propagation.

    Subchain properties fold left, which is safe because property inference
    is associative for square same-size operands. Each cell also keeps its
    product's stored pattern and stored-entry count, so a split whose left
    operand is full costs m times the right cell's count, one whose right
    operand is full the left cell's count times n, and only a split of two
    structured operands calls `pattern_cost`. Cost ties break toward the
    smallest split index so dumps are deterministic.
    """
    _check_chain(chain)
    k = len(chain)
    dims = [op.rows for op in chain] + [chain[-1].cols]
    cost: list[list[int | None]] = [[None] * k for _ in range(k)]
    split: list[list[int | None]] = [[None] * k for _ in range(k)]
    props: list[list[PropertySet | None]] = [[None] * k for _ in range(k)]
    pattern: list[list[StoredPattern | None]] = [[None] * k for _ in range(k)]
    size: list[list[int | None]] = [[None] * k for _ in range(k)]
    for i, op in enumerate(chain):
        cost[i][i] = 0
        props[i][i] = op.props
        pattern[i][i] = pat = stored_pattern(op.props)
        size[i][i] = _stored_count(op.rows, op.cols, pat)
    for length in range(2, k + 1):
        for i in range(0, k - length + 1):
            j = i + length - 1
            m, n = dims[i], dims[j + 1]
            p = infer_mul(props[i][j - 1], (m, dims[j]),  # type: ignore[arg-type]
                          props[j][j], (dims[j], n))  # type: ignore[arg-type]
            props[i][j] = p
            pattern[i][j] = pat = stored_pattern(p)
            size[i][j] = _stored_count(m, n, pat)
            cost_i, pattern_i, size_i = cost[i], pattern[i], size[i]
            best, best_s = math.inf, i
            for s in range(i, j):
                r = s + 1
                if pattern_i[s] is _FULL:
                    q = m * size[r][j]  # type: ignore[operator]
                elif pattern[r][j] is _FULL:
                    q = size_i[s] * n  # type: ignore[operator]
                else:
                    q = pattern_cost(m, dims[r], n,  # type: ignore[arg-type]
                                     pattern_i[s], pattern[r][j])  # type: ignore[arg-type]
                q += cost_i[s] + cost[r][j]  # type: ignore[operator]
                if q < best:
                    best, best_s = q, s
            cost[i][j] = best  # type: ignore[assignment]  # j > i: a split was taken
            split[i][j] = best_s

    total = cost[0][k - 1]
    assert total is not None
    return ChainSolution(cost, split, props, _build(split, k), total)


def _build(split: list[list[int | None]], k: int) -> ChainTree:
    """The tree a split table chooses for the whole chain, built iteratively."""
    stack: list[tuple[int, int, bool]] = [(0, k - 1, False)]
    tree: list[tuple[int, int]] = []
    while stack:
        i, j, children_done = stack.pop()
        if i == j or children_done:
            tree.append((i, j))
        else:
            s = split[i][j]
            assert s is not None
            stack += ((i, j, True), (s + 1, j, False), (i, s, False))
    return tuple(tree)
