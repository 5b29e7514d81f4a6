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

Two scans fill the same tables. `_python_scan` tries one split at a time;
`_numpy_scan` fills one diagonal (span length) at a time, its split costs
as int64 arrays. Both fold a cell's properties through `_fold`, so the
property rules and the calls perfbench counts are the same in either.
`optimal_parenthesization` takes the numpy scan only when the chain has at
least `NUMPY_MIN_LENGTH` operands, numpy is already loaded (a compile never
imports it), and k * max(dims)^3 < 2^62, so that every cell and candidate
cost fits in int64; otherwise, as past 2^63, costs stay exact Python ints.

A tree is the tuple of its nodes' operand spans (i, j), that is their DP
cells, children before parents and left before right; a leaf is (i, i). A
walk is one loop over it with a stack of subtree results, so `tree_cost`,
`tree_string`, `_build` and the optimizer's emission of products are not
bounded by Python's recursion limit.
"""

from __future__ import annotations

import math
import sys
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


# Chains this long or longer take the numpy scan when numpy is loaded.
NUMPY_MIN_LENGTH = 32

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

    `_numpy_scan` runs when all three hold: the chain has at least
    `NUMPY_MIN_LENGTH` operands, numpy is already loaded, and
    k * max(dims)^3 < 2^62, which keeps every cell and candidate cost inside
    int64. Otherwise `_python_scan` runs. The two give identical tables. The
    crossover was measured on perfbench-like chains (`gen.run_chain`, dims
    2-16) with numpy loaded, on 2 vCPUs with Python 3.11 and numpy 2.4,
    Python against numpy: k = 4 14 / 63 us, k = 28 0.73 / 0.79 ms,
    k = 32 1.01 / 0.94, k = 90 15.1 / 4.7 and k = 256 328 / 50.
    """
    _check_chain(chain)
    k = len(chain)
    if (k >= NUMPY_MIN_LENGTH and sys.modules.get("numpy") is not None
            and k * max(chain[-1].cols, *(op.rows for op in chain)) ** 3 < 2 ** 62):
        return _numpy_scan(chain)
    return _python_scan(chain)


def _leaves(chain: Sequence[MatrixType]) -> tuple[list[int], list[list],
                                                   list[list], list[list]]:
    """The chain's k + 1 dims, and k x k props, pattern and stored-count
    tables holding the operands on their diagonal and None elsewhere."""
    k = len(chain)
    props: list[list] = [[None] * k for _ in range(k)]
    pattern: list[list] = [[None] * k for _ in range(k)]
    size: list[list] = [[None] * k for _ in range(k)]
    for i, op in enumerate(chain):
        props[i][i] = op.props
        pattern[i][i] = pat = stored_pattern(op.props)
        size[i][i] = _stored_count(op.rows, op.cols, pat)
    return [op.rows for op in chain] + [chain[-1].cols], props, pattern, size


def _fold(left: PropertySet, right: PropertySet, m: int, k: int,
          n: int) -> tuple[PropertySet, StoredPattern, int]:
    """Properties, stored pattern and stored-entry count of the product of
    an m x k subchain with properties `left` and a k x n operand with
    `right`: one cell's property fold, shared by both scans."""
    p = infer_mul(left, (m, k), right, (k, n))
    pat = stored_pattern(p)
    return p, pat, _stored_count(m, n, pat)


def _solution(cost: list[list], split: list[list],
              props: list[list]) -> ChainSolution:
    k = len(cost)
    return ChainSolution(cost, split, props, _build(split, k), cost[0][k - 1])


def _python_scan(chain: Sequence[MatrixType]) -> ChainSolution:
    """The DP, one cell and one split at a time."""
    k = len(chain)
    dims, props, pattern, size = _leaves(chain)
    cost: list[list] = [[None] * k for _ in range(k)]
    split: list[list] = [[None] * k for _ in range(k)]
    for i in range(k):
        cost[i][i] = 0
    for length in range(2, k + 1):
        for i in range(0, k - length + 1):
            j = i + length - 1
            m, n = dims[i], dims[j + 1]
            props[i][j], pattern[i][j], size[i][j] = _fold(
                props[i][j - 1], props[j][j], m, dims[j], n)
            cost_i, pattern_i, size_i = cost[i], pattern[i], size[i]
            best, best_s = math.inf, i
            for s in range(i, j):
                r = s + 1
                if pattern_i[s] is _FULL:
                    q = m * size[r][j]
                elif pattern[r][j] is _FULL:
                    q = size_i[s] * n
                else:
                    q = pattern_cost(m, dims[r], n, pattern_i[s], pattern[r][j])
                q += cost_i[s] + cost[r][j]
                if q < best:
                    best, best_s = q, s
            cost[i][j] = best
            split[i][j] = best_s
    return _solution(cost, split, props)


def _numpy_scan(chain: Sequence[MatrixType]) -> ChainSolution:
    """The DP one diagonal (span length) at a time, as in Cormen et al.,
    ch. 15, with each diagonal's split costs as int64 arrays.

    `flat` holds three k x k planes: cost, stored-entry count and is-full
    (0 or 1). Cell (i, j) of diagonal d = j - i takes its left operands
    (i, s) from row i and its right ones (s+1, j) from column j, for
    s = i..j-1, so both are strided views of `flat` of shape (3, k - d, d).
    When either operand is full, a split's product costs
    min(m * right count, left count * n): the full operand's count-rule
    term is exact, and the other term counts the other operand as full,
    which can only be more. Both subchain costs are added, and the few
    splits of two structured operands are priced again by `pattern_cost`.
    `argmin` returns the first minimum, the Python scan's smallest split.
    Needs k * max(dims)^3 < 2^62 and numpy already loaded.
    """
    import numpy as np

    k = len(chain)
    dims, props, pattern, size = _leaves(chain)
    flat = np.zeros(3 * k * k, np.int64)
    split = np.zeros(k * k, np.int64)
    plane, cell, col = (x * flat.itemsize for x in (k * k, k + 1, k))

    def view(start: int, shape: tuple, strides: tuple):
        return np.ndarray(shape, np.int64, flat, start * flat.itemsize, strides)

    leaves = view(0, (3, k), (plane, cell))
    leaves[1] = [size[i][i] for i in range(k)]
    leaves[2] = [pattern[i][i] is _FULL for i in range(k)]
    column = np.array(dims, np.int64)[:, None]
    rows = np.arange(k)
    for d in range(1, k):
        cells = k - d
        counts, fulls = [], []
        for i in range(cells):
            j = i + d
            props[i][j], pattern[i][j], size[i][j] = p = _fold(
                props[i][j - 1], props[j][j], dims[i], dims[j], dims[j + 1])
            counts.append(p[2])
            fulls.append(p[1] is _FULL)
        cost_l, count_l, full_l = view(0, (3, cells, d), (plane, cell, flat.itemsize))
        cost_r, count_r, full_r = view(k + d, (3, cells, d), (plane, cell, col))
        q = column[:cells] * count_r
        np.minimum(q, count_l * column[d + 1:], out=q)
        q += cost_l
        q += cost_r
        full = full_l | full_r
        if not full.all():
            cell_of, t = (full == 0).nonzero()  # the split is cell_of + t
            q[cell_of, t] = cost_l[cell_of, t] + cost_r[cell_of, t] + [
                pattern_cost(dims[i], dims[s + 1], dims[i + d + 1],
                             pattern[i][s], pattern[s + 1][i + d])
                for i, s in zip(cell_of.tolist(), (cell_of + t).tolist())]
        best = q.argmin(axis=1)
        diagonal = view(d, (3, cells), (plane, cell))
        diagonal[0] = q[rows[:cells], best]
        diagonal[1] = counts
        diagonal[2] = fulls
        split[d::k + 1][:cells] = rows[:cells] + best
    cost = flat[:k * k].reshape(k, k).tolist()
    splits = split.reshape(k, k).tolist()
    for i in range(k):
        cost[i][:i] = [None] * i
        splits[i][:i + 1] = [None] * (i + 1)
    return _solution(cost, splits, props)


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
