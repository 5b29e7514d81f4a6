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
count are computed once, so a split with a full operand is priced by one
multiplication, and only a split of two structured operands needs
`pattern_cost`.

One pre-pass, `_cells`, folds the chain's properties: each row folds
left up to its first `EMPTY_PROPS` cell, which absorbs under `infer_mul`,
so the rest of the row is full and stores m * n entries, and it lists the
few structured cells with their patterns and counts. Two scans then fill
the same tables from it. `_python_scan` tries one split at a time;
`_numpy_scan` fills one diagonal (span length) at a time, its split costs
as int64 arrays, and looks two structured operands, which share one size,
up in a per-size table of `pattern_cost`'s prices. So each rule exists
once.
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

import functools
import math
import sys
from typing import Sequence

from .errors import DimMismatch
from .ir import MatrixType
from .properties import (
    EMPTY_PROPS,
    PropertySet,
    StoredPattern,
    infer_mul,
    stored_pattern,
)
from .record import Record

_FULL = StoredPattern.FULL
_DIAG = StoredPattern.DIAG_ONLY
# The structured patterns; the numpy scan codes each by its index + 1.
_STRUCTURED = (StoredPattern.LOWER_INCL, StoredPattern.UPPER_INCL, _DIAG)


# Chains this long or longer take the numpy scan when numpy is loaded.
NUMPY_MIN_LENGTH = 22

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


@functools.lru_cache(maxsize=256)
def left_fold_tree(length: int) -> ChainTree:
    """The source-order parenthesization ((A1*A2)*A3)*...; the trees of the
    last 256 lengths asked for are kept."""
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
    structured operands is priced by `pattern_cost`. Cost ties break toward
    the smallest split index so dumps are deterministic.

    `_numpy_scan` runs when all three hold: the chain has at least
    `NUMPY_MIN_LENGTH` operands, numpy is already loaded, and
    k * max(dims)^3 < 2^62, which keeps every cell and candidate cost inside
    int64. Otherwise `_python_scan` runs. The two give identical tables. The
    crossover was measured on perfbench-like chains (`gen.run_chain`, dims
    2-16) with numpy loaded, on 2 vCPUs with Python 3.11 and numpy 2.4,
    Python against numpy: k = 4 0.026 / 0.12 ms, k = 20 0.36 / 0.38,
    k = 22 0.47 / 0.44, k = 24 0.53 / 0.47, k = 32 1.08 / 0.72,
    k = 90 19.7 / 3.2 and k = 256 430-460 / 27-37.
    """
    _check_chain(chain)
    k = len(chain)
    if (k >= NUMPY_MIN_LENGTH and sys.modules.get("numpy") is not None
            and k * max(chain[-1].cols, *(op.rows for op in chain)) ** 3 < 2 ** 62):
        return _numpy_scan(chain)
    return _python_scan(chain)


def _cells(chain: Sequence[MatrixType]) -> tuple[
        list[int], list[list], list[tuple[int, int, StoredPattern, int]]]:
    """The chain's k + 1 dims, its k x k props table (None below the
    diagonal) and the (i, j, pattern, stored-entry count) of each structured
    cell: the one fold of the chain's properties, which both scans read.

    Each row folds left under `infer_mul`. `EMPTY_PROPS` absorbs under it,
    so the fold stops at the row's first `EMPTY_PROPS` cell, and every later
    cell of the row is `EMPTY_PROPS`, full, and stores m * n entries. A cell
    that is not full spans square operands of one size.
    """
    k = len(chain)
    dims = [op.rows for op in chain] + [chain[-1].cols]
    props: list[list] = []
    structured: list[tuple[int, int, StoredPattern, int]] = []
    for i, op in enumerate(chain):
        p, j, row = op.props, i, [None] * i
        while True:
            row.append(p)
            pat = stored_pattern(p)
            if pat is not _FULL:
                structured.append((i, j, pat, _stored_count(dims[i], dims[i], pat)))
            if p is EMPTY_PROPS or j == k - 1:
                break
            j += 1
            p = infer_mul(p, (dims[i], dims[j]), chain[j].props, (dims[j], dims[j + 1]))
        props.append(row + [EMPTY_PROPS] * (k - 1 - j))
    return dims, props, structured


def _solution(cost: list[list], split: list[list],
              props: list[list]) -> ChainSolution:
    k = len(cost)
    return ChainSolution(cost, split, props, _build(split, k), cost[0][k - 1])


def _python_scan(chain: Sequence[MatrixType]) -> ChainSolution:
    """The DP, one cell and one split at a time."""
    k = len(chain)
    dims, props, structured = _cells(chain)
    pattern: list[list] = [[_FULL] * k for _ in range(k)]
    size: list[list] = [[None] * k for _ in range(k)]
    cost: list[list] = [[None] * k for _ in range(k)]
    split: list[list] = [[None] * k for _ in range(k)]
    for i, j, pat, count in structured:
        pattern[i][j], size[i][j] = pat, count
    for i in range(k):
        cost[i][i] = 0
        if pattern[i][i] is _FULL:
            size[i][i] = dims[i] * dims[i + 1]
    for length in range(2, k + 1):
        for i in range(0, k - length + 1):
            j = i + length - 1
            m, n = dims[i], dims[j + 1]
            cost_i, pattern_i, size_i = cost[i], pattern[i], size[i]
            if pattern_i[j] is _FULL:
                size_i[j] = m * n
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
            cost_i[j] = best
            split[i][j] = best_s
    return _solution(cost, split, props)


def _numpy_scan(chain: Sequence[MatrixType]) -> ChainSolution:
    """The DP one diagonal (span length) at a time, as in Cormen et al.,
    ch. 15, with each diagonal's split costs as int64 arrays.

    Nothing a cell holds but its cost depends on the costs, so all of it is
    built from `_cells` before the diagonal loop.

    `flat` holds three k x k planes: cost, stored-entry count and pattern
    code (0 for full, else 1 + the index in `_STRUCTURED`). Cell (i, j) of
    diagonal d = j - i takes its left operands (i, s) from row i and its
    right ones (s+1, j) from column j, for s = i..j-1, so both are strided
    views of `flat` of shape (3, k - d, d). When either operand is full, a
    split's product costs min(m * right count, left count * n): the full
    operand's count-rule term is exact, and the other term counts the other
    operand as full, which can only be more. A split of two structured
    operands has m = k = n = dims[i], and its price is looked up in a table
    that `pattern_cost` fills per distinct size of a structured cell; such
    splits exist only on diagonals up to 2 * reach + 1, reach being the
    longest span of a structured cell. `argmin` returns the first minimum,
    the Python scan's smallest split. Needs k * max(dims)^3 < 2^62 and numpy
    already loaded.
    """
    import numpy as np

    k = len(chain)
    dims, props, structured = _cells(chain)
    at = [i * k + j for i, j, _, _ in structured]  # their flat indices
    reach = max((j - i for i, j, _, _ in structured), default=-1)
    # dim of a structured cell -> its row in `table`
    sizes = {n: z for z, n in enumerate({dims[i] for i, *_ in structured})}
    dim = np.array(dims, np.int64)
    flat = np.zeros((3, k, k), np.int64)
    np.outer(dim[:-1], dim[1:], out=flat[1])  # a full cell stores m * n
    flat[1].flat[at] = [count for *_, count in structured]
    flat[2].flat[at] = [1 + _STRUCTURED.index(pat) for _, _, pat, _ in structured]
    flat = flat.reshape(-1)
    table = np.zeros((len(sizes), 4, 4), np.int64)
    for n, z in sizes.items():
        for a, pa in enumerate(_STRUCTURED, 1):
            for b, pb in enumerate(_STRUCTURED, 1):
                table[z, a, b] = pattern_cost(n, n, n, pa, pb)
    size_of = np.array([sizes.get(n, 0) for n in dims[:-1]], np.int64)[:, None]
    split = np.zeros(k * k, np.int64)
    plane, cell, col = (x * flat.itemsize for x in (k * k, k + 1, k))

    def view(start: int, shape: tuple, strides: tuple):
        return np.ndarray(shape, np.int64, flat, start * flat.itemsize, strides)

    column = dim[:, None]
    rows = np.arange(k)
    for d in range(1, k):
        cells = k - d
        cost_l, count_l, code_l = view(0, (3, cells, d), (plane, cell, flat.itemsize))
        cost_r, count_r, code_r = view(k + d, (3, cells, d), (plane, cell, col))
        q = column[:cells] * count_r
        np.minimum(q, count_l * column[d + 1:], out=q)
        if d <= 2 * reach + 1:
            np.putmask(q, (code_l != 0) & (code_r != 0),
                       table[size_of[:cells], code_l, code_r])
        q += cost_l
        q += cost_r
        best = q.argmin(axis=1)
        flat[d:k * k:k + 1][:cells] = q[rows[:cells], best]
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
