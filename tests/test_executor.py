"""Kernels and the instrumented executor.

The heavyweight guarantees here: dense and specialized matmul agree
bit-for-bit whenever off-pattern entries are exact zeros, both agree with a
naive triple-loop reference on integer-valued data, and the instrumented
multiplication counts equal the chain cost model exactly.
"""

import collections
import dataclasses
import math
import random
import re
import subprocess
import sys
import threading
import warnings
from itertools import product

import numpy as np
import pytest

from momc import executor, loops
from momc.errors import BrokenStoredPattern, DimMismatch, NonFiniteValue
from momc.executor import (
    _PRINT_BLOCK_ENTRIES as PRINT_BLOCK,
    _stored_mults,
    _stored_spans,
    ExecMode,
    Executor,
    execute,
    format_print,
    run_add,
    run_fill,
    run_matmul,
    run_transpose,
)
from momc.ir import format_scalar
from momc.loops import LoopModule
from momc.properties import (
    EMPTY_PROPS,
    ElemKind,
    Property,
    PropertySet,
    StoredPattern,
    stored_pattern,
)

from chain_reference import mul_cost
from gen import CLOSED_PSETS, default_seed, random_program
from oracle import is_exact_product
from util import lower_text, pattern_contains

LOWER = PropertySet.closure((Property.LOWER_TRIANGULAR,))
UPPER = PropertySet.closure((Property.UPPER_TRIANGULAR,))
DIAG = PropertySet.closure((Property.DIAGONAL,))
DTYPES = {ElemKind.F32: np.float32, ElemKind.F64: np.float64}


def buf(rows, cols, elem=ElemKind.F32):
    return np.zeros((rows, cols), DTYPES[elem])


def matmul(a, b, out, pa, pb, mode, proof=True):
    """`run_matmul` as `Executor.run` calls it in `mode`, for operands of
    property sets pa and pb: dense mode passes FULL twice and specialized
    mode the stored patterns; both pass, in place of lowering's proof, the
    run-time oracle on the operands themselves (no proof if `proof` is
    false)."""
    exact = proof and is_exact_product(a, b)
    if mode is ExecMode.DENSE:
        return run_matmul(a, b, out, StoredPattern.FULL, StoredPattern.FULL, exact)
    return run_matmul(a, b, out, pa.pattern, pb.pattern, exact)


def filled(rows, cols, scalar, pattern, elem=ElemKind.F32):
    b = buf(rows, cols, elem)
    run_fill(b, scalar, pattern)
    return b


def test_run_fill_lower_ones():
    b = filled(3, 3, 1.0, StoredPattern.LOWER_INCL)
    assert b.tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]


def test_run_fill_diagonal_is_identity():
    b = filled(3, 3, 1.0, StoredPattern.DIAG_ONLY)
    assert np.array_equal(b, np.eye(3, dtype=np.float32))


def test_run_fill_full_rectangular():
    b = filled(2, 3, 2.5, StoredPattern.FULL)
    assert b.tolist() == [[2.5, 2.5, 2.5], [2.5, 2.5, 2.5]]


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
def test_run_fill_sets_the_pattern_and_zeros_the_rest(elem):
    """Over a buffer of garbage, every pattern and shape up to 9x9: entries
    in the pattern become the scalar, every other entry exactly +0.0."""
    rng = np.random.default_rng(default_seed() ^ 0xF1)
    for pattern, rows, cols in product(StoredPattern, range(1, 10), range(1, 10)):
        b = (rng.standard_normal((rows, cols)) * 1e30).astype(DTYPES[elem])
        b[0, 0], b[-1, -1] = np.nan, -0.0
        run_fill(b, -2.5, pattern)
        inside = np.array([[pattern_contains(pattern, i, j) for j in range(cols)]
                           for i in range(rows)])
        assert (b[inside] == -2.5).all(), (pattern, rows, cols)
        assert (b[~inside] == 0).all() and not np.signbit(b[~inside]).any()


def test_matmul_lower_ones_specialized():
    a = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    b = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    out = buf(5, 5)
    count = matmul(a, b, out, LOWER, LOWER, ExecMode.SPECIALIZED)
    assert count == 35
    expected = [[i - j + 1 if i >= j else 0 for j in range(5)]
                for i in range(5)]
    assert out.tolist() == expected


def test_matmul_lower_ones_dense_same_values():
    a = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    b = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    out_d = buf(5, 5)
    out_s = buf(5, 5)
    assert matmul(a, b, out_d, LOWER, LOWER, ExecMode.DENSE) == 125
    matmul(a, b, out_s, LOWER, LOWER, ExecMode.SPECIALIZED)
    assert out_d.tobytes() == out_s.tobytes()


def test_matmul_rejects_dim_mismatch():
    with pytest.raises(DimMismatch):
        matmul(buf(2, 3), buf(4, 2), buf(2, 2), EMPTY_PROPS, EMPTY_PROPS,
               ExecMode.DENSE)
    with pytest.raises(DimMismatch):
        matmul(buf(2, 3), buf(3, 2), buf(3, 3), EMPTY_PROPS, EMPTY_PROPS,
               ExecMode.DENSE)
    with pytest.raises(DimMismatch):
        run_add(buf(2, 3), buf(3, 2), buf(2, 3))


def test_transpose_examples():
    lower = filled(3, 3, 1.0, StoredPattern.LOWER_INCL)
    out = run_transpose(lower)
    assert np.shares_memory(out, lower)
    assert out.tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    rect = buf(2, 3)
    rect[:] = [[1, 2, 3], [4, 5, 6]]
    out2 = run_transpose(rect)
    assert np.shares_memory(out2, rect)
    assert out2.tolist() == [[1, 4], [2, 5], [3, 6]]
    rect[1, 0] = 7  # a view, not a copy: it reads later writes
    assert out2[0, 1] == 7

    eye = filled(3, 3, 1.0, StoredPattern.DIAG_ONLY)
    out3 = run_transpose(eye)
    assert np.shares_memory(out3, eye)
    assert np.array_equal(out3, eye)


def test_add_examples():
    low = filled(3, 3, 1.0, StoredPattern.LOWER_INCL)
    out = buf(3, 3)
    run_add(low, low, out)
    assert out.tolist() == [[2, 0, 0], [2, 2, 0], [2, 2, 2]]

    zero = buf(3, 3)
    out2 = buf(3, 3)
    run_add(low, zero, out2)
    assert out2.tobytes() == low.tobytes()

    eye = filled(3, 3, 1.0, StoredPattern.DIAG_ONLY)
    out3 = buf(3, 3)
    run_add(eye, eye, out3)
    assert np.array_equal(out3, 2 * np.eye(3, dtype=np.float32))


def test_format_print_examples():
    eye = filled(2, 2, 1.0, StoredPattern.DIAG_ONLY)
    same_print(format_print(eye), "2x2 f32\n1 0\n0 1")

    one = buf(1, 1)
    one[0, 0] = 2.5
    same_print(format_print(one), "1x1 f32\n2.5")

    low = filled(3, 3, 1.0, StoredPattern.LOWER_INCL)
    same_print(format_print(low), "3x3 f32\n1 0 0\n1 1 0\n1 1 1")


def reference_format_print(b: np.ndarray) -> str:
    """The per-entry renderer: every entry through `format_scalar`."""
    header = f"{b.shape[0]}x{b.shape[1]} f{8 * b.itemsize}"
    rows = [" ".join(format_scalar(float(v)) for v in row) for row in b]
    return "\n".join([header] + rows)


def same_print(got, want, *context) -> None:
    """Fail unless got == want, for two prints or two tuples of prints,
    naming the first print and line that differ and showing a short excerpt
    of both sides around the first differing character. pytest's own report
    of `==` diffs the whole strings, which takes minutes on a print of a
    megabyte."""
    if got == want:
        return
    if isinstance(got, tuple):
        assert isinstance(want, tuple), context
        k = next((k for k, (x, y) in enumerate(zip(got, want)) if x != y), None)
        if k is None:
            pytest.fail(f"{context}: got {len(got)} prints, want {len(want)}",
                        pytrace=False)
        return same_print(got[k], want[k], *context, f"print {k}")
    a, b = got.split("\n"), want.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x, y = (a[i] if i < len(a) else "", b[i] if i < len(b) else "")
    j = next((j for j, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
    pytest.fail(f"{context}: line {i} differs (got {len(a)} lines, want {len(b)}); "
                f"from character {max(0, j - 30)}: got {x[max(0, j - 30):j + 50]!r}, "
                f"want {y[max(0, j - 30):j + 50]!r}", pytrace=False)


BELOW_1E18 = float(np.nextafter(1e18, 0))
# Entries format_scalar prints as integers (in f32, 2**24 + 1 rounds to an
# even integer and 1e18 rounds to an integer below 1e18) ...
WHOLE_VALUES = [-0.0, 0.0, 1e6, -1e6, 2.0**24 + 1, BELOW_1E18, -BELOW_1E18]
# ... and entries it prints through "%.6g".
OTHER_VALUES = [np.inf, -np.inf, np.nan, 0.5, -0.5, 1e-7, 999999.5,
                1e18, -1e18]


def _print_case(rng, rows, cols, elem, first=0):
    """A buffer whose row blocks (as format_print cuts them) are, in turn,
    all whole numbers, whole numbers mixed with every other kind of value,
    and random reals of mixed magnitude, starting with kind `first`. A
    block smaller than its special values takes a random few of them."""
    b = buf(rows, cols, elem)
    step = max(1, PRINT_BLOCK // cols)
    for n, r in enumerate(range(0, rows, step)):
        block = b[r:r + step]
        ints = rng.integers(-10**6, 10**6, size=block.shape) \
            * 10.0 ** rng.integers(0, 12, size=block.shape)
        kind = (n + first) % 3
        if kind == 2:
            block[:] = rng.standard_normal(block.shape) \
                * 10.0 ** rng.integers(-9, 9, size=block.shape)
            continue
        block[:] = ints
        specials = WHOLE_VALUES + (OTHER_VALUES if kind == 1 else [])
        if len(specials) > block.size:
            specials = rng.choice(specials, size=block.size, replace=False)
        at = rng.choice(block.size, size=len(specials), replace=False)
        block.reshape(-1)[at] = specials
    return b


def _inside(pattern, rows, cols):
    """The stored region of a pattern as a boolean array."""
    return np.broadcast_to(pattern_contains(pattern, *np.indices((rows, cols))),
                           (rows, cols))


@pytest.mark.parametrize("props", CLOSED_PSETS, ids=str)
@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
@pytest.mark.parametrize("rows,cols", [
    (1, 1),
    (3, 70_000),                                  # one row per block
    (40, 3 * (PRINT_BLOCK // 40) + 17),           # four blocks of many rows
    (150, 150),                                   # the diagonal crosses blocks
    (2, 3), (8, 8), (1, 64),                      # small: checked in Python
    (5, 13),                                      # 65 entries: through numpy
])
def test_format_print_matches_per_entry_reference(props, elem, rows, cols):
    """Under each closed set's pattern, realized on square and wide
    buffers: zeros (a tenth of them -0.0) outside it, and inside it the row
    blocks of `_print_case`, whole, mixed and real in turn. A buffer of one
    block is tried as each kind. (A pattern other than FULL comes from a
    property that needs a square matrix.)"""
    pattern = stored_pattern(props)
    if rows * cols == 1:  # each value alone decides its block's path
        for v in WHOLE_VALUES + OTHER_VALUES + [3.25, 7.0, -12.0]:
            b = buf(1, 1, elem)
            b[0, 0] = v
            same_print(format_print(b, pattern), reference_format_print(b), v)
        return
    rng = np.random.default_rng(default_seed())
    one_block = rows * cols <= PRINT_BLOCK
    for first in range(3 if one_block else 1):
        b = _print_case(rng, rows, cols, elem, first)
        outside = ~_inside(pattern, rows, cols)
        b[outside] = 0
        b[outside & (rng.random((rows, cols)) < 0.1)] = -0.0
        same_print(format_print(b, pattern), reference_format_print(b), first)


@pytest.mark.parametrize("pattern", list(StoredPattern), ids=str)
@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
@pytest.mark.parametrize("rows,cols", [
    (1, 1), (2, 3), (8, 8),                       # small
    (5, 13), (150, 150),                          # one block, several
    (40, 3 * (PRINT_BLOCK // 40) + 17),           # blocks of many rows
])
def test_format_print_trusts_a_known_interval(monkeypatch, pattern, elem, rows, cols):
    """Integers drawn from an interval inside the pattern, zeros outside it,
    and a tenth of all zeros -0.0: given the interval (widened to 0 under a
    pattern other than FULL), format_print checks no block and prints what
    the per-entry reference prints. It looks entries up in a table of the
    interval's strings when the interval holds no more values than the
    stored entries, and formats them without one (`_digits`, or
    `_small_lines` for at most 64 entries) when it holds more, as it does
    for the same interval widened by 10**6 on each side."""
    monkeypatch.setattr(executor, "_all_whole",
                        lambda block: pytest.fail("a known interval was checked"))
    tables = []
    real = executor._strings
    monkeypatch.setattr(executor, "_strings",
                        lambda *args: tables.append(t := real(*args)) or t)
    limit = 2 ** 24 if elem is ElemKind.F32 else 2 ** 53
    inside = _inside(pattern, rows, cols)
    small = pattern is StoredPattern.FULL and rows * cols <= executor.SMALL_PRINT_ENTRIES
    rng = np.random.default_rng(default_seed() ^ 0x1E)
    for lo, hi in [(-7, 12), (0, 0), (5, 5), (limit - 40, limit), (-limit, 1 - limit)]:
        b = np.where(inside, rng.integers(lo, hi, (rows, cols), endpoint=True), 0)
        b = b.astype(DTYPES[elem])
        b[(b == 0) & (rng.random((rows, cols)) < 0.1)] = -0.0
        if pattern is not StoredPattern.FULL:
            lo, hi = min(lo, 0), max(hi, 0)
        for interval in [(lo, hi), (lo - 10**6, hi + 10**6)]:
            del tables[:]
            same_print(format_print(b, pattern, interval), reference_format_print(b),
                       interval)
            table = interval[1] - interval[0] < inside.sum()
            assert [t is not None for t in tables] == ([] if small else [table])


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
def test_small_full_print_of_every_special_value(elem):
    """8x8, the largest buffer `format_print` checks in Python: every
    special value at once, and each alone among whole numbers up to 2**40,
    so that it alone decides between `%d` and `format_scalar`."""
    assert 8 * 8 == executor.SMALL_PRINT_ENTRIES
    rng = np.random.default_rng(default_seed() ^ 0x64)
    specials = WHOLE_VALUES + OTHER_VALUES
    for at in [None, *range(len(specials))]:
        b = buf(8, 8, elem)
        b[:] = rng.integers(-2**40, 2**40, size=(8, 8))
        flat = b.reshape(-1)
        if at is None:
            flat[rng.permutation(64)[:len(specials)]] = specials
        else:
            flat[rng.integers(64)] = specials[at]
        same_print(format_print(b), reference_format_print(b), at)
        same_print(format_print(b.T), reference_format_print(b.T), at)


# --------------------------------------------------------------------------
# FULL whole-number prints through the digit table
# --------------------------------------------------------------------------

# Both signs of every digit count's edges, the exact-integer limits, and zeros.
DIGIT_EDGES = [0.0, -0.0, 2.0**24, -2.0**24, 2.0**53, -2.0**53] + [
    s * v for k in range(1, 18) for v in (10**k - 1, 10**k) for s in (1, -1)]


@pytest.fixture
def no_fallback(monkeypatch):
    """Fails the test if format_print sends any entry to `format_scalar`."""
    monkeypatch.setattr(executor, "format_scalar",
                        lambda v: pytest.fail(f"{v} went through format_scalar"))


def _whole(rng, rows, cols, elem):
    """Whole numbers of 1 to 17 digits and both signs, DIGIT_EDGES first."""
    b = (rng.integers(-9, 10, (rows, cols)) * 10.0 ** rng.integers(0, 17, (rows, cols))
         + rng.integers(0, 10, (rows, cols))).astype(DTYPES[elem])
    flat = b.reshape(-1)
    flat[:len(DIGIT_EDGES)] = DIGIT_EDGES[:flat.size]
    return b


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
def test_the_digit_path_prints_every_digit_count(no_fallback, elem):
    """The edges alone in four shapes, and random whole numbers: as the
    per-entry reference, with unknown facts and with an interval too wide
    for a table of strings."""
    rng = np.random.default_rng(default_seed() ^ 0xD1)
    n = len(DIGIT_EDGES)
    assert n > executor.SMALL_PRINT_ENTRIES and n % 2 == 0
    edges = np.array(DIGIT_EDGES, DTYPES[elem])
    cases = [edges.reshape(shape)
             for shape in [(1, n), (n, 1), (2, n // 2), (n // 2, 2)]]
    for b in cases + [_whole(rng, 150, 150, elem), _whole(rng, 70, 3, elem)]:
        interval = int(b.min()), int(b.max())
        same_print(format_print(b), reference_format_print(b))
        same_print(format_print(b, StoredPattern.FULL, interval), reference_format_print(b))


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
def test_the_digit_path_prints_a_row_wider_than_a_block(no_fallback, elem):
    rng = np.random.default_rng(default_seed() ^ 0xD2)
    b = _whole(rng, 1, 2 * PRINT_BLOCK + 7, elem)
    same_print(format_print(b), reference_format_print(b))


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
@pytest.mark.parametrize("rows", [128, 129, 256, 301])
def test_the_digit_path_prints_in_the_calling_thread(
        monkeypatch, band_counts, elem, rows):
    """A print of EXACT_TILE rows or more, of 37-column rows (blocks of 110
    rows), whole or with one fractional block, on 1 CPU and on 2: the
    reference's bytes either way, with no row bands (a product of as many
    rows would take 2)."""
    rng = np.random.default_rng(default_seed() ^ rows)
    whole = _whole(rng, rows, 37, elem)
    mixed = whole.copy()
    mixed[120, 5] = 0.5
    for b, cpus in product((whole, mixed), (1, 2)):
        monkeypatch.setattr(executor, "_CPUS", cpus)
        same_print(format_print(b), reference_format_print(b))
    assert band_counts == []


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
def test_a_block_that_is_not_whole_falls_back_to_format_scalar(monkeypatch, elem):
    """Three blocks of 102 rows, the second holding one value that is not
    printed as an integer in this precision (in f32, ±1e18 rounds to a
    whole number below 1e18): that block alone goes through
    `format_scalar`."""
    calls = []
    real = executor._digits
    monkeypatch.setattr(executor, "_digits", lambda block: calls.append(len(block))
                        or real(block))
    step = PRINT_BLOCK // 40
    for v in OTHER_VALUES:
        b = _whole(np.random.default_rng(default_seed() ^ 0xD3), 3 * step, 40, elem)
        b[step + 7, 3] = v
        del calls[:]
        same_print(format_print(b), reference_format_print(b), v)
        x = float(b[step + 7, 3])
        whole = math.isfinite(x) and x.is_integer() and abs(x) < 1e18
        assert calls == [step] * (3 if whole else 2), v


def test_importing_the_executor_builds_no_digit_table():
    """The tables are made on the first digit-path print, not at import."""
    code = ("import numpy as np, momc.executor as e\n"
            "assert e._digit_tables.cache_info().currsize == 0\n"
            "e.format_print(np.ones((9, 9)))\n"
            "assert e._digit_tables.cache_info().currsize == 1\n"
            "digits, keeps, _ = e._digit_tables()\n"
            "assert [digits[i:i + 1].tobytes() for i in (0, 7, 4321, 9999)]"
            " == [b'0000', b'0007', b'4321', b'9999']\n"
            "assert keeps[[0, 7, 4321, 10000]].tobytes() == bytes("
            "[0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1])\n")
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.fixture
def formatted(monkeypatch):
    """The shapes of the blocks format_print hands `_digits` and
    `_small_lines`, by name, in the order it formats them."""
    calls = {"_digits": [], "_small_lines": []}
    for name, shapes in calls.items():
        real = getattr(executor, name)
        monkeypatch.setattr(executor, name, lambda block, *rest, real=real, shapes=shapes:
                            shapes.append(block.shape) or real(block, *rest))
    return calls


# Per structured shape, the rectangle each row block (27 rows of 150 columns,
# 13 of 300, 6 of 600) is cut to, in the order format_print formats them:
# lower triangles bottom up.
RECTANGLES = {
    (StoredPattern.LOWER_INCL, 150, 150):
        [(15, 150), (27, 135), (27, 108), (27, 81), (27, 54), (27, 27)],
    (StoredPattern.UPPER_INCL, 150, 150):
        [(27, 150), (27, 123), (27, 96), (27, 69), (27, 42), (15, 15)],
    (StoredPattern.UPPER_INCL, 40, 300): [(13, 300), (13, 287), (13, 274), (1, 261)],
    (StoredPattern.DIAG_ONLY, 40, 600): [(6, 6)] * 6 + [(4, 4)],
}


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
@pytest.mark.parametrize("pattern,rows,cols", list(RECTANGLES), ids=str)
def test_each_structured_block_takes_a_full_formatter(
        no_fallback, formatted, pattern, rows, cols, elem):
    """Nonzero whole numbers inside the pattern and zeros outside it, a
    tenth of them -0.0, print as the per-entry reference, and no entry goes
    through `format_scalar`. With unknown facts and with an interval too
    wide for a table of strings, each block's rectangle goes to `_digits`,
    or to `_small_lines` if it holds at most 64 entries (the diagonal's).
    With a narrow interval that does not start at 0, the rectangles past
    64 entries are looked up in the table."""
    rng = np.random.default_rng(default_seed() ^ 0x5B)
    inside = _inside(pattern, rows, cols)
    rectangles = RECTANGLES[pattern, rows, cols]
    small = rectangles[0][0] * rectangles[0][1] <= executor.SMALL_PRINT_ENTRIES
    for top, intervals in [(10**6, [None, (-10**6, 10**6)]), (50, [(-50, 50)])]:
        values = rng.integers(1, top, (rows, cols), endpoint=True)
        b = np.where(inside, values * rng.choice([-1, 1], (rows, cols)), 0)
        b = b.astype(DTYPES[elem])
        b[~inside & (rng.random((rows, cols)) < 0.1)] = -0.0
        want = reference_format_print(b)
        for interval in intervals:
            for shapes in formatted.values():
                del shapes[:]
            same_print(format_print(b, pattern, interval), want, interval)
            table = interval == (-50, 50) and not small
            assert formatted == {"_digits": [] if small or table else rectangles,
                                 "_small_lines": rectangles if small else []}


@pytest.mark.parametrize("pattern", [StoredPattern.LOWER_INCL,
                                     StoredPattern.UPPER_INCL,
                                     StoredPattern.DIAG_ONLY], ids=str)
@pytest.mark.parametrize("rows,cols", [(9, 9), (5, 5), (4, 11), (1, 20)])
def test_format_print_rejects_a_nonzero_outside_the_pattern(
        monkeypatch, pattern, rows, cols):
    """Blocks of 16 entries: a nonzero, NaN or inf at any entry outside the
    pattern raises and names that entry; a -0.0 there prints as 0. With
    every entry outside nonzero, the error names the first in row-major
    order, though lower triangles are formatted bottom up: (0, 1) for a
    9x9 lower triangle, not (7, 8)."""
    monkeypatch.setattr(executor, "_PRINT_BLOCK_ENTRIES", 16)
    inside = _inside(pattern, rows, cols)
    b = np.where(inside, 3.0, 0.0)
    same_print(format_print(b, pattern), reference_format_print(b))
    outside = list(zip(*np.nonzero(~inside)))
    if outside:
        i, j = outside[0]
        with pytest.raises(BrokenStoredPattern,
                           match=rf"^error: entry \({i}, {j}\) is 5,"):
            format_print(np.where(inside, 3.0, 5.0), pattern)
    for i, j in outside:
        for v, text in ((1.0, "1"), (np.nan, "nan"), (-np.inf, "-inf")):
            bad = b.copy()
            bad[i, j] = v
            with pytest.raises(BrokenStoredPattern, match=(
                    rf"^error: entry \({i}, {j}\) is {text}, "
                    rf"outside the stored pattern {pattern}$")):
                format_print(bad, pattern)
        bad = b.copy()
        bad[i, j] = -0.0
        same_print(format_print(bad, pattern), reference_format_print(b))


def test_a_buffer_that_breaks_its_pattern_stops_the_run(monkeypatch):
    """A fill that ignores its pattern leaves a nonzero above L's diagonal:
    the specialized run names the print that found it, and prints nothing.
    Dense mode prints every entry, so it shows the nonzero."""
    def fill_everything(buf, scalar, pattern):
        buf.fill(scalar)

    monkeypatch.setattr(executor, "run_fill", fill_everything)
    lm = lower_text("Matrix L(3, 3) <LowerTriangular> = 2\nprint(L)\n")
    with pytest.raises(BrokenStoredPattern, match=(
            r"^error: op 2 \(print %0\): "
            r"entry \(0, 1\) is 2, outside the stored pattern lowerIncl$")):
        execute(lm, ExecMode.SPECIALIZED, repeats=1)
    same_print(execute(lm, ExecMode.DENSE, repeats=1).printed,
               ("3x3 f32\n2 2 2\n2 2 2\n2 2 2",))


def _random_realization(rng, props, rows, cols, elem):
    """Integer-valued buffer (entries in [-8, 8]) respecting the pattern."""
    b = buf(rows, cols, elem)
    pat = stored_pattern(props)
    for i in range(rows):
        for j in range(cols):
            if pattern_contains(pat, i, j):
                b[i, j] = rng.randint(-8, 8)
    return b


def _naive_matmul(a, b):
    """Pure-python triple loop, ascending k, accumulating in python floats."""
    m, kk = a.shape
    n = b.shape[1]
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(kk):
                acc += float(a[i, k]) * float(b[k, j])
            out[i][j] = acc
    return np.array(out, dtype=a.dtype)


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
def test_matmul_matches_naive_reference_bit_exactly(elem):
    rng = random.Random(default_seed() ^ 0x70)
    for _ in range(30):
        m = rng.randint(1, 12)
        k = rng.randint(1, 12)
        n = rng.randint(1, 12)
        pa = rng.choice(CLOSED_PSETS) if m == k else EMPTY_PROPS
        pb = rng.choice(CLOSED_PSETS) if k == n else EMPTY_PROPS
        a = _random_realization(rng, pa, m, k, elem)
        b = _random_realization(rng, pb, k, n, elem)
        ref = _naive_matmul(a, b)
        for mode in ExecMode:
            out = buf(m, n, elem)
            matmul(a, b, out, pa, pb, mode)
            assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("rows,inner,cols", [(7, 7, 7), (3, 7, 11), (11, 7, 3),
                                           (1, 1, 1), (4, 0, 4)])
def test_stored_spans_hold_exactly_the_stored_entries(rows, inner, cols):
    """For every pattern pair, on square, wide and tall shapes: at each k the
    spans hold exactly the rows of a that store column k and the columns of
    b that store row k, no span ends before it starts (the count relies on
    that), and every bound is nondecreasing in k (the exact path's tiles rely
    on that)."""
    for pa, pb in product(StoredPattern, repeat=2):
        spans = _stored_spans(pa, pb, rows, inner, cols)
        assert [len(s) for s in spans] == [inner] * 4
        for k, (i0, i1, j0, j1) in enumerate(zip(*spans)):
            assert [*range(i0, i1)] == [
                i for i in range(rows) if pattern_contains(pa, i, k)]
            assert [*range(j0, j1)] == [
                j for j in range(cols) if pattern_contains(pb, k, j)]
        assert all(i0 <= i1 and j0 <= j1 for i0, i1, j0, j1 in zip(*spans))
        assert all(x <= y for s in spans for x, y in zip(s, s[1:]))


def test_count_fidelity_against_cost_model():
    rng = random.Random(default_seed() ^ 0x81)
    for pa, pb in product(CLOSED_PSETS, repeat=2):
        for n in range(1, 17):
            a = _random_realization(rng, pa, n, n, ElemKind.F64)
            b = _random_realization(rng, pb, n, n, ElemKind.F64)
            out = buf(n, n, ElemKind.F64)
            got = matmul(a, b, out, pa, pb, ExecMode.SPECIALIZED)
            assert got == mul_cost((n, n, pa), (n, n, pb))
            out2 = buf(n, n, ElemKind.F64)
            assert matmul(a, b, out2, pa, pb, ExecMode.DENSE) == n * n * n


def test_count_fidelity_rectangular_dense():
    rng = random.Random(default_seed() ^ 0x83)
    for _ in range(20):
        m, k, n = (rng.randint(1, 16) for _ in range(3))
        a = _random_realization(rng, EMPTY_PROPS, m, k, ElemKind.F32)
        b = _random_realization(rng, EMPTY_PROPS, k, n, ElemKind.F32)
        out = buf(m, n, ElemKind.F32)
        assert matmul(a, b, out, EMPTY_PROPS, EMPTY_PROPS,
                      ExecMode.DENSE) == m * k * n


def test_count_fidelity_structured_times_rectangular():
    rng = random.Random(default_seed() ^ 0x84)
    for props in CLOSED_PSETS:
        for k in range(1, 17):
            for free in (1, 7, 16):
                a = _random_realization(rng, props, k, k, ElemKind.F32)
                b = _random_realization(rng, EMPTY_PROPS, k, free, ElemKind.F32)
                out = buf(k, free, ElemKind.F32)
                got = matmul(a, b, out, props, EMPTY_PROPS,
                             ExecMode.SPECIALIZED)
                assert got == mul_cost((k, k, props), (k, free, EMPTY_PROPS))
                c = _random_realization(rng, EMPTY_PROPS, free, k, ElemKind.F32)
                out2 = buf(free, k, ElemKind.F32)
                got2 = matmul(c, a, out2, EMPTY_PROPS, props,
                              ExecMode.SPECIALIZED)
                assert got2 == mul_cost((free, k, EMPTY_PROPS), (k, k, props))


# --------------------------------------------------------------------------
# The exact BLAS paths of both modes
# --------------------------------------------------------------------------

# (SMALL_MAX_MULTS, whether the proof is passed) pairs that send every
# product one way: an exact product takes BLAS whatever its size, an
# inexact one the one-shot path up to SMALL_MAX_MULTS and the loop past it.
NEVER = 1 << 62  # a cutoff beyond every product
FORCED_LOOP = (0, False)
EXACT_PATH = (0, True)
SMALL_PATH = (NEVER, True)


@pytest.fixture
def matmul_calls(monkeypatch):
    """Lists the operand shapes of every np.matmul call."""
    calls = []
    real = np.matmul

    def spy(x, y, *args, **kwargs):
        calls.append((x.shape, y.shape))
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


@pytest.fixture
def accumulate_calls(monkeypatch):
    """Lists the shape of every array the executor sums with np.add.accumulate."""
    calls = []

    class Add:
        def __call__(self, *args, **kwargs):
            return np.add(*args, **kwargs)

        def accumulate(self, p, *args, **kwargs):
            calls.append(p.shape)
            return np.add.accumulate(p, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(np.add, name)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(executor, "np", Numpy())
    return calls


def _matmul_both_ways(monkeypatch, a, b, pa=EMPTY_PROPS, pb=EMPTY_PROPS,
                      path=EXACT_PATH, mode=ExecMode.SPECIALIZED):
    """(the forced rank-1 loop, the given path): (out, count) each."""
    results = []
    for small_max, proof in (FORCED_LOOP, path):
        monkeypatch.setattr(executor, "SMALL_MAX_MULTS", small_max)
        out = np.zeros((a.shape[0], b.shape[1]), a.dtype)
        with np.errstate(all="ignore"):
            count = matmul(a, b, out, pa, pb, mode, proof)
        results.append((out, count))
    return results


def _at_bound(rng, rows, inner, cols, max_a, max_b, dtype):
    """Random integers with max|a| = max_a and max|b| = max_b exactly."""
    a = rng.integers(-max_a, max_a, (rows, inner), endpoint=True).astype(dtype)
    b = rng.integers(-max_b, max_b, (inner, cols), endpoint=True).astype(dtype)
    a[0, 0], b[-1, -1] = -max_a, max_b
    return a, b


def _boundary_cases(rng, dtype):
    """(name, a, b, whether the product is provably exact)."""
    p = 24 if dtype is np.float32 else 53
    # 4 * 2**q * 2**(p - 2 - q) == 2**p
    q = (p - 2) // 2
    a, b = _at_bound(rng, 5, 4, 6, 2 ** q, 2 ** (p - 2 - q), dtype)
    cases = [("bound 2**p", a, b, True)]
    # 2**24 + 1 == 97 * 257 * 673 and 2**53 + 1 == 3 * 107 * 28059810762433
    inner, max_a, max_b = (97, 257, 673) if p == 24 else (3, 107, 28059810762433)
    assert inner * max_a * max_b == 2 ** p + 1
    cases.append(("bound 2**p + 1", *_at_bound(rng, 5, inner, 6, max_a, max_b,
                                               dtype), False))
    half = a.copy()
    half[2, 1] = 0.5
    cases.append(("an entry of 0.5", half, b, False))
    for v in (np.inf, -np.inf, np.nan):
        bad = b.copy()
        bad[1, 2] = v
        cases.append((f"an entry of {v}", a, bad, False))
    return cases


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_exact_path_boundary_cases(monkeypatch, matmul_calls, dtype):
    """At 2**p the product is exact and one BLAS call of the whole
    operands; one step past it, or with a fraction, inf or NaN, it is not,
    and makes no BLAS call. Either way it gives the loop's bits and count."""
    rng = np.random.default_rng(default_seed() ^ 0xE1)
    for name, a, b, exact in _boundary_cases(rng, dtype):
        assert is_exact_product(a, b) is exact, name
        del matmul_calls[:]
        (loop, n_loop), (got, n_got) = _matmul_both_ways(monkeypatch, a, b)
        assert matmul_calls == ([(a.shape, b.shape)] if exact else []), name
        assert got.tobytes() == loop.tobytes(), name
        assert n_got == n_loop == a.shape[0] * a.shape[1] * b.shape[1], name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_exact_path_adds_into_positive_zeros(monkeypatch, dtype):
    """A negative row times a zero column sums -0.0s. A BLAS may return
    that -0.0 (this spy does); the loop's `+=` into +0.0 gives +0.0, and so
    must the exact path."""
    real = np.matmul

    def negative_zeros(x, y):
        r = real(x, y)
        r[r == 0] = -0.0
        return r

    monkeypatch.setattr(np, "matmul", negative_zeros)
    a = np.full((3, 4), -1.0, dtype)
    b = np.zeros((4, 5), dtype)
    b[:, 1:] = 2.0
    assert np.signbit(np.matmul(a, b)[:, 0]).all()
    (loop, _), (got, _) = _matmul_both_ways(monkeypatch, a, b)
    assert (got[:, 0] == 0).all() and not np.signbit(got[:, 0]).any()
    assert got.tobytes() == loop.tobytes()


def test_exact_path_counts_and_bits_match_the_loop(monkeypatch, matmul_calls):
    """Every pair of closed property sets, n = 1..16, in tiles of 8: a
    product that fits one tile (n <= 8) is one BLAS call of its whole
    operands, a larger one runs in trimmed tiles. Both return the cost
    model's count and the loop's bytes."""
    monkeypatch.setattr(executor, "EXACT_TILE", 8)
    rng = random.Random(default_seed() ^ 0xE2)
    for pa, pb in product(CLOSED_PSETS, repeat=2):
        for n in range(1, 17):
            a = _random_realization(rng, pa, n, n, ElemKind.F64)
            b = _random_realization(rng, pb, n, n, ElemKind.F64)
            del matmul_calls[:]
            (loop, n_loop), (got, n_got) = _matmul_both_ways(
                monkeypatch, a, b, pa, pb)
            if n <= 8:
                assert matmul_calls == [((n, n), (n, n))]
            else:
                assert matmul_calls and all(
                    x[0] <= 8 and y[1] <= 8 for x, y in matmul_calls)
            assert n_got == n_loop == mul_cost((n, n, pa), (n, n, pb))
            assert got.tobytes() == loop.tobytes()


def test_exact_path_tiles_are_trimmed_to_the_stored_spans(
        monkeypatch, matmul_calls):
    """30x30 in tiles of 8 (rows 0, 8, 16, 24; the last band 6 wide): each
    tile multiplies only the k range, rows and columns that the stored spans
    reaching it cover, and a tile no span reaches makes no call."""
    monkeypatch.setattr(executor, "EXACT_TILE", 8)
    upper = PropertySet.closure((Property.UPPER_TRIANGULAR,))
    rng = random.Random(default_seed() ^ 0xE3)
    sq = {8: ((8, 8), (8, 8)), 6: ((6, 6), (6, 6))}
    expected = {
        # (i, j) takes k with j <= k <= i: tiles above the diagonal are skipped
        (LOWER, LOWER): [
            sq[8],
            ((8, 16), (16, 8)), sq[8],
            ((8, 24), (24, 8)), ((8, 16), (16, 8)), sq[8],
            ((6, 30), (30, 8)), ((6, 22), (22, 8)), ((6, 14), (14, 8)), sq[6]],
        # i <= k <= j: tiles below the diagonal are skipped
        (upper, upper): [
            sq[8], ((8, 16), (16, 8)), ((8, 24), (24, 8)), ((8, 30), (30, 6)),
            sq[8], ((8, 16), (16, 8)), ((8, 22), (22, 6)),
            sq[8], ((8, 14), (14, 6)),
            sq[6]],
        # k = i and j <= i: one k per row, columns up to the tile's last row
        (DIAG, LOWER): [
            sq[8],
            sq[8], sq[8],
            sq[8], sq[8], sq[8],
            ((6, 6), (6, 8)), ((6, 6), (6, 8)), ((6, 6), (6, 8)), sq[6]],
        # k <= min(i, j): every tile, k up to the nearer of its edges
        (LOWER, upper): [
            sq[8], sq[8], sq[8], ((8, 8), (8, 6)),
            sq[8], ((8, 16), (16, 8)), ((8, 16), (16, 8)), ((8, 16), (16, 6)),
            sq[8], ((8, 16), (16, 8)), ((8, 24), (24, 8)), ((8, 24), (24, 6)),
            ((6, 8), (8, 8)), ((6, 16), (16, 8)), ((6, 24), (24, 8)),
            ((6, 30), (30, 6))],
        # the diagonal tiles alone
        (DIAG, DIAG): [sq[8], sq[8], sq[8], sq[6]],
    }
    for (pa, pb), shapes in expected.items():
        a = _random_realization(rng, pa, 30, 30, ElemKind.F32)
        b = _random_realization(rng, pb, 30, 30, ElemKind.F32)
        del matmul_calls[:]
        (loop, n_loop), (got, n_got) = _matmul_both_ways(monkeypatch, a, b, pa, pb)
        # Bands of tiles run on several threads: the calls, not their order.
        assert sorted(matmul_calls) == sorted(shapes)
        assert got.tobytes() == loop.tobytes() and n_got == n_loop


_DECLARATION = re.compile(r"^(Matrix .*>)(?: = (\d+))?$", re.MULTILINE)


def _fractional(rng, text):
    """A program's text with each declared matrix's whole fill f (1 if none
    is given) made f.d, d a random digit 1..9: no product is then exact."""
    return _DECLARATION.sub(lambda m: f"{m[1]} = {m[2] or 1}.{rng.randint(1, 9)}",
                            text)


def _without_proof(lm):
    """lm with no product proved exact."""
    return LoopModule(tuple(dataclasses.replace(op, exact=False)
                            if isinstance(op, loops.MatMul) else op
                            for op in lm.ops), lm.tensors)


def test_dense_mode_passes_lowerings_proof(monkeypatch):
    """Executor.run hands `run_matmul` each product's own `exact` in dense
    mode, with FULL for both operands, as it does in specialized mode with
    the stored patterns: generated programs (exact by construction) and the
    same programs with fractional fills (none exact)."""
    calls = []
    real = executor.run_matmul
    monkeypatch.setattr(executor, "run_matmul",
                        lambda *args: calls.append(args[3:]) or real(*args))
    full = StoredPattern.FULL
    rng = random.Random(default_seed() ^ 0xE5)
    proofs = collections.Counter()
    for _ in range(100):
        text = random_program(rng, max_dim=12)
        for lm in (lower_text(text), lower_text(_fractional(rng, text))):
            products = [op for op in lm.ops if isinstance(op, loops.MatMul)]
            proofs.update(op.exact for op in products)
            for mode in ExecMode:
                del calls[:]
                Executor(lm).run(mode, repeats=1)
                assert calls == [
                    ((full, full) if mode is ExecMode.DENSE else (op.pa, op.pb))
                    + (op.exact,) for op in products]
    assert proofs[True] > 100 and proofs[False] > 100


def test_generated_programs_bit_identical_through_the_exact_path(
        monkeypatch, matmul_calls):
    """Generated programs are exact by construction (gen.MAX_MAG), so in
    both modes every product runs on BLAS: in one call as shipped, and also
    in tiles with EXACT_TILE at 4. Each run gives the bytes, signbit
    included, and the counts of the rank-1 loop: the same module with no
    product proved exact, and SMALL_MAX_MULTS at 0."""
    rng = random.Random(default_seed() ^ 0xE4)
    for _ in range(300):
        lm = lower_text(random_program(rng, max_dim=12))
        assert all(op.exact for op in lm.ops if isinstance(op, loops.MatMul))
        for mode in ExecMode:
            loop = Executor(_without_proof(lm))
            with monkeypatch.context() as m:
                m.setattr(executor, "SMALL_MAX_MULTS", 0)
                loop_report = loop.run(mode, repeats=1)
            for tile in (executor.EXACT_TILE, 4):
                fast = Executor(lm)
                with monkeypatch.context() as m:
                    m.setattr(executor, "EXACT_TILE", tile)
                    fast_report = fast.run(mode, repeats=1)
                same_print(fast_report.printed, loop_report.printed)
                for tid in lm.tensors:
                    assert fast.buffers[tid].tobytes() == loop.buffers[tid].tobytes()
                assert fast_report.mults == loop_report.mults
    assert len(matmul_calls) > 300


# --------------------------------------------------------------------------
# The one-shot path for small products
# --------------------------------------------------------------------------

def _real_realization(rng, props, rows, cols, dtype):
    """Reals of magnitude 10**-3 to 10**3 in the pattern, +0.0 outside it,
    and about a tenth of all entries -0.0."""
    x = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, (rows, cols))
    pat = stored_pattern(props)
    for i, j in product(range(rows), range(cols)):
        if not pattern_contains(pat, i, j):
            x[i, j] = 0.0
    x[rng.random((rows, cols)) < 0.1] = -0.0
    return x.astype(dtype)


def test_small_path_matches_the_loop_bit_for_bit(monkeypatch, accumulate_calls):
    """2,000 products with m, k, n in 1..8, f32 and f64, under every pair of
    closed property sets that fits the shape, in both modes: the one-shot
    path gives the loop's bytes, signbit included, and the loop's count."""
    rng = np.random.default_rng(default_seed() ^ 0xA1)
    for draw in range(2000):
        m, k, n = (int(d) for d in rng.integers(1, 9, 3))
        dtype = (np.float32, np.float64)[draw % 2]
        pairs = product(CLOSED_PSETS if m == k else [EMPTY_PROPS],
                        CLOSED_PSETS if k == n else [EMPTY_PROPS])
        for pa, pb in pairs:
            a = _real_realization(rng, pa, m, k, dtype)
            b = _real_realization(rng, pb, k, n, dtype)
            for mode in ExecMode:
                del accumulate_calls[:]
                (loop, n_loop), (got, n_got) = _matmul_both_ways(
                    monkeypatch, a, b, pa, pb, SMALL_PATH, mode)
                assert accumulate_calls == [(m, k, n)]
                assert got.tobytes() == loop.tobytes(), (m, k, n, pa, pb, mode)
                assert n_got == n_loop


def test_generated_programs_bit_identical_through_the_small_path(
        monkeypatch, accumulate_calls):
    """Generated programs with fractional fills, so that no product is
    exact, give the same prints, buffers and counts in both modes with the
    one-shot path on (as shipped), where every product (at most 12^3
    mults) takes it, and off, on the rank-1 loop."""
    rng = random.Random(default_seed() ^ 0xA2)
    for _ in range(300):
        lm = lower_text(_fractional(rng, random_program(rng, max_dim=12)))
        products = sum(isinstance(op, loops.MatMul) for op in lm.ops)
        for mode in ExecMode:
            on, off = Executor(lm), Executor(lm)
            taken = len(accumulate_calls)
            on_report = on.run(mode, repeats=1)
            assert len(accumulate_calls) == taken + products
            with monkeypatch.context() as m:
                m.setattr(executor, "SMALL_MAX_MULTS", 0)
                off_report = off.run(mode, repeats=1)
            assert len(accumulate_calls) == taken + products
            same_print(on_report.printed, off_report.printed)
            for tid in lm.tensors:
                assert on.buffers[tid].tobytes() == off.buffers[tid].tobytes()
            assert on_report.mults == off_report.mults
    assert len(accumulate_calls) > 300


# --------------------------------------------------------------------------
# Row bands of large products on worker threads
# --------------------------------------------------------------------------

@pytest.fixture
def band_counts(monkeypatch):
    """Lists n of every `_in_bands(band, n)` call."""
    calls = []
    real = executor._in_bands

    def spy(band, n):
        calls.append(n)
        return real(band, n)

    monkeypatch.setattr(executor, "_in_bands", spy)
    return calls


@pytest.fixture
def fast_switching():
    """Threads trade the interpreter lock every 10 us instead of every 5 ms,
    so that bands sharing rows would interleave their updates."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def _operand(rng, props, rows, cols, dtype, integral):
    """Entries in the pattern random, +0.0 outside it: integers in [-8, 8],
    or reals of magnitude 10**-3 to 10**3, whose sums depend on their order."""
    if integral:
        x = rng.integers(-8, 8, (rows, cols), endpoint=True).astype(float)
    else:
        x = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, (rows, cols))
    inside = pattern_contains(stored_pattern(props), *np.ogrid[:rows, :cols])
    x[~np.broadcast_to(inside, x.shape)] = 0.0
    return x.astype(dtype)


@pytest.mark.parametrize("tile,shapes", [
    # As shipped; 601 is a multiple of neither EXACT_TILE nor 2 or 3 bands.
    (executor.EXACT_TILE, [(601, 7, 64), (601, 601, 2)]),
    # Square operands, quick in tiles of 16.
    (16, [(65, 65, 65)]),
])
def test_row_bands_give_one_bands_bytes_and_count(
        monkeypatch, band_counts, matmul_calls, fast_switching, tile, shapes):
    """Products under every pair of closed property sets that fits, f32 and
    f64, reals and integers, both modes: in 2 and 3 row bands, the loop and
    the exact tiles give the bytes and the count of one band.
    EXACT_BAND_MULTS and LOOP_BAND_MULTS are 1 here, so both kernels band
    products this small."""
    monkeypatch.setattr(executor, "EXACT_TILE", tile)
    monkeypatch.setattr(executor, "SMALL_MAX_MULTS", 0)
    monkeypatch.setattr(executor, "EXACT_BAND_MULTS", 1)
    monkeypatch.setattr(executor, "LOOP_BAND_MULTS", 1)
    rng = np.random.default_rng(default_seed() ^ 0xB1)
    for (rows, inner, cols), dtype, integral in product(
            shapes, (np.float32, np.float64), (False, True)):
        pairs = product(CLOSED_PSETS if rows == inner else [EMPTY_PROPS],
                        CLOSED_PSETS if inner == cols else [EMPTY_PROPS])
        for (pa, pb), mode in product(pairs, ExecMode):
            a = _operand(rng, pa, rows, inner, dtype, integral)
            b = _operand(rng, pb, inner, cols, dtype, integral)
            del band_counts[:], matmul_calls[:]
            results = []
            for cpus in (1, 2, 3):
                monkeypatch.setattr(executor, "_CPUS", cpus)
                out = np.zeros((rows, cols), dtype)
                with np.errstate(over="raise", invalid="raise"):
                    count = matmul(a, b, out, pa, pb, mode)
                results.append((out.tobytes(), count))
            assert band_counts == [1, 2, 3]
            assert bool(matmul_calls) is integral
            assert results[0] == results[1] == results[2], (
                rows, inner, cols, pa, pb, dtype, integral, mode)


@pytest.mark.parametrize("shape,pa,pb,fill,path,bands", [
    # kernels' 256-row structured-f32 products: 8.4M mults, one band.
    ((256, 256, 256), EMPTY_PROPS, UPPER, 2.0, "tiles", 1),
    ((256, 256, 256), UPPER, DIAG, 3.0, "tiles", 1),
    # chain4's last product, inexact, on the loop: its band count stays.
    ((800, 1100, 100), EMPTY_PROPS, EMPTY_PROPS, 0.5, "loop", 2),
    # kernels' 1000^2 f64 lower x lower product, exact in tiles: 167M mults.
    ((1000, 1000, 1000), LOWER, LOWER, 3.0, "tiles", 2),
])
def test_the_exact_path_bands_by_work(
        monkeypatch, band_counts, matmul_calls, shape, pa, pb, fill, path, bands):
    """On 2 CPUs, the exact path gives each band at least EXACT_BAND_MULTS
    stored mults, and the loop at least LOOP_BAND_MULTS; neither gives a
    band fewer than EXACT_TILE rows."""
    monkeypatch.setattr(executor, "_CPUS", 2)
    rows, inner, cols = shape
    dtype = np.float64 if rows == 1000 else np.float32
    a, b = np.zeros((rows, inner), dtype), np.zeros((inner, cols), dtype)
    run_fill(a, fill, stored_pattern(pa))
    run_fill(b, fill, stored_pattern(pb))
    out = np.zeros((rows, cols), dtype)
    with np.errstate(over="raise", invalid="raise"):
        matmul(a, b, out, pa, pb, ExecMode.SPECIALIZED)
    assert band_counts == [bands]
    assert bool(matmul_calls) is (path == "tiles")


def _naive_in_precision(a, b):
    """Triple loop, ascending k, each product and sum rounded to the dtype."""
    t = a.dtype.type
    out = np.zeros((a.shape[0], b.shape[1]), a.dtype)
    for i, j in np.ndindex(out.shape):
        acc = t(0)
        for k in range(a.shape[1]):
            acc = t(acc + a[i, k] * b[k, j])
        out[i, j] = acc
    return out


@pytest.fixture
def einsum_blocks(monkeypatch):
    """Lists the number of k of every `np.einsum` call: its output's first
    dimension."""
    calls = []
    real = np.einsum

    def spy(*args, **kwargs):
        calls.append(kwargs["out"].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_full_rectangle_loop_matches_the_naive_reference_in_bands(
        monkeypatch, band_counts, fast_switching, dtype):
    """FULL x FULL products of reals, whose sums depend on their order, on
    the loop in 1 and 2 bands of rows (EXACT_TILE is 4 here, and
    LOOP_BAND_MULTS 1): the bits of the naive loop in the operands'
    precision, in both modes."""
    monkeypatch.setattr(executor, "EXACT_TILE", 4)
    monkeypatch.setattr(executor, "SMALL_MAX_MULTS", 0)
    monkeypatch.setattr(executor, "LOOP_BAND_MULTS", 1)
    rng = np.random.default_rng(default_seed() ^ 0xF1)
    for rows, inner, cols in [(9, 7, 5), (13, 20, 3), (8, 1, 8)]:
        a = _operand(rng, EMPTY_PROPS, rows, inner, dtype, False)
        b = _operand(rng, EMPTY_PROPS, inner, cols, dtype, False)
        ref = _naive_in_precision(a, b)
        for cpus, mode in product((1, 2), ExecMode):
            monkeypatch.setattr(executor, "_CPUS", cpus)
            del band_counts[:]
            out = np.zeros((rows, cols), dtype)
            with np.errstate(over="raise", invalid="raise"):
                count = matmul(a, b, out, EMPTY_PROPS, EMPTY_PROPS, mode)
            assert count == rows * inner * cols
            assert out.tobytes() == ref.tobytes(), (rows, inner, cols, cpus, mode)
            assert band_counts == [cpus]


def _edge_operand(rng, props, rows, cols, dtype):
    """`_operand`'s reals with, inside the pattern, about a tenth each of
    -0.0, +0.0 and subnormals, and row 0 all subnormal, so that some sums
    round in the subnormal range."""
    x = _operand(rng, props, rows, cols, dtype, False)
    inside = pattern_contains(stored_pattern(props), *np.ogrid[:rows, :cols])
    inside = np.broadcast_to(inside, x.shape)
    tiny = np.finfo(dtype).smallest_subnormal
    subnormal = tiny * rng.integers(-1000, 1000, x.shape).astype(dtype)
    draw = rng.random(x.shape)
    x[inside & (draw < 0.1)] = -0.0
    x[inside & (0.1 <= draw) & (draw < 0.2)] = 0.0
    pick = inside & ((0.2 <= draw) & (draw < 0.3) | (np.arange(rows)[:, None] == 0))
    x[pick] = subnormal[pick]
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_loop_matches_the_naive_reference_around_block_edges(
        monkeypatch, band_counts, einsum_blocks, fast_switching, dtype):
    """Every pair of closed property sets on 10 x inner x 6 operands (zero
    outside the pattern), inner 1, b - 1, b, b + 1 and 3b + 1 where b = 4 is
    the k per einsum call each band gets here, in 1 and 2 bands of rows, in
    both modes: the bits of the naive loop in the operands' precision, the
    loop's count, and blocks of at most b k (in dense mode exactly the
    blocks of b that cover inner, once per band). LOOP_BAND_MULTS is 1
    here, so a product of one stored mult runs in one band."""
    monkeypatch.setattr(executor, "EXACT_TILE", 4)
    monkeypatch.setattr(executor, "SMALL_MAX_MULTS", 0)
    monkeypatch.setattr(executor, "LOOP_BAND_MULTS", 1)
    rows, cols, b = 10, 6, 4
    full = StoredPattern.FULL
    rng = np.random.default_rng(default_seed() ^ 0xF2)
    for inner, cpus in product((1, b - 1, b, b + 1, 3 * b + 1), (1, 2)):
        monkeypatch.setattr(executor, "_CPUS", cpus)
        # Each band holds rows // cpus rows: b k of its entries per block.
        monkeypatch.setattr(executor, "_LOOP_BLOCK_ENTRIES", b * rows // cpus * cols)
        dense_blocks = ([b] * (inner // b) + [inner % b] * (inner % b > 0)) * cpus
        for pa, pb in product(CLOSED_PSETS, repeat=2):
            x = _edge_operand(rng, pa, rows, inner, dtype)
            y = _edge_operand(rng, pb, inner, cols, dtype)
            ref = _naive_in_precision(x, y)
            stored = _stored_mults(_stored_spans(pa.pattern, pb.pattern,
                                                 rows, inner, cols))
            for mode in ExecMode:
                dense = mode is ExecMode.DENSE
                del band_counts[:], einsum_blocks[:]
                out = np.zeros((rows, cols), dtype)
                with np.errstate(over="raise", invalid="raise"):
                    count = run_matmul(x, y, out, *((full, full) if dense else
                                                    (pa.pattern, pb.pattern)), False)
                case = (inner, cpus, pa, pb, mode)
                assert out.tobytes() == ref.tobytes(), case
                assert count == (rows * inner * cols if dense else stored), case
                assert band_counts == [min(cpus, count)], case
                assert max(einsum_blocks, default=0) <= b, case
                if dense:
                    assert sorted(einsum_blocks) == sorted(dense_blocks), case


def test_the_first_error_in_a_block_wins(monkeypatch, band_counts, einsum_blocks):
    """In one band and one einsum block of 8 k, each entry's sum of 1e38
    products passes the f32 range in the add at k = 3, and the product at
    k = 5 overflows (1e39). einsum writes that product as inf without
    raising; the product reruns one step at a time, in the calling thread,
    and raises the add."""
    monkeypatch.setattr(executor, "SMALL_MAX_MULTS", 0)
    a = np.ones((20, 8), np.float32)
    a[:, :4], a[:, 5] = 1e19, 1e20
    b = np.full((8, 20), 1e19, np.float32)
    with np.errstate(over="raise", invalid="raise"):
        products = np.empty((8, 20, 20), np.float32)
        np.einsum("ik,kj->kij", a, b, out=products)
        assert np.isinf(products[5]).all()
        del einsum_blocks[:]
        with pytest.raises(FloatingPointError, match="^overflow encountered in add$"):
            matmul(a, b, buf(20, 20), EMPTY_PROPS, EMPTY_PROPS, ExecMode.DENSE)
    assert einsum_blocks == [8]
    assert band_counts == [1]


def test_an_overflow_in_a_band_raises_the_sequential_loops_error(
        monkeypatch, band_counts):
    """In 2 bands of 150 rows of a FULL x FULL product, rows 150.. overflow
    in the add at k = 3, and rows ..149 either not at all or only in the
    multiply at k = 200. Band 0 alone then names the multiply, the
    sequential loop the add: the banded product reruns one step at a time
    in the calling thread and raises the add, with no warning, and leaves
    no thread behind."""
    monkeypatch.setattr(executor, "_CPUS", 2)
    monkeypatch.setattr(executor, "SMALL_MAX_MULTS", 0)
    band_1_only = np.zeros((300, 300), np.float32)
    band_1_only[150:] = 1e19
    both = band_1_only.copy()
    both[:150, 200] = 1e20
    b = np.full((300, 300), 1e19, np.float32)
    threads = threading.active_count()
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
            matmul(both[:150], b, buf(150, 300), EMPTY_PROPS, EMPTY_PROPS,
                   ExecMode.DENSE)
        for a, mode in product((band_1_only, both), ExecMode):
            del band_counts[:]
            with pytest.raises(FloatingPointError, match="^overflow encountered in add$"):
                matmul(a, b, buf(300, 300), EMPTY_PROPS, EMPTY_PROPS, mode)
            assert band_counts == [2]
            assert threading.active_count() == threads


# --------------------------------------------------------------------------
# The one rule that picks each product's kernel and band count
# --------------------------------------------------------------------------

@pytest.fixture
def kernels_run(monkeypatch):
    """Lists the name of every `_rank1_loop`, `_exact_tiles` and `_per_k`
    call of `run_matmul`."""
    calls = []
    for name in ("_rank1_loop", "_exact_tiles", "_per_k"):
        real = getattr(executor, name)
        monkeypatch.setattr(executor, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("mode", list(ExecMode))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_rule_picks_the_kernel_by_size_and_proof(
        accumulate_calls, matmul_calls, einsum_blocks, mode, dtype):
    """Products of 4,096 mults (SMALL_MAX_MULTS), of 4,097 and 4,913, and
    of 4,000 and 1,935 whose out is 200 rows high or 129 columns wide,
    under every pair of closed property sets that fits, exact (integers in
    [-8, 8]) and not (reals), in both modes: an exact product runs on BLAS
    whatever its size, in one call of its whole operands if out fits one
    EXACT_TILE square, else in tiles; an inexact one takes one accumulate
    up to SMALL_MAX_MULTS and the einsum loop past it, as `matmul_path`
    says. Each gives the naive loop's bits in the operands' precision and
    the loop's count."""
    rng = np.random.default_rng(default_seed() ^ 0xC1)
    full = StoredPattern.FULL
    for (rows, inner, cols), integral in product(
            [(16, 16, 16), (17, 241, 1), (17, 17, 17), (200, 2, 10), (3, 5, 129)],
            (True, False)):
        pairs = product(CLOSED_PSETS if rows == inner else [EMPTY_PROPS],
                        CLOSED_PSETS if inner == cols else [EMPTY_PROPS])
        for pa, pb in pairs:
            a = _operand(rng, pa, rows, inner, dtype, integral)
            b = _operand(rng, pb, inner, cols, dtype, integral)
            exact = is_exact_product(a, b)
            assert exact is integral
            patterns = ((full, full) if mode is ExecMode.DENSE
                        else (pa.pattern, pb.pattern))
            stored = _stored_mults(_stored_spans(*patterns, rows, inner, cols))
            path = ("blas" if exact and max(rows, cols) <= 128
                    else "tiles" if exact
                    else "small" if rows * inner * cols <= 4096 else "loop")
            del accumulate_calls[:], matmul_calls[:], einsum_blocks[:]
            out = np.zeros((rows, cols), dtype)
            with np.errstate(over="raise", invalid="raise"):
                count = matmul(a, b, out, pa, pb, mode)
            case = (rows, inner, cols, pa, pb, integral)
            assert executor.matmul_path(rows, inner, cols, count, exact)[0] == path
            assert accumulate_calls == ([(rows, inner, cols)] if path == "small"
                                        else []), case
            if path == "blas":
                assert matmul_calls == [((rows, inner), (inner, cols))], case
            assert bool(matmul_calls) is exact, case
            assert bool(einsum_blocks) is (path == "loop"), case
            assert out.tobytes() == _naive_in_precision(a, b).tobytes(), case
            assert count == stored, case


@pytest.mark.parametrize("mode", list(ExecMode))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_rule_bands_at_each_boundary_of_band_work(
        monkeypatch, band_counts, matmul_calls, mode, dtype):
    """On 4 CPUs, FULL x FULL products at and just below each multiple of
    a band's work (512 x m x 512 and 512 x m x 511 mults, m times
    LOOP_BAND_MULTS on the loop or EXACT_BAND_MULTS on the tiles) and at
    255 and 256 rows: one band per band's work, at most 4 and at most one
    per EXACT_TILE rows, with the bytes of one band. Integers are exact and
    take the tiles in both modes. A 512^3 diagonal x FULL product stores
    2**18 mults of its 2**27: one band in specialized mode, which counts the
    stored ones, and 4 in dense mode."""
    rng = np.random.default_rng(default_seed() ^ 0xC2)
    specialized = mode is ExecMode.SPECIALIZED
    # (shape, pa, integral, bands on 4 CPUs): 512 x 512 is 2**18 mults per k.
    cases = [((512, m, c), EMPTY_PROPS, False, max(1, min(m - (c == 511), 4)))
             for m in range(1, 6) for c in (511, 512)]
    cases += [((255, 4, 1024), EMPTY_PROPS, False, 1),
              ((256, 4, 1024), EMPTY_PROPS, False, 2)]
    cases += [((512, 64 * m, c), EMPTY_PROPS, True, max(1, min(m - (c == 511), 4)))
              for m in range(1, 6) for c in (511, 512)]
    cases += [((512, 512, 512), DIAG, integral, 1 if specialized else 4)
              for integral in (False, True)]
    for (rows, inner, cols), pa, integral, bands in cases:
        a = _operand(rng, pa, rows, inner, dtype, integral)
        b = _operand(rng, EMPTY_PROPS, inner, cols, dtype, integral)
        results = []
        for cpus in (4, 1):
            monkeypatch.setattr(executor, "_CPUS", cpus)
            del band_counts[:], matmul_calls[:]
            out = np.zeros((rows, cols), dtype)
            with np.errstate(over="raise", invalid="raise"):
                count = matmul(a, b, out, pa, EMPTY_PROPS, mode)
            results.append(out.tobytes())
            case = (rows, inner, cols, pa, integral, cpus)
            stored = rows if pa is DIAG and specialized else rows * inner
            assert count == stored * cols, case
            assert band_counts == [bands if cpus == 4 else 1], case
            assert bool(matmul_calls) is integral, case
            assert executor.matmul_path(rows, inner, cols, count, integral) == (
                "tiles" if integral else "loop", band_counts[0])
        assert results[0] == results[1], case


@pytest.mark.parametrize("mode", list(ExecMode))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [4, 20])
@pytest.mark.parametrize("failing", ["multiply", "add"])
def test_an_overflowing_product_is_formed_at_most_twice(
        kernels_run, n, mode, dtype, failing):
    """An n^3 product whose products overflow, or whose sums do: at 4^3 in
    one shot, at 20^3 on the loop. Then out is zeroed and the product is
    formed once more, one step at a time in the calling thread, which
    raises numpy's own message for the first failing step."""
    fill = {("multiply", np.float32): 1e20, ("add", np.float32): 1e19,
            ("multiply", np.float64): 1e160, ("add", np.float64): 1e154}[
                failing, dtype]
    a = np.full((n, n), fill, dtype)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError,
                           match=f"^overflow encountered in {failing}$"):
            matmul(a, a, np.zeros((n, n), dtype), EMPTY_PROPS, EMPTY_PROPS, mode)
    assert kernels_run == (["_per_k"] if n == 4 else ["_rank1_loop", "_per_k"])


def test_structured_chain_count_equals_dp_prediction():
    text = ("n = 6\nMatrix A(n, n) <LowerTriangular>\n"
            "Matrix B(n, n) <LowerTriangular>\nMatrix C(n, n) <LowerTriangular>\n"
            "X = A * B * C\nprint(X)\n")
    from util import optimize_text
    from momc.loops import lower_to_loops
    res = optimize_text(text)
    (chain,) = res.chains
    report = execute(lower_to_loops(res.module), ExecMode.SPECIALIZED,
                     repeats=1)
    assert report.total_mults == chain.solution.total_cost
    dense = execute(lower_to_loops(res.module), ExecMode.DENSE, repeats=1)
    assert dense.total_mults == 2 * 6 ** 3


def test_outputs_stay_zero_outside_annotated_pattern():
    rng = random.Random(default_seed() ^ 0x92)
    from momc.properties import infer_mul
    for pa, pb in product(CLOSED_PSETS, repeat=2):
        n = 6
        a = _random_realization(rng, pa, n, n, ElemKind.F32)
        b = _random_realization(rng, pb, n, n, ElemKind.F32)
        for mode in ExecMode:
            out = buf(n, n, ElemKind.F32)
            matmul(a, b, out, pa, pb, mode)
            pat = stored_pattern(infer_mul(pa, (n, n), pb, (n, n)))
            for i in range(n):
                for j in range(n):
                    if not pattern_contains(pat, i, j):
                        assert out[i, j] == 0


LISTING = """\
n = 5
m = 5
Matrix A(n, m) <LowerTriangular>
Matrix B(n, m) <LowerTriangular>
Matrix C(n, m) <>
C = A * B
print(C)
"""


def test_execute_listing_specialized():
    report = execute(lower_text(LISTING), ExecMode.SPECIALIZED, repeats=5)
    assert list(report.mults.values()) == [35]
    assert report.total_mults == 35
    same_print(report.printed, (
        "5x5 f32\n1 0 0 0 0\n2 1 0 0 0\n3 2 1 0 0\n4 3 2 1 0\n5 4 3 2 1",))
    assert all(ns >= 0 for ns in report.min_ns.values())


def test_execute_empty_module():
    report = execute(LoopModule(()), ExecMode.DENSE, repeats=2)
    same_print(report.printed, ())
    assert report.mults == {} and report.min_ns == {}
    assert report.total_mults == 0 and report.total_min_ns == 0


def test_execute_rejects_zero_repeats():
    with pytest.raises(ValueError):
        execute(LoopModule(()), ExecMode.DENSE, repeats=0)


def test_report_kv_serialization():
    report = execute(lower_text(LISTING), ExecMode.SPECIALIZED, repeats=1)
    lines = report.to_kv().strip().split("\n")
    assert lines[0] == "op5.mults=35"
    assert lines[1].startswith("op5.min_ns=")
    assert lines[2] == "total.mults=35"
    assert lines[3].startswith("total.min_ns=")


def test_executor_exposes_buffers_for_inspection():
    ex = Executor(lower_text(LISTING))
    ex.run(ExecMode.SPECIALIZED, repeats=1)
    assert ex.buffers[2][4, 0] == 5


def test_first_failure_in_program_order_is_reported():
    """A non-finite fill fails before a later declaration's tensor, too
    large to allocate, is reached."""
    lm = lower_text("Matrix A(2, 2) <> : f64 = 1" + "0" * 400 + "\n"
                    "Matrix B(" + "9" * 30 + ", 1) <>\nprint(A)\n")
    with pytest.raises(NonFiniteValue, match=r"^error: op 1 \(fill %0, inf"):
        execute(lm, ExecMode.DENSE, repeats=1)


TRANSPOSED_OPERANDS = """\
n = 4
Matrix L(n, n) <LowerTriangular> = 2
Matrix R(n, 3) <> = 3
P = transpose(L) * R
Q = transpose(R) * transpose(L)
S = transpose(L) + L
print(P)
print(Q)
print(S)
print(transpose(L))
"""


@pytest.mark.parametrize("mode", list(ExecMode))
def test_transposed_operands_match_numpy(mode):
    """A transpose is a view of its operand's buffer, read as the left and
    the right operand of a matmul, an add operand and a print."""
    from momc.loops import lower_to_loops
    from util import optimize_text
    res = optimize_text(TRANSPOSED_OPERANDS)
    lm = lower_to_loops(res.module)
    ex = Executor(lm)
    report = ex.run(mode, repeats=2)
    views = [op for op in lm.ops
             if isinstance(op, loops.Alloc) and op.source is not None]
    assert len(views) == 5  # one per transpose in the source
    for op in views:
        view, src = ex.buffers[op.tensor], ex.buffers[op.source]
        assert np.shares_memory(view, src) and np.array_equal(view, src.T)
    lo = np.tril(np.full((4, 4), 2, np.float32))
    r = np.full((4, 3), 3, np.float32)
    expected = [lo.T @ r, r.T @ lo.T, lo.T + lo, lo.T]
    same_print(report.printed, tuple(format_print(e) for e in expected))
    if mode is ExecMode.SPECIALIZED:
        assert report.total_mults == sum(c.solution.total_cost for c in res.chains)
    else:
        assert report.total_mults == 4 * 4 * 3 + 3 * 4 * 4

