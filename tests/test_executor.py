"""Kernels and the instrumented executor.

The heavyweight guarantees here: dense and specialized matmul agree
bit-for-bit whenever off-pattern entries are exact zeros, both agree with a
naive triple-loop reference on integer-valued data, and the instrumented
multiplication counts equal the chain cost model exactly.
"""

import random
from itertools import product

import numpy as np
import pytest

from momc.errors import DimMismatch
from momc.executor import (
    _DTYPES as DTYPES,
    _PRINT_BLOCK_ENTRIES as PRINT_BLOCK,
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
from gen import CLOSED_PSETS, default_seed
from util import lower_text, pattern_contains

LOWER = PropertySet.closure((Property.LOWER_TRIANGULAR,))
DIAG = PropertySet.closure((Property.DIAGONAL,))


def buf(rows, cols, elem=ElemKind.F32):
    return np.zeros((rows, cols), DTYPES[elem])


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


def test_matmul_lower_ones_specialized():
    a = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    b = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    out = buf(5, 5)
    count = run_matmul(a, b, out, LOWER, LOWER, ExecMode.SPECIALIZED)
    assert count == 35
    expected = [[i - j + 1 if i >= j else 0 for j in range(5)]
                for i in range(5)]
    assert out.tolist() == expected


def test_matmul_lower_ones_dense_same_values():
    a = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    b = filled(5, 5, 1.0, StoredPattern.LOWER_INCL)
    out_d = buf(5, 5)
    out_s = buf(5, 5)
    assert run_matmul(a, b, out_d, LOWER, LOWER, ExecMode.DENSE) == 125
    run_matmul(a, b, out_s, LOWER, LOWER, ExecMode.SPECIALIZED)
    assert out_d.tobytes() == out_s.tobytes()


def test_matmul_rejects_dim_mismatch():
    with pytest.raises(DimMismatch):
        run_matmul(buf(2, 3), buf(4, 2), buf(2, 2), EMPTY_PROPS, EMPTY_PROPS,
                   ExecMode.DENSE)
    with pytest.raises(DimMismatch):
        run_matmul(buf(2, 3), buf(3, 2), buf(3, 3), EMPTY_PROPS, EMPTY_PROPS,
                   ExecMode.DENSE)


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
    assert format_print(eye) == "2x2 f32\n1 0\n0 1"

    one = buf(1, 1)
    one[0, 0] = 2.5
    assert format_print(one) == "1x1 f32\n2.5"

    low = filled(3, 3, 1.0, StoredPattern.LOWER_INCL)
    assert format_print(low) == "3x3 f32\n1 0 0\n1 1 0\n1 1 1"


def reference_format_print(b: np.ndarray) -> str:
    """The per-entry renderer: every entry through `format_scalar`."""
    header = f"{b.shape[0]}x{b.shape[1]} f{8 * b.itemsize}"
    rows = [" ".join(format_scalar(float(v)) for v in row) for row in b]
    return "\n".join([header] + rows)


BELOW_1E18 = float(np.nextafter(1e18, 0))
# Entries format_scalar prints as integers (in f32, 2**24 + 1 rounds to an
# even integer and 1e18 rounds to an integer below 1e18) ...
WHOLE_VALUES = [-0.0, 0.0, 1e6, -1e6, 2.0**24 + 1, BELOW_1E18, -BELOW_1E18]
# ... and entries it prints through "%.6g".
OTHER_VALUES = [np.inf, -np.inf, np.nan, 0.5, -0.5, 1e-7, 999999.5,
                1e18, -1e18]


def _print_case(rng, rows, cols, elem):
    """A buffer whose row blocks (as format_print cuts them) are, in turn,
    all whole numbers, whole numbers mixed with every other kind of value,
    and random reals of mixed magnitude."""
    b = buf(rows, cols, elem)
    step = max(1, PRINT_BLOCK // cols)
    for n, r in enumerate(range(0, rows, step)):
        block = b[r:r + step]
        ints = rng.integers(-10**6, 10**6, size=block.shape) \
            * 10.0 ** rng.integers(0, 12, size=block.shape)
        kind = n % 3
        if kind == 2:
            block[:] = rng.standard_normal(block.shape) \
                * 10.0 ** rng.integers(-9, 9, size=block.shape)
            continue
        block[:] = ints
        specials = WHOLE_VALUES + (OTHER_VALUES if kind == 1 else [])
        at = rng.choice(block.size, size=len(specials), replace=False)
        block.reshape(-1)[at] = specials
    return b


@pytest.mark.parametrize("elem", [ElemKind.F32, ElemKind.F64])
@pytest.mark.parametrize("rows,cols", [
    (1, 1),
    (3, 70_000),                                  # one row per block
    (3 * (PRINT_BLOCK // 40) + 17, 40),           # four blocks of many rows
])
def test_format_print_matches_per_entry_reference(elem, rows, cols):
    if rows * cols == 1:  # each value alone decides its block's path
        for v in WHOLE_VALUES + OTHER_VALUES + [3.25, 7.0, -12.0]:
            b = buf(1, 1, elem)
            b[0, 0] = v
            assert format_print(b) == reference_format_print(b), v
        return
    b = _print_case(np.random.default_rng(default_seed()), rows, cols, elem)
    assert format_print(b) == reference_format_print(b)


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
            run_matmul(a, b, out, pa, pb, mode)
            assert out.tobytes() == ref.tobytes()


def test_count_fidelity_against_cost_model():
    rng = random.Random(default_seed() ^ 0x81)
    for pa, pb in product(CLOSED_PSETS, repeat=2):
        for n in range(1, 17):
            a = _random_realization(rng, pa, n, n, ElemKind.F64)
            b = _random_realization(rng, pb, n, n, ElemKind.F64)
            out = buf(n, n, ElemKind.F64)
            got = run_matmul(a, b, out, pa, pb, ExecMode.SPECIALIZED)
            assert got == mul_cost((n, n, pa), (n, n, pb))
            out2 = buf(n, n, ElemKind.F64)
            assert run_matmul(a, b, out2, pa, pb, ExecMode.DENSE) == n * n * n


def test_count_fidelity_rectangular_dense():
    rng = random.Random(default_seed() ^ 0x83)
    for _ in range(20):
        m, k, n = (rng.randint(1, 16) for _ in range(3))
        a = _random_realization(rng, EMPTY_PROPS, m, k, ElemKind.F32)
        b = _random_realization(rng, EMPTY_PROPS, k, n, ElemKind.F32)
        out = buf(m, n, ElemKind.F32)
        assert run_matmul(a, b, out, EMPTY_PROPS, EMPTY_PROPS,
                          ExecMode.DENSE) == m * k * n


def test_count_fidelity_structured_times_rectangular():
    rng = random.Random(default_seed() ^ 0x84)
    for props in CLOSED_PSETS:
        for k in range(1, 17):
            for free in (1, 7, 16):
                a = _random_realization(rng, props, k, k, ElemKind.F32)
                b = _random_realization(rng, EMPTY_PROPS, k, free, ElemKind.F32)
                out = buf(k, free, ElemKind.F32)
                got = run_matmul(a, b, out, props, EMPTY_PROPS,
                                 ExecMode.SPECIALIZED)
                assert got == mul_cost((k, k, props), (k, free, EMPTY_PROPS))
                c = _random_realization(rng, EMPTY_PROPS, free, k, ElemKind.F32)
                out2 = buf(free, k, ElemKind.F32)
                got2 = run_matmul(c, a, out2, EMPTY_PROPS, props,
                                  ExecMode.SPECIALIZED)
                assert got2 == mul_cost((free, k, EMPTY_PROPS), (k, k, props))


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
            run_matmul(a, b, out, pa, pb, mode)
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
    assert report.printed == (
        "5x5 f32\n1 0 0 0 0\n2 1 0 0 0\n3 2 1 0 0\n4 3 2 1 0\n5 4 3 2 1",)
    assert all(ns >= 0 for ns in report.min_ns.values())


def test_execute_empty_module():
    report = execute(LoopModule(()), ExecMode.DENSE, repeats=2)
    assert report.printed == ()
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
    views = lm.views
    assert len(views) == 5  # one per transpose in the source
    for tid, src in views.items():
        assert np.shares_memory(ex.buffers[tid], ex.buffers[src])
        assert np.array_equal(ex.buffers[tid], ex.buffers[src].T)
    lo = np.tril(np.full((4, 4), 2, np.float32))
    r = np.full((4, 3), 3, np.float32)
    expected = [lo.T @ r, r.T @ lo.T, lo.T + lo, lo.T]
    assert report.printed == tuple(format_print(e) for e in expected)
    if mode is ExecMode.SPECIALIZED:
        assert report.total_mults == sum(c.solution.total_cost for c in res.chains)
    else:
        assert report.total_mults == 4 * 4 * 3 + 3 * 4 * 4

