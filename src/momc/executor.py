"""Instrumented kernels over numpy arrays.

Each tensor's buffer is a 2-D numpy array, made at the tensor's `alloc` op:
zero-filled, or for an `alloc` with a source the view `.T` of the source's
buffer. Kernels write in place, so a view always reads its source's current
values. Ops run in program order, so the first op to fail is the one
reported, be it an allocation or a kernel.

The matmul kernel is a rank-1 update loop over the contraction index k in
ascending order, accumulating in the operand precision. Dense mode updates
the full (i, j) rectangle for every k; specialized mode only the rows of a
and the columns of b stored at that k. Entries outside a stored pattern are
exactly zero, so both modes add the same nonzero products in the same order
and give bit-identical results. The count is the number of multiplications
of stored entries, the loop's count. Specialized mode hands a large product
to BLAS only when `is_exact_product` proves that no step of it rounds; its
panels may also multiply structural zeros, and it reports the same count.
A product of at most SMALL_MAX_MULTS takes one `np.add.accumulate`, which adds
in the loop's k order (`sum` would not); if it overflows, the loop reruns it.

Kernels run with numpy's overflow and invalid-operation checks raising:
a value that becomes infinite or NaN stops the run with `NonFiniteValue`.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import loops
from .errors import AllocationError, DimMismatch, NonFiniteValue
from .ir import MatrixType, format_scalar
from .properties import ElemKind, PropertySet, StoredPattern, stored_pattern

_DTYPES = {ElemKind.F32: np.float32, ElemKind.F64: np.float64}
_ELEMS = {np.dtype(t): e for e, t in _DTYPES.items()}


class ExecMode(enum.Enum):
    DENSE = "dense"
    SPECIALIZED = "specialized"


def _row_span(pattern: StoredPattern, k: int, rows: int) -> tuple[int, int]:
    """Rows i with (i, k) stored in the left operand."""
    if pattern is StoredPattern.FULL:
        return 0, rows
    if pattern is StoredPattern.LOWER_INCL:
        return k, rows
    if pattern is StoredPattern.UPPER_INCL:
        return 0, min(k + 1, rows)
    return min(k, rows), min(k + 1, rows)


def _col_span(pattern: StoredPattern, k: int, cols: int) -> tuple[int, int]:
    """Columns j with (k, j) stored in the right operand."""
    if pattern is StoredPattern.FULL:
        return 0, cols
    if pattern is StoredPattern.LOWER_INCL:
        return 0, min(k + 1, cols)
    if pattern is StoredPattern.UPPER_INCL:
        return k, cols
    return min(k, cols), min(k + 1, cols)


def run_fill(buf: np.ndarray, scalar: float, pattern: StoredPattern) -> None:
    """Set entries inside the pattern to the scalar, everything else to zero.
    A non-finite scalar raises FloatingPointError, as an overflowing cast
    does under the executor's error state."""
    if not math.isfinite(scalar):
        raise FloatingPointError(f"fill value {format_scalar(scalar)} is not finite")
    if pattern is StoredPattern.FULL:
        buf.fill(scalar)
    elif pattern is StoredPattern.DIAG_ONLY:
        buf.fill(0)
        np.fill_diagonal(buf, scalar)
    else:  # a triangle: one row span at a time
        buf.fill(0)
        for r in range(buf.shape[0]):
            j0, j1 = _col_span(pattern, r, buf.shape[1])
            buf[r, j0:j1] = scalar


def _stored_mults(pa: StoredPattern, pb: StoredPattern,
                  rows: int, inner: int, cols: int) -> int:
    """The loop's count: over k, the row span of a times the column span of b."""
    if pa is StoredPattern.FULL and pb is StoredPattern.FULL:
        return rows * inner * cols
    spans = [(_row_span(pa, k, rows), _col_span(pb, k, cols)) for k in range(inner)]
    return sum(max(i1 - i0, 0) * max(j1 - j0, 0) for (i0, i1), (j0, j1) in spans)


# Specialized mode tries BLAS on products of at least this many mults. At
# dims <= 16 BLAS saves nothing and a failed proof adds about 20% to the
# loop; from 2**18 on, a failed proof costs under 10% of it.
EXACT_MIN_MULTS = 1 << 18
# Panels this wide keep the BLAS workspace, and so the peak RSS, small.
EXACT_PANEL_COLS = 128
# Both modes take products of at most this many mults in one shot, at one
# accumulate call per output entry. On a 2-vCPU x86-64: 16x16x16 f64 in 29 us
# (loop: 94), 32x2x64 in 63 us (loop: 19); past 2**12 such shapes lose more.
SMALL_MAX_MULTS = 1 << 12


def _all_integral(x: np.ndarray) -> bool:
    """`trunc(x) == x` everywhere, checked rows of 2**16 entries at a time."""
    step = max(1, (1 << 16) // x.shape[1])
    return all(bool((np.trunc(x[r:r + step]) == x[r:r + step]).all())
               for r in range(0, x.shape[0], step))


def is_exact_product(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a @ b never rounds, in any order: both operands are finite and
    integral and max|a| * max|b| * inner <= 2**p (p = 24 for f32, 53 for
    f64), so every product and partial sum is an integer the type holds."""
    ma, mb = (max(-float(x.min()), float(x.max())) for x in (a, b))
    return (math.isfinite(ma) and math.isfinite(mb)
            and int(ma) * int(mb) * a.shape[1] <= 2 ** (np.finfo(a.dtype).nmant + 1)
            and _all_integral(a) and _all_integral(b))


def run_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray,
               props_a: PropertySet, props_b: PropertySet,
               mode: ExecMode) -> int:
    """Accumulate a @ b into the zero-initialized out; return the number of
    multiplications of stored entries, the loop's count. In specialized mode
    a product of at least EXACT_MIN_MULTS that `is_exact_product` proves
    exact goes to `np.matmul` by column panels, each trimmed to the bounding
    box of its stored spans; `+=` into out's zeros turns a BLAS -0.0 into
    +0.0, as the loop does."""
    (rows, inner), (inner_b, cols) = a.shape, b.shape
    if inner != inner_b:
        raise DimMismatch(f"inner dims disagree, {inner} vs {inner_b}")
    if out.shape != (rows, cols):
        raise DimMismatch(f"out must be {rows}x{cols}, "
                          f"got {out.shape[0]}x{out.shape[1]}")
    if mode is ExecMode.DENSE:
        pa = pb = StoredPattern.FULL
    else:
        pa = stored_pattern(props_a)
        pb = stored_pattern(props_b)
    count = _stored_mults(pa, pb, rows, inner, cols)
    if (mode is ExecMode.SPECIALIZED and rows * inner * cols >= EXACT_MIN_MULTS
            and is_exact_product(a, b)):
        ks, i0, i1, j0, j1 = np.array(
            [(k, *_row_span(pa, k, rows), *_col_span(pb, k, cols))
             for k in range(inner)]).T
        for c0 in range(0, cols, EXACT_PANEL_COLS):
            c1 = c0 + EXACT_PANEL_COLS
            hit = (j0 < c1) & (j1 > c0)  # not empty: each column is stored
            k0, k1 = ks[hit].min(), ks[hit].max() + 1
            r0, r1 = i0[hit].min(), i1[hit].max()
            out[r0:r1, c0:c1] += np.matmul(a[r0:r1, k0:k1], b[k0:k1, c0:c1])
        return count
    if rows * inner * cols <= SMALL_MAX_MULTS:
        try:
            p = a[:, :, None] * b[None, :, :]
            out += np.add.accumulate(p, axis=1, out=p)[:, -1]
            return count
        except FloatingPointError:
            pass  # out is untouched; the loop raises with its own message
    for k in range(inner):
        i0, i1 = _row_span(pa, k, rows)
        j0, j1 = _col_span(pb, k, cols)
        out[i0:i1, j0:j1] += a[i0:i1, k, None] * b[None, k, j0:j1]
    return count


def run_transpose(a: np.ndarray) -> np.ndarray:
    """The transposed view of a: no copy, it shares a's memory."""
    return a.T


def run_add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    if a.shape != b.shape or out.shape != a.shape:
        raise DimMismatch("add operands and out must share dims")
    np.add(a, b, out=out)


# format_print works through the rows in blocks of at most this many entries
# (at least one row each), so what it holds besides the output text stays
# bounded by the block, not by the buffer. Each entry of a block becomes a
# Python number for a moment: blocks of 2**16 entries raised the peak RSS of
# printing a 1000x1000 result by about 2 MB, blocks of 2**12 by under 1 MB,
# and both print as fast.
_PRINT_BLOCK_ENTRIES = 1 << 12


def _all_whole(block: np.ndarray) -> bool:
    """Whether every entry is finite, integral and below 1e18 in magnitude:
    exactly the entries `format_scalar` renders as `str(int(v))`. A NaN fails
    the range test, since min and max propagate it."""
    return (-1e18 < float(block.min()) and float(block.max()) < 1e18
            and bool((np.trunc(block) == block).all()))


def format_print(a: np.ndarray) -> str:
    """`RxC elem` header then one row per line, entries space-separated.

    Every entry reads byte for byte as `format_scalar` renders it. A block
    of rows whose entries are all whole is formatted through int64 with
    `%d`, which is what `format_scalar` prints for them (`-0.0` included,
    as `0`); any other block goes through `format_scalar` itself.
    """
    rows, cols = a.shape
    lines = [f"{rows}x{cols} {_ELEMS[a.dtype]}"]
    whole_row = " ".join(["%d"] * cols)
    step = max(1, _PRINT_BLOCK_ENTRIES // cols)
    for r in range(0, rows, step):
        block = a[r:r + step]
        if _all_whole(block):
            lines += [whole_row % tuple(row)
                      for row in block.astype(np.int64).tolist()]
        else:
            lines += [" ".join(map(format_scalar, row)) for row in block.tolist()]
    return "\n".join(lines)


def _zeros(tid: loops.TensorId, t: MatrixType) -> np.ndarray:
    """A zero-filled buffer for tensor `tid` of type t. numpy refuses a shape
    it cannot index or memory it cannot get, which ends the run."""
    try:
        return np.zeros((t.rows, t.cols), _DTYPES[t.elem])
    except (ValueError, MemoryError) as e:
        raise AllocationError(f"cannot allocate %{tid} : {t}: {e}") from None


@dataclass
class ExecutionReport:
    """Outputs and instrumentation of one module execution.

    Multiplication counts are deterministic and come from a single run;
    timings are the minimum over all runs, per compute op.
    """

    printed: tuple[str, ...] = ()
    mults: dict[int, int] = field(default_factory=dict)      # matmul op index
    min_ns: dict[int, int] = field(default_factory=dict)     # compute op index
    total_mults: int = 0
    total_min_ns: int = 0

    def to_kv(self) -> str:
        lines = []
        for k in sorted(self.min_ns):
            if k in self.mults:
                lines.append(f"op{k}.mults={self.mults[k]}")
            lines.append(f"op{k}.min_ns={self.min_ns[k]}")
        lines.append(f"total.mults={self.total_mults}")
        lines.append(f"total.min_ns={self.total_min_ns}")
        return "\n".join(lines) + "\n"


class Executor:
    """Runs a loop module; keeps the buffers of the last run for inspection."""

    def __init__(self, lm: loops.LoopModule) -> None:
        self.lm = lm
        self.buffers: dict[loops.TensorId, np.ndarray] = {}

    def run(self, mode: ExecMode = ExecMode.DENSE, repeats: int = 5) -> ExecutionReport:
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        report = ExecutionReport()
        printed: list[str] = []
        min_ns: dict[int, int] = {}
        tensors = self.lm.tensors
        try:
            with np.errstate(over="raise", invalid="raise"):
                for r in range(repeats):
                    bufs = self.buffers = {}
                    for idx, op in enumerate(self.lm.ops):
                        if isinstance(op, loops.Alloc):
                            bufs[op.tensor] = (
                                _zeros(op.tensor, tensors[op.tensor])
                                if op.source is None
                                else run_transpose(bufs[op.source]))
                            continue
                        if isinstance(op, loops.Fill):
                            run_fill(bufs[op.tensor], op.value, op.pattern)
                            continue
                        if isinstance(op, loops.Print):
                            if r == 0:
                                printed.append(format_print(bufs[op.tensor]))
                            continue
                        # The compute ops, timed one by one.
                        t0 = time.perf_counter_ns()
                        if isinstance(op, loops.MatMul):
                            n = run_matmul(bufs[op.a], bufs[op.b], bufs[op.out],
                                           tensors[op.a].props,
                                           tensors[op.b].props, mode)
                        else:
                            assert isinstance(op, loops.Add)
                            run_add(bufs[op.a], bufs[op.b], bufs[op.out])
                        dt = time.perf_counter_ns() - t0
                        min_ns[idx] = min(dt, min_ns.get(idx, dt))
                        if r == 0 and isinstance(op, loops.MatMul):
                            report.mults[idx] = n
        except FloatingPointError as e:
            raise NonFiniteValue(
                f"op {idx} ({loops.format_op(self.lm, op)}): {e}") from None
        report.printed = tuple(printed)
        report.min_ns = min_ns
        report.total_mults = sum(report.mults.values())
        report.total_min_ns = sum(min_ns.values())
        return report


def execute(lm: loops.LoopModule, mode: ExecMode = ExecMode.DENSE,
            repeats: int = 5) -> ExecutionReport:
    """Run the op list `repeats` times and report prints, counts and timings."""
    return Executor(lm).run(mode, repeats)
