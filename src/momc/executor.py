"""Instrumented kernels over numpy arrays.

Each tensor's buffer is a 2-D numpy array, made at the tensor's `alloc` op:
zero-filled, or for an `alloc` with a source the view `.T` of the source's
buffer. Kernels write in place, so a view always reads its source's current
values. Ops run in program order, so the first op to fail is the one
reported, be it an allocation or a kernel.

`_spans` is the one description of a pattern's stored region: each row's
column span. Triangle fills, the loop, the count, the tiles and prints read it.

`run_matmul` states the one rule that picks each product's kernel and
band count (`matmul_path`), and what the kernels share.

Specialized mode formats, for each block of rows, only the columns its
stored spans reach, and writes the structural zeros around them after
checking that they are zero: a nonzero there means the compiler broke a
property it put in a type, and the run stops with `BrokenStoredPattern`
rather than print other text.

Printing costs per call on small buffers and per entry on large ones. A
FULL buffer of at most SMALL_PRINT_ENTRIES (64 entries, 8x8) is checked in
plain Python over one list of its entries and, when every entry is whole,
formatted by one `%` over a format string made once per shape. Any other
buffer, FULL or not, goes through one loop over blocks of rows: past 64
entries a Python pass over the entries costs more than numpy's calls. Each
block's columns are formatted as a small buffer is if they hold at most 64
entries, else from a table of strings where lowering knows a narrow
interval, else by numpy alone (`_digits`) if they are whole. A print with
a known interval holds whole numbers only and is not checked.

Kernels run with numpy's overflow and invalid-operation checks raising:
a value that becomes infinite or NaN stops the run with `NonFiniteValue`.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import math
import operator
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import loops
from .errors import (AllocationError, BrokenStoredPattern, DimMismatch,
                     NonFiniteValue)
from .ir import MatrixType, format_scalar
from .loops import ExecMode  # also re-exported: callers name executor.ExecMode
# perfbench's tracer counts calls through this name; the executor reads the
# patterns from the loop ops and calls it nowhere.
from .properties import ElemKind, StoredPattern, stored_pattern  # noqa: F401

# A buffer's header names its element kind by dtype; `_zeros` picks a dtype
# by identity. Neither hashes an ElemKind: `Enum.__hash__` runs in Python.
_ELEM_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def _spans(p: StoredPattern, n: int, extent: int) -> tuple[list[int], list[int]]:
    """lo, hi: for each row i < n of a pattern-p matrix with `extent`
    columns, columns lo[i]..hi[i] are the row's stored span. No span ends
    before it starts, and both bounds are nondecreasing in i."""
    m = min(n, extent)
    upto = [extent] * n
    if p is StoredPattern.FULL:
        return [0] * n, upto
    at_i = [*range(m), *upto[m:]]             # min(i, extent)
    past_i = [*range(1, m + 1), *upto[m:]]    # min(i + 1, extent)
    if p is StoredPattern.UPPER_INCL:
        return at_i, upto
    if p is StoredPattern.DIAG_ONLY:
        return at_i, past_i
    return [0] * n, past_i


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
        for r, (j0, j1) in enumerate(zip(*_spans(pattern, *buf.shape))):
            buf[r, j0:j1] = scalar


_TRANSPOSED = {StoredPattern.LOWER_INCL: StoredPattern.UPPER_INCL,
               StoredPattern.UPPER_INCL: StoredPattern.LOWER_INCL}


def _stored_spans(pa: StoredPattern, pb: StoredPattern, rows: int,
                  inner: int, cols: int) -> tuple[list[int], ...]:
    """i0, i1, j0, j1: at each k below inner, a stores rows i0[k]..i1[k] of
    column k, row k of its transpose, and b columns j0[k]..j1[k] of row k."""
    return (*_spans(_TRANSPOSED.get(pa, pa), inner, rows), *_spans(pb, inner, cols))


def _stored_mults(spans: tuple[list[int], ...]) -> int:
    """The loop's count: over k, the row span of a times the column span of b."""
    i0, i1, j0, j1 = spans
    return sum(map(operator.mul, map(operator.sub, i1, i0), map(operator.sub, j1, j0)))


# The exact path multiplies out in tiles this wide and high: small enough to
# trim a triangle closely and to keep the BLAS workspace, and so the peak
# RSS, small; large enough for BLAS speed.
EXACT_TILE = 128
# Both modes take products of at most this many mults in one shot, at one
# accumulate call per output entry. On a 2-vCPU x86-64, through run_matmul
# (medians of 300): 8x8x8 f64 in 6 us (loop: 13), 16x16x16 in 19 (loop: 19),
# 32x2x64 in 37 (loop: 14); past 2**12 such shapes lose more.
SMALL_MAX_MULTS = 1 << 12
# format_print checks and formats a FULL buffer of at most this many entries
# (8x8) in plain Python. On a 2-vCPU x86-64 (min of 5), a whole 4x4 buffer
# printed in 7-8 us this way against 16-17 through numpy, 8x8 in 17-22 against
# 21-24, but 10x10 in 27-34 against 25-29: each numpy call costs about a
# microsecond, a Python pass over the entries about 0.1 us per entry.
SMALL_PRINT_ENTRIES = 64
# The exact path gives each row band at least this many stored mults: a
# 256x256x256 f32 product of 8.4M mults took 0.3-0.4 ms in tiles in one band
# or two, about what a thread's start and join cost, and 99M took 2.0-2.8 ms
# in one band against 1.7 in two (2-vCPU x86-64, medians of 15).
EXACT_BAND_MULTS = 1 << 24
# The rank-1 loop gives each row band at least this many stored mults. It
# is too few for 2 vCPUs: there (x86-64), f32 FULL x FULL products of 2**18
# to 2**22 mults ran slower in 2 bands than in 1 (256x4x256 0.13 ms against
# 0.26, 512x16x512 1.9 against 2.0), and 2**23 faster (1024x16x512 3.4
# against 6.5; medians of 60).
LOOP_BAND_MULTS = 1 << 18
# The CPUs this process may run on: a product past SMALL_MAX_MULTS runs in
# at most this many row bands of out at once. More bands than CPUs lose: on
# 2 vCPUs the 800x1100x100 f32 loop took 28-29 ms in 1 band, 18-20 in 2,
# 21-22 in 3, 22 in 4 and 30 in 6 (medians of 9).
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# The rank-1 loop forms the products of a block of k in one einsum call into
# a band's scratch of at most this many entries (at least one k per block).
# einsum holds the interpreter lock, so small bands want several k per call:
# on 2 vCPUs the 800x1100x100 f32 loop (2 bands of 400x100) took 46 ms at
# one k per call and 18-20 at 2**18 (6 k); a 600^3 f32 one took 35 ms at
# one k (2**18) and 38 at two (2**19) (medians of 7).
_LOOP_BLOCK_ENTRIES = 1 << 18


def _bands(lo: list[int], hi: list[int],
           extent: int) -> list[tuple[int, int, int]]:
    """(start, k0, k1) for each band start..start + EXACT_TILE of the indices
    below extent: the spans [lo[k], hi[k]) that meet the band are those with
    k0 <= k < k1, since lo and hi are nondecreasing in k."""
    return [(s, bisect.bisect_right(hi, s), bisect.bisect_left(lo, s + EXACT_TILE))
            for s in range(0, extent, EXACT_TILE)]


def _in_bands(band: Callable[[int], None], n: int) -> None:
    """Run band(0) .. band(n - 1) at once: band 0 in the calling thread, each
    other in a thread of its own, in a copy of the caller's context (numpy
    keeps `np.errstate` in a context variable, so a worker raises where the
    caller would). All threads are joined before this returns or raises; a
    worker's exception is raised here after the joins."""
    errors: list[BaseException] = []

    def worker(w: int) -> None:
        try:
            band(w)
        except BaseException as e:  # raised again in the calling thread
            errors.append(e)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(worker, w)) for w in range(1, n)]
    for t in threads:
        t.start()
    try:
        band(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _rank1_loop(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                spans: tuple[list[int], ...], n: int) -> None:
    """out += a @ b one k at a time in ascending order, in n bands of out's
    rows at once (`_in_bands`): a band runs the whole k loop over its rows.

    A band walks k in blocks of max(1, _LOOP_BLOCK_ENTRIES // its entries).
    One `np.einsum` writes a block's products into the band's scratch, then
    `np.add` adds them into out one k at a time, ascending. A block covers
    the rectangle its spans reach, rows i0[k0]..i1[k1 - 1] of the band by
    columns j0[k0]..j1[k1 - 1] (the bounds are nondecreasing); entries
    outside a stored pattern are exactly zero, so its extra products add
    +-0. Each entry thus adds the same rounded products in the same order
    as one `np.multiply` per k. Where that writes a -0.0 product einsum
    writes +0.0, which changes no sum: out starts at +0.0, and a running sum
    that starts at +0.0 is never -0.0.

    einsum does not raise under `np.errstate`: an overflowing product is
    written as inf. So once the bands are joined the loop checks that out
    is finite, and raises FloatingPointError if it is not."""
    i0, i1, j0, j1 = spans
    inner, cols = len(i0), out.shape[1]
    edges = [len(out) * w // n for w in range(n + 1)]

    def band(w: int) -> None:
        r0, r1 = edges[w], edges[w + 1]
        step = max(1, _LOOP_BLOCK_ENTRIES // ((r1 - r0) * cols))
        scratch = np.empty(step * (r1 - r0) * cols, out.dtype)
        for k0 in range(0, inner, step):
            k1 = min(k0 + step, inner)
            ra, rb = max(i0[k0], r0), min(i1[k1 - 1], r1)
            ca, cb = j0[k0], j1[k1 - 1]
            if ra >= rb or ca >= cb:
                continue
            p = scratch[:(k1 - k0) * (rb - ra) * (cb - ca)]
            p = p.reshape(k1 - k0, rb - ra, cb - ca)
            np.einsum("ik,kj->kij", a[ra:rb, k0:k1], b[k0:k1, ca:cb], out=p)
            o = out[ra:rb, ca:cb]
            for q in p:
                np.add(o, q, out=o)

    _in_bands(band, n)
    if not np.isfinite(out).all():
        raise FloatingPointError("a product overflowed in einsum")


def _per_k(a: np.ndarray, b: np.ndarray, out: np.ndarray,
           spans: tuple[list[int], ...]) -> None:
    """out += a @ b by one `np.multiply` and one `np.add` per k, ascending,
    in the calling thread: under `np.errstate` it raises numpy's error for
    the first step that fails, as the sequential loop would."""
    for k, (r0, r1, c0, c1) in enumerate(zip(*spans)):
        o = out[r0:r1, c0:c1]
        np.add(o, np.multiply(a[r0:r1, k, None], b[None, k, c0:c1]), out=o)


def _exact_tiles(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                 spans: tuple[list[int], ...], n: int) -> None:
    """out += a @ b by `np.matmul` on EXACT_TILE x EXACT_TILE tiles of out.
    A tile takes the range of k whose stored spans reach both its rows and
    its columns, and only the rows and columns those spans cover; a tile no
    span reaches is skipped. The EXACT_TILE-row bands of tiles are dealt
    round-robin to n workers (`_in_bands`)."""
    t = EXACT_TILE
    i0, i1, j0, j1 = spans
    row_bands = _bands(i0, i1, out.shape[0])
    col_bands = _bands(j0, j1, out.shape[1])

    def band(w: int) -> None:
        for r0, kr0, kr1 in row_bands[w::n]:
            for c0, kc0, kc1 in col_bands:
                k0, k1 = max(kr0, kc0), min(kr1, kc1)
                if k0 >= k1:
                    continue
                tr0, tr1 = max(r0, i0[k0]), min(r0 + t, i1[k1 - 1])
                tc0, tc1 = max(c0, j0[k0]), min(c0 + t, j1[k1 - 1])
                out[tr0:tr1, tc0:tc1] += np.matmul(a[tr0:tr1, k0:k1],
                                                   b[k0:k1, tc0:tc1])

    _in_bands(band, n)


def matmul_path(rows: int, inner: int, cols: int, count: int,
                exact: bool) -> tuple[str, int]:
    """The kernel `run_matmul` runs a rows x inner x cols product on, given
    its count of stored mults and lowering's `exact`: "small", "tiles" or
    "loop"; and the number of row bands it runs in."""
    if rows * inner * cols <= SMALL_MAX_MULTS:
        return "small", 1
    path, band_mults = ("tiles", EXACT_BAND_MULTS) if exact else ("loop", LOOP_BAND_MULTS)
    return path, max(1, min(_CPUS, rows // EXACT_TILE, count // band_mults))


def run_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray,
               pa: StoredPattern, pb: StoredPattern, exact: bool) -> int:
    """Accumulate a @ b into the zero-initialized out, where a stores pattern
    pa and b pb; return the number of multiplications of stored entries, the
    loop's count, whatever the kernel. `exact` is lowering's proof that no
    step of a @ b rounds (`loops`); dense mode passes FULL twice and no proof.

    One rule (`matmul_path`) picks the kernel and its band count:
    - a product of at most SMALL_MAX_MULTS (rows * inner * cols) is "small":
      all its products at once, then one `np.add.accumulate`, which adds
      them in ascending k (`sum` would not);
    - past that, an exact product takes "tiles" (`_exact_tiles`): BLAS on
      tiles of out trimmed to the stored spans. `+=` into out's zeros turns
      a BLAS -0.0 into +0.0, as the loop does;
    - any other product takes "loop", the rank-1 loop (`_rank1_loop`).
    Both large kernels run in max(1, min(_CPUS, rows // EXACT_TILE, count //
    m)) row bands of out at once, m being EXACT_BAND_MULTS for the tiles and
    LOOP_BAND_MULTS for the loop: at most one per CPU, and at least
    EXACT_TILE rows and m stored mults each. Every kernel sums each entry
    in one thread, adding the loop's rounded products in ascending k (an
    exact product rounds none of them), so the bits and the count do not
    depend on the kernel or the bands; the tiles and the small path may
    multiply some structural zeros.

    A step that overflows or turns invalid raises FloatingPointError in any
    kernel, under the caller's `np.errstate` (the loop checks for einsum,
    which does not raise). Then out is zeroed and the product reruns one
    step at a time in the calling thread (`_per_k`), which raises numpy's
    error for the first step that fails."""
    (rows, inner), (inner_b, cols) = a.shape, b.shape
    if inner != inner_b:
        raise DimMismatch(f"inner dims disagree, {inner} vs {inner_b}")
    if out.shape != (rows, cols):
        raise DimMismatch(f"out must be {rows}x{cols}, "
                          f"got {out.shape[0]}x{out.shape[1]}")
    # FULL x FULL builds no spans for the small path: they slowed dense
    # runs' many small products.
    full = pa is StoredPattern.FULL and pb is StoredPattern.FULL
    spans = None if full else _stored_spans(pa, pb, rows, inner, cols)
    count = rows * inner * cols if full else _stored_mults(spans)
    path, n = matmul_path(rows, inner, cols, count, exact)
    try:
        if path == "small":
            p = a[:, :, None] * b[None, :, :]
            out += np.add.accumulate(p, axis=1, out=p)[:, -1]
        else:
            spans = spans or _stored_spans(pa, pb, rows, inner, cols)
            (_exact_tiles if path == "tiles" else _rank1_loop)(a, b, out, spans, n)
    except FloatingPointError:
        out.fill(0)
        _per_k(a, b, out, _stored_spans(pa, pb, rows, inner, cols))
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


def _strings(interval: loops.Interval, entries: int) -> np.ndarray | None:
    """str(v) for each v of a known interval, indexed by v - lo, if it holds
    at most `entries` values, the print's stored entries. Every entry it is
    indexed by lies in the interval, the structural zeros of a block's
    columns too. It lives for one print and is freed before the output is
    joined: a 1000^2 lower x lower product of fills up to 3 needs 9,001
    strings (0.5 MB) for 500,500 entries."""
    if interval is None or interval[1] - interval[0] >= entries:
        return None
    return np.array([str(v) for v in range(interval[0], interval[1] + 1)], object)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For `_digits`, made on first use by broadcasting (each numpy loop a
    process first runs adds its code pages to the RSS): the 4 ASCII digits
    of each i < 10**4 as one uint32; a 1 at each byte that i shows as a
    number's leading group, and at all four for 10**4, any lower group;
    the words of a space or a newline before a minus sign, and of a kept
    separator."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    d = np.frombuffer(b"0123456789", np.uint8)
    digits[..., 0], digits[..., 1] = d[:, None, None, None], d[:, None, None]
    digits[..., 2], digits[..., 3] = d[:, None], d
    # i shows 0 digits, 1 for i >= 1, 2 for i >= 10, ... all 4 for i >= 1000
    shown = np.frombuffer(bytes([0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1,
                                 0, 1, 1, 1, 1, 1, 1, 1]), np.uint32)
    return (digits.view(np.uint32).reshape(10_000),
            np.repeat(shown, [1, 9, 90, 900, 9_001]),
            np.frombuffer(b" \0\0-\n\0\0-\1\0\0\0", np.uint32))


def _digits(block: np.ndarray) -> str:
    """The lines of a block of whole entries below 1e18 in magnitude, as
    `str(int(v))`: per entry a word of separator (a newline before a row's
    first entry) and sign, then |v| in base-10**4 groups from the tables;
    one boolean mask keeps the separators, the signs of negatives and the
    digits from the leading nonzero one, less the block's first newline."""
    rows, cols = block.shape
    digits, keeps, (space, newline, keep_space) = _digit_tables()
    v = block.astype(np.int64)
    m = np.abs(v)
    g = (len(str(int(m.max()))) + 3) // 4  # groups of the widest entry
    text, keep = np.empty((2, rows, cols, g + 1), np.uint32)
    text[:, :, 0] = space
    text[:, 0, 0] = newline
    keep[:, :, 0] = keep_space
    np.less(v, 0, out=keep.view(np.bool_)[:, :, 3])  # a negative's sign
    for k in range(g, 0, -1):  # the lowest group first; it shows 0 as "0"
        q = m // 10_000
        keep[:, :, k] = keeps[np.clip(m, int(k == g), 10_000)]
        text[:, :, k] = digits[m - q * 10_000]
        m = q
    return text.view(np.uint8)[keep.view(np.bool_)][1:].tobytes().decode("ascii")


def _raise_outside(a: np.ndarray, pattern: StoredPattern) -> None:
    """Raise BrokenStoredPattern naming the first entry of a that lies
    outside the pattern's column spans and is not zero. A -0.0 is zero
    here: it prints as 0."""
    for i, (row, j0, j1) in enumerate(zip(a, *_spans(pattern, *a.shape))):
        bad = [*np.flatnonzero(row[:j0]).tolist(),
               *(j1 + np.flatnonzero(row[j1:])).tolist()]
        if bad:
            raise BrokenStoredPattern(
                f"entry ({i}, {bad[0]}) is {format_scalar(row[bad[0]])}, "
                f"outside the stored pattern {pattern}")


@functools.cache
def _small_format(rows: int, cols: int) -> str:
    """The `%d` format of a whole small buffer of this shape; a small buffer
    has finitely many shapes."""
    return "\n".join([" ".join(["%d"] * cols)] * rows)


def _small_lines(a: np.ndarray, whole: bool) -> str:
    """format_print's rows of a, a FULL buffer or the columns of a block,
    of at most SMALL_PRINT_ENTRIES, checked (unless known `whole`) and
    formatted in Python. `_all_whole`'s rule is `is_integer` (false for NaN
    and inf) and then the range check; through `int`, a -0.0 prints as 0."""
    rows, cols = a.shape
    flat = a.ravel().tolist()
    if whole or (all(map(float.is_integer, flat))
                 and -1e18 < min(flat) and max(flat) < 1e18):
        return _small_format(rows, cols) % tuple(map(int, flat))
    return "\n".join([" ".join(map(format_scalar, flat[r:r + cols]))
                      for r in range(0, rows * cols, cols)])


def format_print(a: np.ndarray, pattern: StoredPattern = StoredPattern.FULL,
                 interval: loops.Interval = None) -> str:
    """`RxC elem` header then one row per line, entries space-separated.

    Every entry reads byte for byte as `format_scalar` renders it. A block
    of rows whose entries are all whole prints each as `str(int(v))`, which
    is what `format_scalar` prints for them (`-0.0` included, as `0`); any
    other block goes through `format_scalar` itself.

    A FULL buffer of at most SMALL_PRINT_ENTRIES (64) is one block, checked
    and formatted in Python over `ravel().tolist()` (`_small_lines`): a
    numpy call costs about a microsecond whatever its size, and the numpy
    check takes five (min, max, trunc, `==` and all) before the cast. Past
    64 entries the Python pass is the slower one.

    Any other buffer goes through one loop over blocks of rows. Under a
    pattern other than FULL, a block is first checked to be zero outside
    the pattern (a nonzero raises BrokenStoredPattern rather than print
    other text), then cut to the columns its rows' spans reach; the
    rectangle's entries outside a row's span are the zeros just checked.
    The rectangle is formatted by `_small_lines` if it holds at most 64
    entries, else from a table of strings, else by numpy alone (`_digits`)
    if it is whole, else by `format_scalar`; each of its rows then gets the
    same run of zeros before and after it. A FULL block is the rectangle of
    every column, with no check and no zeros around it.

    A known `interval` is lowering's proof (`loops`) that every entry,
    structural zeros included, is an integer in [lo, hi], within 2**53 <
    1e18: no block is checked, and if it holds no more values than the
    stored entries, each entry is looked up in a table of its strings
    (`_strings`). A rectangle's zeros lie in it too: lowering's interval of
    a pattern other than FULL always holds 0. Unknown facts (None) keep
    the run-time checks.

    `_digits` runs in the calling thread: on a 2-vCPU x86-64, an 800x100
    f32 print of 11-digit entries took 2.4 ms against 5.1 through `%d`, and
    2.8-3.1 in two row bands, whose threads hand each other the GIL around
    `_digits`' many 2-5 us calls (medians of 15).
    """
    rows, cols = a.shape
    header = f"{rows}x{cols} {_ELEM_NAMES[a.dtype]}"
    if pattern is StoredPattern.FULL and rows * cols <= SMALL_PRINT_ENTRIES:
        return f"{header}\n{_small_lines(a, interval is not None)}"
    full = pattern is StoredPattern.FULL
    step = max(1, _PRINT_BLOCK_ENTRIES // cols)
    lo, hi = _spans(pattern, rows, cols)
    table = _strings(interval, sum(hi) - sum(lo))
    if not full:
        # Block row k is row r + k, so a block's columns r..r + step hold its
        # stretch of the diagonal. A lower pattern leaves out all that lies
        # right of it, an upper one all that lies left of it, a diagonal both.
        left = pattern is not StoredPattern.LOWER_INCL
        right = pattern is not StoredPattern.UPPER_INCL
        k, y = np.ogrid[:step, :min(step, cols)]  # at most 2**12 entries
        band_outside = ((y < k) & left) | ((y > k) & right)
    # Lower triangles go bottom up, widest blocks first: then each block's
    # temporaries fit where the previous block's were freed. Top down, the
    # growing blocks raised the peak RSS of a 1000^2 print by 1.7-2.3 MB.
    backwards = pattern is StoredPattern.LOWER_INCL
    lines = []
    for r in range(0, rows, step)[::-1 if backwards else 1]:
        block = a[r:r + step]
        h = len(block)
        if not full:
            band = block[:, r:r + h]
            if ((left and block[:, :r].any()) or (right and block[:, r + h:].any())
                    or band.any(where=band_outside[:h, :band.shape[1]])):
                _raise_outside(a, pattern)
        c0, c1 = lo[r], hi[r + h - 1]  # the columns the block's spans reach
        if c0 == c1:  # no row of the block stores an entry
            lines.append("\n".join([" ".join(["0"] * cols)] * h))
            continue
        block = block[:, c0:c1]
        before, after = "0 " * c0, " 0" * (cols - c1)
        # With no zeros around its rows (a FULL block), sep is "\n" itself,
        # and replace and + below return the block's text uncopied.
        sep = after + "\n" + before
        if block.size <= SMALL_PRINT_ENTRIES:
            text = _small_lines(block, interval is not None).replace("\n", sep)
        elif table is not None:
            text = sep.join(map(" ".join,
                                table[block.astype(np.int64) - interval[0]].tolist()))
        elif interval is not None or _all_whole(block):
            text = _digits(block).replace("\n", sep)
        else:
            text = sep.join([" ".join(map(format_scalar, row)) for row in block.tolist()])
        lines.append(before + text + after)
    del table, block  # not held through the join
    return "\n".join([header, *(reversed(lines) if backwards else lines)])


def _zeros(tid: loops.TensorId, t: MatrixType) -> np.ndarray:
    """A zero-filled buffer for tensor `tid` of type t. numpy refuses a shape
    it cannot index or memory it cannot get, which ends the run."""
    try:
        return np.zeros((t.rows, t.cols),
                        np.float32 if t.elem is ElemKind.F32 else np.float64)
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
        dense = mode is ExecMode.DENSE
        full = StoredPattern.FULL
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
                                printed.append(format_print(
                                    bufs[op.tensor], full if dense else op.pattern,
                                    op.interval))
                            continue
                        # The compute ops, timed one by one.
                        t0 = time.perf_counter_ns()
                        if isinstance(op, loops.MatMul):
                            n = run_matmul(bufs[op.a], bufs[op.b], bufs[op.out],
                                           *((full, full, False) if dense
                                             else (op.pa, op.pb, op.exact)))
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
        except BrokenStoredPattern as e:
            raise BrokenStoredPattern(
                f"op {idx} ({loops.format_op(self.lm, op)}): {e.message}") from None
        report.printed = tuple(printed)
        report.min_ns = min_ns
        report.total_mults = sum(report.mults.values())
        report.total_min_ns = sum(min_ns.values())
        return report


def execute(lm: loops.LoopModule, mode: ExecMode = ExecMode.DENSE,
            repeats: int = 5) -> ExecutionReport:
    """Run the op list `repeats` times and report prints, counts and timings."""
    return Executor(lm).run(mode, repeats)
