"""Check that two checkouts of momc answer every program the same way.

    python tools/same_output.py OLD_ROOT NEW_ROOT [-n N]

The programs are written once: `tests/gen.py` programs for seeds 0..N-1
(default 500), one mutant of each (1-3 edits through
`tests/test_mutations.mutate`, drawn from its `VOCABULARY`), `examples/*.mom`,
`big600.mom` (`BIG_PROGRAM`), `overflow300.mom` (`OVERFLOW_PROGRAM`),
`chain60.mom` and `chain256.mom` (`chain_program`; 256 operands is
`MAX_CHAIN_OPERANDS`, the longest product the parser accepts),
`small.mom` (`small_program`: small prints of every shape up to 8x8, whole
and fractional, with large whole products) and `tiny.mom`
(`tiny_program`: exact products of every shape up to 8x8x8, and small
products at the exactness bound and one step past it), and `crlf.mom` and
`crlf_error.mom` (`CRLF_PROGRAM` and `CRLF_ERROR_PROGRAM`: CRLF line ends
and lone carriage returns), `types.mom` (`TYPES_PROGRAM`: more distinct
matrix types than `ir.matrix_type` caches), `facts.mom`
(`FACTS_PROGRAM`: fills and products at the edges of lowering's value
facts), `prints.mom` (`PRINTS_PROGRAM`: FULL whole-number prints past
`SMALL_PRINT_ENTRIES`, through the executor's digit table), `spans.mom`
(`SPANS_PROGRAM`: lower, upper and diagonal prints past one row block) and
`loop.mom` (`LOOP_PROGRAM`: inexact FULL and triangular products on the
rank-1 loop, whose prints show the order of their adds), `mid.mom`
(`MID_PROGRAM`: exact products of 17^3 to 63^3 mults, past
`SMALL_MAX_MULTS`), and `overflow_small.mom` and `overflow_mid.mom`
(`OVERFLOW_SMALL_PROGRAM` and `OVERFLOW_MID_PROGRAM`: a small product
whose sums overflow, and a mid-size one whose products do). One child
process per root then runs `momc.cli.main` in-process over them and prints
one sha256 per run, of the exit code, stdout and stderr with the program
directory replaced by a fixed name, and for a `--run` the `*.mults` lines
of the `--report` it also writes (its `*.min_ns` timings are dropped).

Every program is dumped with `--emit` = `ir`, `ir-opt`, `loops`, `chain`,
`ast`, `loops --no-opt` and `chain --no-opt` (the optimizing run's chains,
which the CLI reports after its `--no-opt` run). Generated programs and examples also run with
`--run --repeats=1`, `--run --mode=specialized` and `--run --no-opt`, the
examples at `--scale=4`; `big600.mom` and `overflow300.mom` run at full size
in dense and specialized mode only, `chain60.mom` is dumped with `--emit` =
`chain`, `ir-opt` and `loops` and run in those two modes, and `chain256.mom`
likewise but without `--emit=chain`, whose DP tables would be 256x256, and
`small.mom` and `tiny.mom` run in dense and specialized mode; `crlf.mom`
is dumped with every `--emit` and runs in those two modes, `crlf_error.mom`
is only dumped, and `types.mom` is dumped with `--emit` = `ir`, `ir-opt`
and `loops` and runs in dense mode, as `facts.mom` does in both modes;
`prints.mom`, `spans.mom`, `loop.mom`, `mid.mom` and the two
`overflow_*.mom` run in both modes. Mutants are never run, since they may
declare huge dimensions. The script prints the run count and the
exit-code histogram, lists each (program, flags) pair whose answers differ
or, for a program named
`overflow*.mom`, do not exit 1, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLACEHOLDER = "<programs>"

EMITS = [["--emit=ir"], ["--emit=ir-opt"], ["--emit=loops"], ["--emit=chain"],
         ["--emit=ast"], ["--emit=loops", "--no-opt"], ["--emit=chain", "--no-opt"]]
RUNS = [["--run", "--repeats=1"], ["--run", "--repeats=1", "--mode=specialized"],
        ["--run", "--repeats=1", "--no-opt"]]

# Generated programs (dims up to 12) are exact by construction, so each of
# their products is one BLAS call, and print in one row block. Here five
# 600^3 products of whole numbers go through the exact tiles in both modes,
# `H * H` (not whole) through the rank-1 loop, and every print spans 100
# row blocks. All of them run in row bands on as many threads as there are
# CPUs; `G * G` and `G * F2` (f32, not whole) in bands of the loop whose
# edges are not multiples of 128.
BIG_PROGRAM = """\
n = 600
m = 601
Matrix L(n, n) <LowerTriangular> : f64 = 2
Matrix U(n, n) <UpperTriangular> : f64 = 3
Matrix D(n, n) <Diagonal> : f64 = 5
Matrix H(n, n) <LowerTriangular> : f64 = 0.5
Matrix F(n, 300) <> : f64 = 1
Matrix G(m, m) <LowerTriangular> : f32 = 0.1
Matrix F2(m, 300) <> : f32 = 0.3
print(L * L)
print(U * U)
print(L * U)
print(D * L)
print(transpose(L) * F)
print(H * H)
print(G * G)
print(G * F2)
"""
# A 300^3 f32 product whose products overflow while its row bands run on
# threads: the run must stop with the loop's error and exit 1.
OVERFLOW_PROGRAM = """\
n = 300
Matrix A(n, n) <> = 100000000000000000000
Matrix B(n, n) <> = 100000000000000000000
print(A * B)
"""

# CRLF line ends, and lone carriage returns, which are blanks; the error
# version fails at the line feed after one, whose column counts it.
CRLF_PROGRAM = """\
n = 3\r
Matrix A(n, n) <LowerTriangular> = 2\r
Matrix B(n, n) <>\r = 0.5\r
C = A *\rB\r
print(C)\r
print(transpose(A) * C)\r
"""
CRLF_ERROR_PROGRAM = CRLF_PROGRAM.replace("*\rB", "*\r")

# More distinct matrix types (4,200 shapes) than `ir.matrix_type` caches
# (4,096), declared between the product's operands and its use, so the
# compile evicts types while it runs.
TYPES_PROGRAM = "\n".join(
    ["Matrix A(2, 3) <>", "Matrix B(3, 2) <>"]
    + [f"Matrix M{100 * r + c}({r}, {c}) <>"
       for r in range(1, 71) for c in range(1, 61)]
    + ["C = A * B", "print(C)", "print(A)", ""])

# Fills and products at the edges of lowering's value facts (`momc.loops`):
# f32 rounds R's 2**24 + 1 to 2**24 and T's half to an even whole number;
# R + O reaches 2**24 + 1 and rounds, so its interval is unknown; H is a
# fraction. A * B (64**3, past SMALL_MAX_MULTS) has max|a| * max|b| * k = 2**24
# exactly and runs in one BLAS call, C * D one step past it (97 * 257 * 673 =
# 2**24 + 1) on the rank-1 loop. L * W's interval (3,001 values) is wider
# than its 100 entries, M * M's (2,701) narrower than its 45,150 stored
# entries, and S * S has 64 entries, a small print. The grammar has no
# negative fill; tests/test_facts.py sets some on the IR.
FACTS_PROGRAM = """\
Matrix R(3, 3) <> = 16777217
Matrix R2(3, 3) <> : f64 = 16777217
Matrix T(3, 3) <> = 8388608.5
Matrix H(3, 3) <LowerTriangular> = 0.5
Matrix O(3, 3) <> = 1
Matrix A(64, 64) <> = 512
Matrix B(64, 64) <> = 512
Matrix C(64, 97) <> = 257
Matrix D(97, 64) <> = 673
Matrix L(10, 10) <LowerTriangular> = 100
Matrix W(10, 10) <> = 3
Matrix M(300, 300) <LowerTriangular> = 3
Matrix S(8, 8) <> = 7
print(R)
print(R2)
print(T)
print(H)
print(R + O)
print(H * R)
print(A * B)
print(C * D)
print(L * W)
print(transpose(L) * W)
print(M * M)
print(S * S)
"""

# FULL prints past SMALL_PRINT_ENTRIES (64) whose entries are whole, formatted
# through the executor's digit table. P * Q (f32, 300 rows: two print bands
# of at least EXACT_TILE rows) reaches 17,201,100 > 2**24 and rounds on the
# way, so its facts are unknown and each block is checked; row i of K**11 * V
# is C(i + 11, 11), 1 to 11 digits; X * Y is one row of 5,000 entries past
# 2**24; L * W's interval (900,001 values) is known and wider than its
# 90,000 entries, so no table of strings is made; F is fractional.
PRINTS_PROGRAM = """\
Matrix P(300, 700) <> = 3
Matrix Q(700, 300) <> = 8191
Matrix K(40, 40) <LowerTriangular> : f64 = 1
Matrix V(40, 5) <> : f64 = 1
Matrix X(1, 8) <> = 2000
Matrix Y(8, 5000) <> = 2000
Matrix L(300, 300) <LowerTriangular> = 3
Matrix W(300, 300) <> = 1000
Matrix F(300, 200) <> = 0.5
print(P * Q)
print(K * K * K * K * K * K * K * K * K * K * K * V)
print(X * Y)
print(L * W)
print(F)
"""

# Lower, upper and diagonal prints past one row block: in specialized mode
# each block is formatted over the columns its stored spans reach, between
# runs of zeros. In f32, L * L2 (300^2, 8191 * 4099 * 300 > 2**24), its
# upper mirror and D * D2 round and stay whole with unknown facts, so each
# block is checked; D * D2 is 600 wide, so its blocks are 6x6 rectangles of
# at most SMALL_PRINT_ENTRIES. A * B, its mirror and E * E (f64) have known
# intervals (up to 3 * 10**8) wider than their stored entries, so no table
# of strings is made. H * H, transpose(H) and G are fractional.
SPANS_PROGRAM = """\
Matrix L(300, 300) <LowerTriangular> = 8191
Matrix L2(300, 300) <LowerTriangular> = 4099
Matrix D(600, 600) <Diagonal> = 8191
Matrix D2(600, 600) <Diagonal> = 4099
Matrix A(300, 300) <LowerTriangular> : f64 = 1000
Matrix B(300, 300) <LowerTriangular> : f64 = 1000
Matrix E(100, 100) <Diagonal> : f64 = 1000
Matrix H(300, 300) <LowerTriangular> = 0.5
Matrix G(600, 600) <Diagonal> : f64 = 0.25
print(L * L2)
print(transpose(L2) * transpose(L))
print(D * D2)
print(A * B)
print(transpose(B) * transpose(A))
print(E * E)
print(H * H)
print(transpose(H))
print(G)
"""


# Inexact products past SMALL_MAX_MULTS on the rank-1 loop, whose bits
# depend on the order of their adds: each's products vary along k. In f32,
# fractional FULL x FULL (Y * F, Y a lower x upper product), upper x FULL,
# FULL x lower in one band of 101 rows, and whole ones past 2**24 (Z * N,
# transpose(N) * Z). In f64, FULL x FULL X * W and lower x FULL T * P are
# whole and pass 2**53 below 1e18, so they print every digit. On 1 or 2
# CPUs no inner (301) is a multiple of the k per einsum call of its bands.
LOOP_PROGRAM = """\
Matrix L(301, 301) <LowerTriangular> = 0.1
Matrix U(301, 301) <UpperTriangular> = 0.7
Matrix F(301, 101) <> = 0.3
Matrix M(301, 301) <LowerTriangular> = 3
Matrix N(301, 101) <> = 1000
Matrix K(301, 301) <LowerTriangular> : f64 = 3
Matrix V(301, 301) <UpperTriangular> : f64 = 7
Matrix W(301, 70) <> : f64 = 100000000001
Matrix W2(301, 70) <> : f64 = 3000000001
Matrix T(301, 301) <LowerTriangular> : f64 = 1
Y = L * U
print(Y * F)
print(U * Y)
print(transpose(Y * F) * L)
Z = M * M
print(Z * N)
print(transpose(N) * Z)
X = K * V
print(X * W)
P = X * W2
print(T * P)
"""

# Exact products past SMALL_MAX_MULTS (17^3 to 63^3 mults, each below 2**18):
# FULL x FULL, lower x lower, upper x FULL and diagonal x FULL in f32 and in
# f64, and diagonal x lower and upper x lower in f64. Their fills keep every
# partial sum within 2**24 in f32 (X * X reaches 279**2 * 31) and 2**53 in
# f64, so lowering proves them exact: both modes run each as one BLAS call
# (its result fits one EXACT_TILE square) and print the same whole numbers.
MID_PROGRAM = """\
Matrix F(17, 17) <> = 3
Matrix F2(17, 17) <> : f64 = 5
Matrix L(31, 31) <LowerTriangular> = 3
Matrix L2(63, 63) <LowerTriangular> : f64 = 9
Matrix U(40, 40) <UpperTriangular> = 11
Matrix U2(40, 40) <UpperTriangular> : f64 = 13
Matrix G(40, 23) <> = 2
Matrix G2(40, 63) <> : f64 = 3
Matrix D(63, 63) <Diagonal> = 4
Matrix D2(63, 63) <Diagonal> : f64 = 6
Matrix H(63, 63) <> = 5
Matrix H2(63, 17) <> : f64 = 7
X = L * L
Y = L2 * L2
print(F * F)
print(F2 * F2)
print(X)
print(Y)
print(X * X)
print(U * G)
print(U2 * G2)
print(D * H)
print(D2 * H2)
print(D2 * Y)
print(transpose(Y) * Y)
"""
# A 4^3 lower x lower f32 product on the one-shot path whose products fit
# and whose sums pass the f32 range, and a 30x40x30 one on the rank-1 loop
# whose products overflow (einsum writes them as inf without raising): each
# must exit 1 with numpy's message for the first failing step.
OVERFLOW_SMALL_PROGRAM = """\
Matrix L(4, 4) <LowerTriangular> = 10000000000000000000
print(L * L)
"""
OVERFLOW_MID_PROGRAM = """\
Matrix A(30, 40) <> = 100000000000000000000
Matrix B(40, 30) <> = 100000000000000000000
print(A * B)
"""


def chain_program(k: int) -> str:
    """`R = X1 * ... * Xk` in f64 over a `gen.run_chain` chain with dims 2-16
    (square runs of lower, upper, diagonal, symmetric and unstructured
    operands between rectangular steps), so `--emit=chain` dumps a long
    chain's DP tables. A tenth of the operands are written as
    `transpose(...)` and a tenth as sums. Fills are 1/cols (diagonals 1/2)
    and a sum halves them, so no row sums to more than 1 and the product
    stays finite. A fixed seed makes the text the same on every run."""
    from gen import CLOSED_PSETS, CLOSED_SETS, run_chain
    from momc.properties import PropertySet, infer_transpose

    lines: list[str] = []

    def declare(rows: int, cols: int, props: PropertySet, fill: float) -> str:
        name = f"X{len(lines) + 1}"
        names = ", ".join(CLOSED_SETS[CLOSED_PSETS.index(props)])
        lines.append(f"Matrix {name}({rows}, {cols}) <{names}> : f64 = {fill}")
        return name

    rng = random.Random(60)
    operands: list[str] = []
    for op in run_chain(rng, k, dims=(2, 4, 8, 16)):
        fill = 0.5 if op.props is CLOSED_PSETS[-1] else 1 / op.cols
        spelling = rng.random()
        if spelling < 0.1:
            name = declare(op.cols, op.rows, infer_transpose(op.props), fill)
            operands.append(f"transpose({name})")
        elif spelling < 0.2:
            other = rng.choice(CLOSED_PSETS) if op.rows == op.cols else op.props
            operands.append(f"({declare(op.rows, op.cols, op.props, fill / 2)} + "
                            f"{declare(op.rows, op.cols, other, fill / 2)})")
        else:
            operands.append(declare(op.rows, op.cols, op.props, fill))
    return "\n".join(lines + ["R = " + " * ".join(operands), "print(R)", ""])


def small_program() -> str:
    """Every shape from 1x1 to 8x8, and 1x65 and 5x13 just past
    `SMALL_PRINT_ENTRIES` (64), in f32 and f64: each printed with a whole
    fill, a fractional fill and as `L * W` (lower-triangular times full, so
    rows differ). Squares also print `L * F` (fractional), `L * L` (lower,
    a stored-span print in specialized mode) and `L * L * L * W`, whose
    whole entries reach about 2.1 * 10**16 in f32, far past 2**24, and
    6.1 * 10**16 in f64; in f64, `L * L * L * L * W` passes 10**18, where
    prints switch from `%d` to `%.6g`."""
    lines: list[str] = []
    for elem, big in (("f32", 1000), ("f64", 20000)):
        e = elem[1:]
        shapes = [(r, c) for r in range(1, 9) for c in range(1, 9)] + [(1, 65), (5, 13)]
        for n in range(1, 9):
            lines.append(f"Matrix L{e}n{n}({n}, {n}) <LowerTriangular> : {elem} = {big}")
        for r, c in shapes:
            w, f, ell = f"W{e}r{r}c{c}", f"F{e}r{r}c{c}", f"L{e}n{r}"
            lines += [f"Matrix {w}({r}, {c}) <> : {elem} = {r * c}",
                      f"Matrix {f}({r}, {c}) <> : {elem} = 0.{r}{c}",
                      f"print({w})", f"print({f})", f"print({ell} * {w})"]
            if r == c:
                lines += [f"print({ell} * {f})", f"print({ell} * {ell})",
                          f"print({ell} * {ell} * {ell} * {w})"]
        lines.append(f"print(L{e}n8 * L{e}n8 * L{e}n8 * L{e}n8 * W{e}r8c8)")
    return "\n".join(lines + [""])


def tiny_program() -> str:
    """Exact products of every shape m x k x n up to 8x8x8, in f32 and f64:
    `A * B` over FULL operands of small whole fills, again with the left
    operand a transposed view, and upper-triangular times FULL and FULL
    times diagonal for every square left or right operand. Both modes run
    each on one BLAS call. Then small products at the exactness bound 2**p
    (p = 24 in f32, 53 in f64), max|a| * max|b| * k = 2**p, which are exact
    too, and one step past it (2**24 + 1 = 97 * 257 * 673, 2**53 + 1 = 3 *
    107 * 28059810762433), which are not and take the one-shot path. The
    grammar has no negative fill, so no product here forms a -0.0; the
    executor's unit tests cover those."""
    lines: list[str] = []
    prints: list[str] = []
    for elem, bound, past in (("f32", (2048, 2048, 4), (257, 673, 97)),
                              ("f64", (33554432, 67108864, 4),
                               (107, 28059810762433, 3))):
        e = elem[1:]
        for r in range(1, 9):
            for c in range(1, 9):
                lines += [f"Matrix A{e}r{r}c{c}({r}, {c}) <> : {elem} = {1 + (8 * r + c) % 7}",
                          f"Matrix B{e}r{r}c{c}({r}, {c}) <> : {elem} = {1 + (r + 3 * c) % 5}"]
            lines += [f"Matrix U{e}n{r}({r}, {r}) <UpperTriangular> : {elem} = 3",
                      f"Matrix D{e}n{r}({r}, {r}) <Diagonal> : {elem} = 5"]
        for m in range(1, 9):
            for k in range(1, 9):
                for n in range(1, 9):
                    prints += [f"print(A{e}r{m}c{k} * B{e}r{k}c{n})",
                               f"print(transpose(B{e}r{k}c{m}) * A{e}r{k}c{n})"]
                prints += [f"print(U{e}n{m} * A{e}r{m}c{k})",
                           f"print(A{e}r{k}c{m} * D{e}n{m})"]
        for name, (a, b, k) in (("bound", bound), ("past", past)):
            lines += [f"Matrix {name}L{e}(2, {k}) <> : {elem} = {a}",
                      f"Matrix {name}R{e}({k}, 3) <> : {elem} = {b}"]
            prints.append(f"print({name}L{e} * {name}R{e})")
    return "\n".join(lines + prints + [""])


def write_programs(directory: str, n: int) -> list[tuple[str, list[str]]]:
    """Write the programs into `directory`; return the (file, flags) runs."""
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "tests")]
    from gen import random_program
    from test_mutations import VOCABULARY, mutate

    chars = sorted(set("".join(VOCABULARY)))
    jobs: list[tuple[str, list[str]]] = []

    def write(name: str, text: str, flag_sets: list[list[str]]) -> None:
        with open(os.path.join(directory, name), "w", encoding="utf-8",
                  newline="") as f:
            f.write(text)
        jobs.extend((name, flags) for flags in flag_sets)

    for seed in range(n):
        text = random_program(random.Random(seed))
        write(f"gen{seed}.mom", text, EMITS + RUNS)
        rng = random.Random(10_000 + seed)
        edits = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                edits.append(("char", rng.choice(["delete", "insert", "replace"]),
                              rng.randrange(10**6), rng.choice(chars)))
            else:
                edits.append(("token",
                              rng.choice(["delete", "duplicate", "swap", "replace"]),
                              rng.randrange(10**6), rng.choice(VOCABULARY)))
        write(f"mut{seed}.mom", mutate(text, edits), EMITS)
    examples = os.path.join(REPO, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".mom"):
            with open(os.path.join(examples, name), encoding="utf-8") as f:
                text = f.read()
            write(name, text, EMITS + [flags + ["--scale=4"] for flags in RUNS])
    write("big600.mom", BIG_PROGRAM, RUNS[:2])
    write("overflow300.mom", OVERFLOW_PROGRAM, RUNS[:2])
    write("chain60.mom", chain_program(60),
          [["--emit=chain"], ["--emit=ir-opt"], ["--emit=loops"]] + RUNS[:2])
    write("chain256.mom", chain_program(256),
          [["--emit=ir-opt"], ["--emit=loops"]] + RUNS[:2])
    write("small.mom", small_program(), RUNS[:2])
    write("tiny.mom", tiny_program(), RUNS[:2])
    write("crlf.mom", CRLF_PROGRAM, EMITS + RUNS[:2])
    write("crlf_error.mom", CRLF_ERROR_PROGRAM, EMITS)
    write("types.mom", TYPES_PROGRAM, EMITS[:3] + RUNS[:1])
    write("facts.mom", FACTS_PROGRAM, EMITS[:3] + RUNS[:2])
    write("prints.mom", PRINTS_PROGRAM, RUNS[:2])
    write("spans.mom", SPANS_PROGRAM, RUNS[:2])
    write("loop.mom", LOOP_PROGRAM, RUNS[:2])
    write("mid.mom", MID_PROGRAM, RUNS[:2])
    write("overflow_small.mom", OVERFLOW_SMALL_PROGRAM, RUNS[:2])
    write("overflow_mid.mom", OVERFLOW_MID_PROGRAM, RUNS[:2])
    return jobs


def run_child(directory: str, jobs_path: str) -> None:
    """Print `file<TAB>flags<TAB>exit<TAB>sha256` for each run in `jobs_path`."""
    import momc
    from momc.cli import main
    print(f"momc from {os.path.dirname(momc.__file__)}", file=sys.stderr)
    with open(jobs_path, encoding="utf-8") as f:
        jobs = [line.rstrip("\n").split("\t") for line in f]
    report = os.path.join(directory, f"report{os.getpid()}.kv")  # one per child
    for name, flags in jobs:
        argv = [os.path.join(directory, name), *flags.split()]
        if "--run" in argv:
            argv.append(f"--report={report}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a crash is an answer to compare, too
                code = "exception"
                print(f"{type(e).__name__}: {e}", file=sys.stderr)
        counts = ""
        if os.path.exists(report):
            with open(report, encoding="utf-8") as f:
                counts = "".join(line for line in f if ".mults=" in line)
            os.remove(report)
        answer = f"{code}\0{out.getvalue()}\0{err.getvalue()}\0{counts}"
        digest = hashlib.sha256(answer.replace(directory, PLACEHOLDER)
                                .encode("utf-8", "surrogateescape")).hexdigest()
        print(f"{name}\t{flags}\t{code}\t{digest}")


def read_answers(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f]


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        run_child(sys.argv[2], sys.argv[3])
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_root")
    p.add_argument("new_root")
    p.add_argument("-n", type=int, default=500, help="generated programs")
    args = p.parse_args()

    with tempfile.TemporaryDirectory(prefix="same_output_") as directory:
        jobs = write_programs(directory, args.n)
        jobs_path = os.path.join(directory, "jobs.tsv")
        with open(jobs_path, "w", encoding="utf-8") as f:
            f.writelines(f"{name}\t{' '.join(flags)}\n" for name, flags in jobs)
        children = []
        for side, root in (("old", args.old_root), ("new", args.new_root)):
            env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
            with open(os.path.join(directory, f"{side}.tsv"), "w") as out:
                children.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--child", directory,
                     jobs_path], env=env, stdout=out))
        if any([child.wait() for child in children]):
            print("a child failed", file=sys.stderr)
            return 1
        old, new = (read_answers(os.path.join(directory, f"{side}.tsv"))
                    for side in ("old", "new"))
        if not len(old) == len(new) == len(jobs):
            print("a child answered too few runs", file=sys.stderr)
            return 1

    diffs = [(a[0], a[1]) for a, b in zip(old, new)
             if a != b or (a[0].startswith("overflow") and a[2] != "1")]
    exits = collections.Counter(a[2] for a in new)
    print(f"{len(new)} runs per side; exit codes (new): "
          + ", ".join(f"{code}: {count}" for code, count in sorted(exits.items())))
    for name, flags in diffs:
        print(f"differs: {name} {flags}")
    print(f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
