"""Seeded generators for the benchmark's three workloads.

Every program is built as an expression tree first and rendered to `.mom`
source text second, so the reference evaluator (reference.py) can evaluate
the tree without going through momc.

Each workload draws from two random streams. The *shape* stream has a fixed
seed per workload: it picks everything that sets the cost of compiling and
running, i.e. chain lengths, dims, structure properties, statement kinds and
operand counts. The *spelling* stream comes from `--seed`: it picks names,
fill values, whether a dim is written as a constant or a literal, whether an
identity is declared or written inline, and whether an operand is written
as the transpose of a transposed declaration or as a sum. So two seeds give
different source text that poses the chain solver the same problems, with
the same multiplication counts, and their timings are comparable. Shape
draws never depend on spelling draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal

F32, F64 = "f32", "f64"
MANTISSA_BITS = {F32: 24, F64: 53}


@dataclass(frozen=True)
class Mat:
    """A declared input matrix; `rows_src`/`cols_src` are the dim spellings."""

    name: str
    rows: int
    cols: int
    props: tuple[str, ...]
    elem: str
    fill: float
    rows_src: str = ""
    cols_src: str = ""


@dataclass(frozen=True)
class Ident:
    name: str
    order: int
    elem: str


# Expression nodes: ("in", name) a declared input, ("ref", name) an earlier
# assigned result, ("id", n) an f32 identity literal, ("mul", children),
# ("add", children), ("t", child).
Expr = tuple
# Statements: ("const", name, v), ("mat", Mat), ("ident", Ident),
# ("assign", target, Expr) and ("print", Expr).
Stmt = tuple


@dataclass
class Program:
    """One generated program: its statements, source text and check policy."""

    name: str
    stmts: list[Stmt] = field(default_factory=list)
    timed: bool = True  # False: attempted and checked, but kept out of metrics
    exact: bool = True  # every printed value is an exactly representable integer

    @property
    def text(self) -> str:
        return render(self.stmts)


def _fill_text(v: float) -> str:
    # The grammar has no exponent form; dyadic fills have a finite expansion.
    return str(int(v)) if float(v).is_integer() else format(Decimal(v), "f")


def expr_text(e: Expr) -> str:
    tag = e[0]
    if tag in ("in", "ref"):
        return e[1]
    if tag == "id":
        return f"Identity({e[1]})"
    if tag == "t":
        return f"transpose({expr_text(e[1])})"
    if tag == "add":
        return " + ".join(expr_text(c) for c in e[1])
    return " * ".join(f"({expr_text(c)})" if c[0] == "add" else expr_text(c)
                      for c in e[1])


def render(stmts: list[Stmt]) -> str:
    lines = []
    for s in stmts:
        if s[0] == "const":
            lines.append(f"{s[1]} = {s[2]}")
        elif s[0] == "mat":
            m: Mat = s[1]
            line = (f"Matrix {m.name}({m.rows_src or m.rows}, "
                    f"{m.cols_src or m.cols}) <{', '.join(m.props)}>")
            if m.elem != F32:
                line += f" : {m.elem}"
            if m.fill != 1:
                line += f" = {_fill_text(m.fill)}"
            lines.append(line)
        elif s[0] == "ident":
            i: Ident = s[1]
            lines.append(f"Identity {i.name}({i.order})"
                         + (f" : {i.elem}" if i.elem != F32 else ""))
        elif s[0] == "assign":
            lines.append(f"{s[1]} = {expr_text(s[2])}")
        else:
            lines.append(f"print({expr_text(s[1])})")
    return "\n".join(lines) + "\n"


SWAP = {"LowerTriangular": "UpperTriangular",
        "UpperTriangular": "LowerTriangular"}
DIAG = ("Diagonal",)
SQUARE_KINDS = ((), ("LowerTriangular",), ("UpperTriangular",), DIAG,
                ("Symmetric",))


def swapped(props: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(SWAP.get(p, p) for p in props)


class Emitter:
    """Declares inputs as operands are spelled and tracks magnitude bounds."""

    def __init__(self, spell: random.Random, elem: str,
                 consts: tuple[int, ...] = ()) -> None:
        self.spell = spell
        self.elem = elem
        self.prefix = spell.choice("ABCEFGHJKLNPQRSUVWXYZ")
        self.consts = consts
        self.stmts: list[Stmt] = [("const", f"d{d}", d) for d in consts]
        self.n = 0
        self.max_bound = 1.0

    def fresh(self, letter: str) -> str:
        self.n += 1
        return f"{self.prefix}{letter}{self.n}"

    def _dim(self, d: int) -> str:
        use_const = d in self.consts and self.spell.random() < 0.5
        return f"d{d}" if use_const else ""

    def mat(self, rows: int, cols: int, props: tuple[str, ...] = (),
            fill: float = 1.0) -> Expr:
        m = Mat(self.fresh("M"), rows, cols, props, self.elem, fill,
                self._dim(rows), self._dim(cols))
        self.stmts.append(("mat", m))
        return ("in", m.name)

    def leaf(self, rows: int, cols: int, props: tuple[str, ...], fill: float,
             p_transposed: float) -> Expr:
        """A matrix operand, written either plainly or as transpose(X)."""
        if self.spell.random() < p_transposed:
            return ("t", self.mat(cols, rows, swapped(props), fill))
        return self.mat(rows, cols, props, fill)

    def identity(self, n: int) -> Expr:
        if self.elem == F32 and self.spell.random() < 0.5:
            return ("id", n)
        i = Ident(self.fresh("I"), n, self.elem)
        self.stmts.append(("ident", i))
        return ("in", i.name)

    def print_assigned(self, e: Expr, bound: float) -> str:
        """`T = e` then `print(T)`; `bound` caps the magnitude of e's entries."""
        target = self.fresh("T")
        self.stmts += [("assign", target, e), ("print", ("ref", target))]
        self.max_bound = max(self.max_bound, bound)
        return target

    def exact(self) -> bool:
        return self.max_bound <= 2 ** (MANTISSA_BITS[self.elem] - 2)


# --------------------------------------------------------------------------
# chain-dp: long variadic products, compile-bound
# --------------------------------------------------------------------------

CHAIN_DIMS = (2, 4, 8, 16)
CHAIN_LENGTHS = (50, 70, 90)


def chain_skeleton(shape: random.Random, k: int) -> list[tuple[int, int, tuple]]:
    """(rows, cols, props) of k operands: square structured runs of 2-6
    operands between rectangular steps to another power-of-two dim."""
    cur = shape.choice(CHAIN_DIMS)
    ops: list[tuple[int, int, tuple]] = []
    while len(ops) < k:
        if shape.random() < 0.6:
            for _ in range(min(k - len(ops), shape.randint(2, 6))):
                ops.append((cur, cur, shape.choice(SQUARE_KINDS)))
        else:
            nxt = shape.choice([d for d in CHAIN_DIMS if d != cur])
            ops.append((cur, nxt, ()))
            cur = nxt
    return ops


def chain_program(shape: random.Random, spell: random.Random, k: int,
                  index: int) -> Program:
    """`T = X1 * ... * Xk; print(T)` in f64.

    Every operand's rows sum to at most 1 (fill 1/cols, diagonals at most 1),
    so the product stays finite and no entry underflows for these lengths.
    A tenth of the operands are written as transposes and a tenth as sums,
    so the transpose and add paths run too.
    """
    ops = chain_skeleton(shape, k)
    b = Emitter(spell, F64)
    picked = spell.sample(range(k), 2 * (k // 10))
    transposed, summed = set(picked[: k // 10]), set(picked[k // 10:])
    operands: list[Expr] = []
    for i, (r, c, props) in enumerate(ops):
        fill = (1.0 if props == DIAG else 1.0 / c) * spell.choice((0.5, 1.0))
        if i in summed:
            # The sum keeps the operand's type: props meet DIAG's closure in
            # props, and an unstructured operand meets anything in ().
            if r != c:
                other: tuple = ()
            elif props:
                other = spell.choice((props, DIAG))
            else:
                other = spell.choice(SQUARE_KINDS)
            other_fill = 1.0 if other == DIAG else 1.0 / c
            operands.append(("add", (b.mat(r, c, props, fill / 2),
                                     b.mat(r, c, other, other_fill / 2))))
        else:
            operands.append(b.leaf(r, c, props, fill,
                                   1.0 if i in transposed else 0.0))
    b.print_assigned(("mul", tuple(operands)), 1.0)
    return Program(f"chain{index}-k{k}", b.stmts, exact=False)


def chain_programs(shape: random.Random, spell: random.Random) -> list[Program]:
    return [chain_program(shape, spell, k, i)
            for i, k in enumerate(CHAIN_LENGTHS)]


# --------------------------------------------------------------------------
# kernels: short chains of large operands, run-bound
# --------------------------------------------------------------------------


def kernel_programs(shape: random.Random, spell: random.Random) -> list[Program]:
    """The paper's 800x1100x900x1200x100 chain (f32), a 1000^2 lower x lower
    product (f64), and diagonal/upper/transposed products plus a symmetric
    add (f32). Shapes are fixed; the seed picks names and integer fills."""
    def fill() -> float:
        return float(spell.randint(1, 3))

    b = Emitter(spell, F32)
    dims = (800, 1100, 900, 1200, 100)
    ops = tuple(b.mat(r, c, (), fill()) for r, c in zip(dims, dims[1:]))
    b.print_assigned(("mul", ops), 3.0 ** 4 * 1100 * 900 * 1200)
    progs = [Program("chain4-f32", b.stmts, exact=b.exact())]

    b = Emitter(spell, F64)
    ops = tuple(b.mat(1000, 1000, ("LowerTriangular",), fill()) for _ in range(2))
    b.print_assigned(("mul", ops), 3.0 ** 2 * 1000)
    progs.append(Program("lower2-f64", b.stmts, exact=b.exact()))

    n = 256
    b = Emitter(spell, F32, consts=(n,))
    g = b.mat(n, n // 2, (), fill())
    u = b.mat(n, n, ("UpperTriangular",), fill())
    d = b.mat(n, n, DIAG, fill())
    s1 = b.mat(n, n, ("Symmetric",), fill())
    s2 = b.mat(n, n, ("Symmetric",), fill())
    b.print_assigned(("mul", (("t", g), u, d)), 3.0 ** 3 * n * n)
    b.print_assigned(("mul", (d, ("add", (s1, s2)), ("t", u))), 2 * 3.0 ** 3 * n * n)
    progs.append(Program("structured-f32", b.stmts, exact=b.exact()))
    return progs


# --------------------------------------------------------------------------
# many-stmts: thousands of small statements, frontend/IR-bound
# --------------------------------------------------------------------------

SMALL_DIMS = tuple(range(2, 9))
ASSIGNS = (220, 440, 660)  # about 1,000, 2,000 and 3,000 source lines
REUSE_ASSIGNS = 10
REUSE_PROGRAMS = 2
MAX_FILL = 4
MAX_MAG = 2 ** 22  # bounds every integer result so f32 sums stay exact


def mentions_ref(e: Expr) -> bool:
    if e[0] == "t":
        return mentions_ref(e[1])
    if e[0] in ("mul", "add"):
        return any(mentions_ref(c) for c in e[1])
    return e[0] == "ref"


class StmtGen:
    """Short statements over dims 2-8 with integer fills, exact in f32.

    Each statement assigns a 2-4-operand product, a sum or a transpose and
    prints the result. With `reuse`, operands may name an earlier assigned
    result, which docs/grammar.md allows.
    """

    def __init__(self, shape: random.Random, spell: random.Random,
                 reuse: bool) -> None:
        self.shape = shape
        self.b = Emitter(spell, F32, consts=SMALL_DIMS)
        self.reuse = reuse
        self.reused = False
        self.results: list[tuple[str, int, int, float]] = []

    def atom(self, rows: int, cols: int) -> tuple[Expr, float]:
        shape, b = self.shape, self.b
        r = shape.random()
        if rows == cols and r < 0.12:
            return b.identity(rows), 1.0
        if self.reuse and r < 0.4:
            fits = [x for x in self.results if x[1:3] == (rows, cols)]
            if fits:
                name, _, _, bound = shape.choice(fits)
                return ("ref", name), bound
        props = shape.choice(SQUARE_KINDS) if rows == cols else ()
        fill = float(b.spell.randint(1, MAX_FILL))
        return b.leaf(rows, cols, props, fill, 0.25), MAX_FILL

    def operand(self, rows: int, cols: int) -> tuple[Expr, float]:
        if self.shape.random() < 0.15:
            (x, bx), (y, by) = self.atom(rows, cols), self.atom(rows, cols)
            return ("add", (x, y)), bx + by
        return self.atom(rows, cols)

    def statement(self) -> None:
        shape = self.shape
        rows, cols = shape.choice(SMALL_DIMS), shape.choice(SMALL_DIMS)
        r = shape.random()
        if r < 0.55:
            k = shape.randint(2, 4)
            dims = [rows] + [shape.choice(SMALL_DIMS) for _ in range(k - 1)] + [cols]
            parts = [self.operand(dims[i], dims[i + 1]) for i in range(k)]
            bound = 1.0
            for _, pb in parts:
                bound *= pb
            for inner in dims[1:-1]:
                bound *= inner
            if bound > MAX_MAG:
                e, bound = self.atom(rows, cols)
            else:
                e = ("mul", tuple(p for p, _ in parts))
        elif r < 0.75:
            (x, bx), (y, by) = self.operand(rows, cols), self.operand(rows, cols)
            e, bound = ("add", (x, y)), bx + by
        else:
            x, bound = self.operand(cols, rows)
            e = ("t", x)
        # A bare `T = U` alias compiles today; only an operand use crashes.
        self.reused |= e[0] != "ref" and mentions_ref(e)
        target = self.b.print_assigned(e, bound)
        self.results.append((target, rows, cols, bound))

    def program(self, name: str, assigns: int, timed: bool) -> Program:
        # A reuse program is extended until some operand names a result.
        while len(self.results) < assigns or (self.reuse and not self.reused):
            self.statement()
        return Program(name, self.b.stmts, timed=timed, exact=self.b.exact())


def many_stmt_programs(shape: random.Random,
                       spell: random.Random) -> list[Program]:
    progs = [StmtGen(shape, spell, reuse=False).program(f"stmts{n}", n, True)
             for n in ASSIGNS]
    progs += [StmtGen(shape, spell, reuse=True).program(
        f"reuse{i}", REUSE_ASSIGNS, False) for i in range(REUSE_PROGRAMS)]
    return progs


# --------------------------------------------------------------------------

WORKLOADS = {
    "chain-dp": ("specialized", chain_programs),
    "kernels": ("specialized", kernel_programs),
    "many-stmts": ("dense", many_stmt_programs),
}


def generate(workload: str, seed: int) -> tuple[str, list[Program]]:
    """(execution mode, programs) for a workload; same seed, same programs."""
    mode, make = WORKLOADS[workload]
    return mode, make(random.Random(f"{workload}:shape"),
                      random.Random(f"{workload}:{seed}"))
