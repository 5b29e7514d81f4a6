"""Random well-typed program and chain generators for the test suite.

Generated programs use integer fills with magnitudes bounded so that every
intermediate value is exactly representable in f32 regardless of how products
are regrouped; output comparisons can then demand bit equality. A statement
may use the result `T<n>` of an earlier one as an operand; the result's
magnitude bound goes with it, so the bound of every expression still holds.
"""

from __future__ import annotations

import os
import random

from momc.ir import MatrixType
from momc.properties import ElemKind, PropertySet, Property

# The five closed property sets, by their surface declaration names.
CLOSED_SETS: list[tuple[str, ...]] = [
    (),
    ("LowerTriangular",),
    ("UpperTriangular",),
    ("Symmetric",),
    ("Diagonal",),
]

CLOSED_PSETS: list[PropertySet] = [
    PropertySet.closure(()),
    PropertySet.closure((Property.LOWER_TRIANGULAR,)),
    PropertySet.closure((Property.UPPER_TRIANGULAR,)),
    PropertySet.closure((Property.SYMMETRIC,)),
    PropertySet.closure((Property.DIAGONAL,)),
]

MAX_MAG = 2 ** 22  # keeps f32 sums of products exact


def default_seed() -> int:
    return int(os.environ.get("MOMC_SEED", "20260810"))


class ProgramGen:
    """Type-directed generator: expressions are built shape-first and input
    matrices are declared on demand for each leaf."""

    def __init__(self, rng: random.Random, max_dim: int = 12) -> None:
        self.rng = rng
        hi = max(2, max_dim)
        self.pool = sorted(rng.sample(range(1, hi + 1),
                                      k=min(rng.randint(2, 4), hi)))
        self.decl_lines: list[str] = []
        self.n_names = 0
        # (name, rows, cols, magnitude bound) of each earlier statement's result
        self.results: list[tuple[str, int, int, int]] = []

    def fresh(self, prefix: str = "M") -> str:
        self.n_names += 1
        return f"{prefix}{self.n_names}"

    def new_matrix(self, rows: int, cols: int) -> tuple[str, int]:
        name = self.fresh()
        fill = self.rng.randint(1, 4)
        props: tuple[str, ...] = ()
        if rows == cols and self.rng.random() < 0.6:
            props = self.rng.choice(CLOSED_SETS)
        line = f"Matrix {name}({rows}, {cols}) <{', '.join(props)}>"
        if fill != 1:
            line += f" = {fill}"
        self.decl_lines.append(line)
        return name, fill

    def new_identity(self, n: int) -> str:
        name = self.fresh("I")
        self.decl_lines.append(f"Identity {name}({n})")
        return name

    def gen_atom(self, rows: int, cols: int, depth: int) -> tuple[str, int]:
        earlier = [(name, bound) for name, r, c, bound in self.results
                   if (r, c) == (rows, cols)]
        if earlier and self.rng.random() < 0.3:
            return self.rng.choice(earlier)
        r = self.rng.random()
        if rows == cols and r < 0.15:
            return self.gen_identity(rows), 1
        if r < 0.35 and depth > 0:
            if self.rng.random() < 0.2:
                text, bound = self.gen_operand(rows, cols, depth - 1)
                return f"transpose(transpose({text}))", bound
            text, bound = self.gen_operand(cols, rows, depth - 1)
            return f"transpose({text})", bound
        return self.new_matrix(rows, cols)

    def gen_identity(self, n: int) -> str:
        """An identity of order n: named or literal, sometimes transposed or
        a product of identities, which simplification must fold away."""
        def one() -> str:
            if self.rng.random() < 0.5:
                return self.new_identity(n)
            return f"Identity({n})"
        r = self.rng.random()
        if r < 0.15:
            return f"transpose({one()})"
        if r < 0.3:
            return f"transpose({one()} * {one()})"
        return one()

    def gen_mul(self, rows: int, cols: int, depth: int) -> tuple[str, int]:
        k = self.rng.randint(2, 4)
        dims = [rows] + [self.rng.choice(self.pool) for _ in range(k - 1)] + [cols]
        texts: list[str] = []
        bound = 1
        for i in range(k):
            text, b = self.gen_operand(dims[i], dims[i + 1], depth - 1)
            texts.append(text)
            bound *= b
        for inner in dims[1:-1]:
            bound *= inner
        if bound > MAX_MAG:
            return self.gen_atom(rows, cols, depth)
        return " * ".join(texts), bound

    def gen_add(self, rows: int, cols: int, depth: int) -> tuple[str, int]:
        k = self.rng.randint(2, 3)
        texts: list[str] = []
        bound = 0
        for _ in range(k):
            text, b = self.gen_operand(rows, cols, depth - 1)
            texts.append(text)
            bound += b
        if bound > MAX_MAG:
            return self.gen_atom(rows, cols, depth)
        return "(" + " + ".join(texts) + ")", bound

    def gen_operand(self, rows: int, cols: int, depth: int) -> tuple[str, int]:
        r = self.rng.random()
        if depth > 0 and r < 0.35:
            return self.gen_mul(rows, cols, depth)
        if depth > 0 and r < 0.55:
            return self.gen_add(rows, cols, depth)
        return self.gen_atom(rows, cols, depth)

    def gen_program(self, n_stmts: int | None = None) -> str:
        stmt_lines: list[str] = []
        for _ in range(n_stmts or self.rng.randint(1, 3)):
            rows = self.rng.choice(self.pool)
            cols = self.rng.choice(self.pool)
            text, bound = self.gen_operand(rows, cols, depth=2)
            target = self.fresh("T")
            stmt_lines.append(f"{target} = {text}")
            stmt_lines.append(f"print({target})")
            self.results.append((target, rows, cols, bound))
        return "\n".join(self.decl_lines + stmt_lines) + "\n"


def random_program(rng: random.Random, max_dim: int = 12) -> str:
    return ProgramGen(rng, max_dim).gen_program()


def random_chain(rng: random.Random, min_len: int = 2, max_len: int = 8,
                 max_dim: int = 50) -> list[MatrixType]:
    """Dimension-compatible chain; square operands get random property sets."""
    k = rng.randint(min_len, max_len)
    if rng.random() < 0.5:
        n = rng.randint(1, max_dim)
        dims = [n] * (k + 1)
    else:
        dims = [rng.randint(1, max_dim) for _ in range(k + 1)]
    chain = []
    for i in range(k):
        r, c = dims[i], dims[i + 1]
        props = CLOSED_PSETS[0]
        if r == c and rng.random() < 0.7:
            props = rng.choice(CLOSED_PSETS)
        chain.append(MatrixType(r, c, ElemKind.F64, props))
    return chain


def run_chain(rng: random.Random, k: int,
              dims: tuple[int, ...] = (1, 2, 3, 4, 8, 16)) -> list[MatrixType]:
    """k operands shaped like perfbench's chain-dp chains: square runs of 2-6
    operands with random property sets between rectangular steps to another
    dim. A dim of 1 gives 1x1 operands and steps through a vector."""
    cur = rng.choice(dims)
    chain: list[MatrixType] = []
    while len(chain) < k:
        if rng.random() < 0.6:
            for _ in range(min(k - len(chain), rng.randint(2, 6))):
                chain.append(MatrixType(cur, cur, ElemKind.F64,
                                        rng.choice(CLOSED_PSETS)))
        else:
            nxt = rng.choice([d for d in dims if d != cur])
            chain.append(MatrixType(cur, nxt, ElemKind.F64, CLOSED_PSETS[0]))
            cur = nxt
    return chain
