"""Frontend for the matrix DSL: lexer, recursive-descent parser, constant resolution.

Surface grammar (documented in full under docs/grammar.md):

    program       ::= line*
    line          ::= statement? comment? NEWLINE
    statement     ::= const_bind | matrix_decl | identity_decl | assign | print_stmt
    const_bind    ::= IDENT "=" INT
    matrix_decl   ::= "Matrix" IDENT "(" dim "," dim ")" "<" prop_list? ">"
                      (":" elem)? ("=" NUMBER)?
    identity_decl ::= "Identity" IDENT "(" dim ")" (":" elem)?
    assign        ::= IDENT "=" expr
    print_stmt    ::= "print" "(" expr ")"
    expr          ::= mulexpr ("+" mulexpr)*
    mulexpr       ::= atom ("*" atom)*
    atom          ::= IDENT | "transpose" "(" expr ")" | "Identity" "(" dim ")"
                    | "(" expr ")"
    dim           ::= IDENT | INT

Statements are newline-terminated; `#` starts a comment. Consecutive `*`
operands collect into one variadic Mul node and `+` into Add; parenthesized
groups flatten too, so no Mul has a Mul child and no Add has an Add child.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .errors import (
    AssignToIdentity,
    DuplicateDeclaration,
    LexError,
    MultipleAssignment,
    NonPositiveDimension,
    ParseError,
    UnboundConstant,
    UndeclaredIdentifier,
    UnknownProperty,
    UseBeforeAssign,
)
from .properties import DECLARED_NAMES, ElemKind


class Loc(NamedTuple):
    line: int
    col: int


_NOWHERE = Loc(0, 0)


class TokenKind(enum.Enum):
    IDENT = "identifier"
    INT = "integer"
    FLOAT = "number"
    KW_MATRIX = "'Matrix'"
    KW_IDENTITY = "'Identity'"
    KW_PRINT = "'print'"
    KW_TRANSPOSE = "'transpose'"
    EQUALS = "'='"
    LPAREN = "'('"
    RPAREN = "')'"
    LT = "'<'"
    GT = "'>'"
    COMMA = "','"
    STAR = "'*'"
    PLUS = "'+'"
    COLON = "':'"
    NEWLINE = "newline"
    EOF = "end of input"


# The kinds as module names, in definition order: on Python 3.11 `EnumType`
# defines `__getattr__`, which puts every read of `TokenKind.IDENT` on a slow
# path (about 0.1 us), and the lexer and parser test a kind on every token.
(IDENT, INT, FLOAT, KW_MATRIX, KW_IDENTITY, KW_PRINT, KW_TRANSPOSE, EQUALS,
 LPAREN, RPAREN, LT, GT, COMMA, STAR, PLUS, COLON, NEWLINE, EOF) = TokenKind

# Keywords and punctuation by their text, which their kind's value quotes.
_FIXED = {k.value[1:-1]: k for k in TokenKind if k.value.startswith("'")}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    col: int


# One match per lexeme, blanks before it folded in. The classes are spelled
# out in ASCII: `\w` and `\d` would also accept letters and digits of other
# scripts. A character no lexeme starts with lands in the catch-all group, so
# `finditer` skips nothing; `\Z` takes a trailing run of blanks, of which the
# catch-all would otherwise take the last blank.
_LEXEME = re.compile(r"""[ \t\r]*(?:
    (\#[^\n]*)                     # 1 comment
    | ([A-Za-z_][A-Za-z0-9_]*)     # 2 word
    | ([0-9]+\.[0-9]+)             # 3 number
    | ([0-9]+)                     # 4 integer
    | ([=()<>,*+:])                # 5 punctuation
    | (\n)                         # 6 newline
    | (.)                          # 7 anything else
    | \Z)""", re.DOTALL | re.VERBOSE)
# A lexeme's kind by its group, unless `_FIXED` has its text.
_GROUP_KIND = (None, None, IDENT, FLOAT, INT, None, NEWLINE)


def tokenize(text: str) -> list[Token]:
    """Lex a program into tokens carrying 1-based line/column positions."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        group = m.lastindex
        if group is None or group == 1:  # end of input, or a comment
            continue
        lexeme = m[group]
        col = m.start(group) - line_start + 1
        if group == 7:
            raise LexError(line, col, lexeme)
        tokens.append(Token(_FIXED.get(lexeme, _GROUP_KIND[group]),
                            lexeme, line, col))
        if group == 6:
            line, line_start = line + 1, m.end()
    tokens.append(Token(EOF, "", line, len(text) - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

DimExpr = Union[int, str]  # literal or constant name


@dataclass(frozen=True)
class Ref:
    name: str
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(frozen=True)
class Mul:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2
        assert not any(isinstance(o, Mul) for o in self.operands)


@dataclass(frozen=True)
class Add:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2
        assert not any(isinstance(o, Add) for o in self.operands)


@dataclass(frozen=True)
class Transpose:
    operand: "Expr"


@dataclass(frozen=True)
class IdentityLit:
    order: DimExpr


Expr = Union[Ref, Mul, Add, Transpose, IdentityLit]


@dataclass(frozen=True)
class ConstBinding:
    name: str
    value: int
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(frozen=True)
class MatrixDecl:
    name: str
    rows: DimExpr
    cols: DimExpr
    props: tuple[str, ...]
    elem: ElemKind = ElemKind.F32
    fill: float = 1.0
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(frozen=True)
class IdentityDecl:
    name: str
    order: DimExpr
    elem: ElemKind = ElemKind.F32
    loc: Loc = field(default=_NOWHERE, compare=False)


Decl = Union[MatrixDecl, IdentityDecl]


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(frozen=True)
class PrintStmt:
    expr: Expr
    loc: Loc = field(default=_NOWHERE, compare=False)


Stmt = Union[Assign, PrintStmt]


@dataclass(frozen=True)
class Ast:
    consts: tuple[ConstBinding, ...]
    decls: tuple[Decl, ...]
    stmts: tuple[Stmt, ...]

    @property
    def const_bindings(self) -> dict[str, int]:
        return {c.name: c.value for c in self.consts}


def flatten(cls: type[Mul] | type[Add], operands: Iterable[Expr]) -> Expr:
    """Build a `cls` node, splicing in operands that are `cls` nodes too;
    a single operand is returned as it is."""
    ops: list[Expr] = []
    for o in operands:
        ops.extend(o.operands) if isinstance(o, cls) else ops.append(o)
    return ops[0] if len(ops) == 1 else cls(tuple(ops))


def walk_expr(e: Expr) -> Iterator[Expr]:
    """Every node of an expression in pre-order, operands left to right."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, (Mul, Add)):
            stack.extend(reversed(e.operands))
        elif isinstance(e, Transpose):
            stack.append(e.operand)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


# Deepest nesting of parenthesized groups (`(...)`, `transpose(...)`) the
# parser accepts. The parser and the later expression walks recurse once or a
# few times per level, so this keeps them well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over a token list that ends in EOF; `tok` is the
    current token, and `advance` never moves past EOF."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]
        self.depth = 0

    def advance(self) -> Token:
        tok = self.tok
        if tok.kind is not EOF:
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def expect(self, kind: TokenKind) -> Token:
        if self.tok.kind is not kind:
            self.fail((kind.value,), self.tok)
        return self.advance()

    def fail(self, expected: tuple[str, ...], tok: Token) -> None:
        found = tok.kind.value if tok.text == "" else repr(tok.text)
        raise ParseError(tok.line, tok.col, expected, found)

    def parse_program(self) -> Ast:
        consts: list[ConstBinding] = []
        decls: list[Decl] = []
        stmts: list[Stmt] = []
        while True:
            while self.tok.kind is NEWLINE:
                self.advance()
            kind = self.tok.kind
            if kind is EOF:
                break
            if kind is KW_MATRIX:
                decls.append(self.parse_matrix_decl())
            elif kind is KW_IDENTITY:
                decls.append(self.parse_identity_decl())
            elif kind is KW_PRINT:
                stmts.append(self.parse_print())
            elif kind is IDENT:
                stmt = self.parse_const_or_assign()
                consts.append(stmt) if isinstance(stmt, ConstBinding) \
                    else stmts.append(stmt)
            else:
                self.fail(("a statement",), self.tok)
            # The statement ends at a newline or at the end of input.
            if self.tok.kind is NEWLINE:
                self.advance()
            elif self.tok.kind is not EOF:
                self.fail(("newline",), self.tok)
        return Ast(tuple(consts), tuple(decls), tuple(stmts))

    def parse_dim(self) -> DimExpr:
        tok = self.tok
        if tok.kind is INT:
            self.advance()
            return int(tok.text)
        if tok.kind is IDENT:
            self.advance()
            return tok.text
        self.fail(("dimension (integer or constant name)",), tok)
        raise AssertionError  # fail always raises

    def parse_elem_suffix(self) -> ElemKind:
        if self.tok.kind is not COLON:
            return ElemKind.F32
        self.advance()
        tok = self.expect(IDENT)
        for kind in ElemKind:
            if tok.text == kind.value:
                return kind
        raise ParseError(tok.line, tok.col, ("'f32'", "'f64'"), repr(tok.text))

    def parse_matrix_decl(self) -> MatrixDecl:
        kw = self.advance()
        name = self.expect(IDENT).text
        self.expect(LPAREN)
        rows = self.parse_dim()
        self.expect(COMMA)
        cols = self.parse_dim()
        self.expect(RPAREN)
        self.expect(LT)
        props: list[str] = []
        if self.tok.kind is IDENT:
            props.append(self.advance().text)
            while self.tok.kind is COMMA:
                self.advance()
                props.append(self.expect(IDENT).text)
        self.expect(GT)
        elem = self.parse_elem_suffix()
        fill = 1.0
        if self.tok.kind is EQUALS:
            self.advance()
            tok = self.tok
            if tok.kind is not INT and tok.kind is not FLOAT:
                self.fail(("fill value (number)",), tok)
            self.advance()
            fill = float(tok.text)
        return MatrixDecl(name, rows, cols, tuple(props), elem, fill,
                          Loc(kw.line, kw.col))

    def parse_identity_decl(self) -> IdentityDecl:
        kw = self.advance()
        name = self.expect(IDENT).text
        self.expect(LPAREN)
        order = self.parse_dim()
        self.expect(RPAREN)
        elem = self.parse_elem_suffix()
        return IdentityDecl(name, order, elem, Loc(kw.line, kw.col))

    def parse_print(self) -> PrintStmt:
        kw = self.advance()
        self.expect(LPAREN)
        expr = self.parse_expr()
        self.expect(RPAREN)
        return PrintStmt(expr, Loc(kw.line, kw.col))

    def parse_const_or_assign(self) -> ConstBinding | Assign:
        name_tok = self.advance()
        self.expect(EQUALS)
        loc = Loc(name_tok.line, name_tok.col)
        # `x = 5` alone on a line binds a constant; anything else is an
        # equation assignment (scalars are not matrix expressions). An INT
        # is not the final EOF, so the token after it exists.
        if self.tok.kind is INT and self.tokens[self.pos + 1].kind in (
                NEWLINE, EOF):
            return ConstBinding(name_tok.text, int(self.advance().text), loc)
        return Assign(name_tok.text, self.parse_expr(), loc)

    def parse_expr(self) -> Expr:
        first = self.parse_mulexpr()
        if self.tok.kind is not PLUS:
            return first
        operands = [first]
        while self.tok.kind is PLUS:
            self.advance()
            operands.append(self.parse_mulexpr())
        return flatten(Add, operands)

    def parse_mulexpr(self) -> Expr:
        first = self.parse_atom()
        if self.tok.kind is not STAR:
            return first
        operands = [first]
        while self.tok.kind is STAR:
            self.advance()
            operands.append(self.parse_atom())
        return flatten(Mul, operands)

    def parse_atom(self) -> Expr:
        tok = self.tok
        if tok.kind is IDENT:
            self.advance()
            return Ref(tok.text, Loc(tok.line, tok.col))
        if tok.kind is KW_TRANSPOSE:
            self.advance()
            return Transpose(self.parse_group())
        if tok.kind is KW_IDENTITY:
            self.advance()
            self.expect(LPAREN)
            order = self.parse_dim()
            self.expect(RPAREN)
            return IdentityLit(order)
        if tok.kind is LPAREN:
            return self.parse_group()
        self.fail(("matrix expression",), tok)
        raise AssertionError

    def parse_group(self) -> Expr:
        """`"(" expr ")"`, at most MAX_NESTING groups deep."""
        tok = self.expect(LPAREN)
        if self.depth == MAX_NESTING:
            self.fail((f"at most {MAX_NESTING} nested parentheses",), tok)
        self.depth += 1
        inner = self.parse_expr()
        self.expect(RPAREN)
        self.depth -= 1
        return inner


def _validate(ast: Ast) -> None:
    """Name and single-assignment checks over the parsed program.

    A name assigned anywhere is an equation alias: uses must follow the
    assignment. A declared name never assigned is an input matrix.
    """
    consts: dict[str, ConstBinding] = {}
    for c in ast.consts:
        if c.name in consts:
            raise DuplicateDeclaration(f"constant {c.name!r} bound twice",
                                       line=c.loc.line, col=c.loc.col)
        consts[c.name] = c

    decls: dict[str, Decl] = {}
    for d in ast.decls:
        if d.name in decls or d.name in consts:
            raise DuplicateDeclaration(f"{d.name!r} declared twice",
                                       line=d.loc.line, col=d.loc.col)
        if isinstance(d, MatrixDecl):
            for p in d.props:
                if p not in DECLARED_NAMES:
                    raise UnknownProperty(f"unknown property {p!r}",
                                          line=d.loc.line, col=d.loc.col)
        decls[d.name] = d

    assign_line: dict[str, int] = {}
    for s in ast.stmts:
        if isinstance(s, Assign):
            if s.target in assign_line:
                raise MultipleAssignment(
                    f"{s.target!r} assigned more than once",
                    line=s.loc.line, col=s.loc.col)
            if s.target in consts:
                raise DuplicateDeclaration(
                    f"{s.target!r} is already a constant",
                    line=s.loc.line, col=s.loc.col)
            if isinstance(decls.get(s.target), IdentityDecl):
                raise AssignToIdentity(
                    f"cannot assign to identity {s.target!r}",
                    line=s.loc.line, col=s.loc.col)
            assign_line[s.target] = s.loc.line

    for s in ast.stmts:
        refs = [(e.name, e.loc) for e in walk_expr(s.expr) if isinstance(e, Ref)]
        for name, loc in refs:
            if name in assign_line:
                if assign_line[name] >= s.loc.line:
                    raise UseBeforeAssign(
                        f"{name!r} used before its assignment",
                        line=loc.line, col=loc.col)
            elif name not in decls:
                raise UndeclaredIdentifier(f"{name!r} is not declared",
                                           line=loc.line, col=loc.col)


def parse(tokens: list[Token]) -> Ast:
    """Parse a token stream into a validated Ast."""
    ast = _Parser(tokens).parse_program()
    _validate(ast)
    return ast


def parse_source(text: str) -> Ast:
    return parse(tokenize(text))


# --------------------------------------------------------------------------
# Constant resolution and dimension scaling
# --------------------------------------------------------------------------


def map_dims(ast: Ast, f: Callable[[DimExpr, Loc], int]) -> Ast:
    """Replace every dimension `d` by `f(d, loc)`, `loc` being the enclosing
    declaration's or statement's. Declarations go before statements, rows
    before cols, operands left to right: the first bad dimension fails first.
    Nodes holding no changed dimension are kept as they are.
    """
    def map_expr(e: Expr, use: Loc) -> Expr:
        if isinstance(e, IdentityLit):
            order = f(e.order, use)
            return e if order == e.order else IdentityLit(order)
        if isinstance(e, (Mul, Add)):
            ops = tuple([map_expr(o, use) for o in e.operands])
            kept = all(a is b for a, b in zip(ops, e.operands))
            return e if kept else type(e)(ops)
        if isinstance(e, Transpose):
            o = map_expr(e.operand, use)
            return e if o is e.operand else Transpose(o)
        return e

    decls: list[Decl] = []
    for d in ast.decls:
        if isinstance(d, MatrixDecl):
            rows, cols = f(d.rows, d.loc), f(d.cols, d.loc)
            decls.append(d if (rows, cols) == (d.rows, d.cols) else MatrixDecl(
                d.name, rows, cols, d.props, d.elem, d.fill, d.loc))
        else:
            order = f(d.order, d.loc)
            decls.append(d if order == d.order else
                         IdentityDecl(d.name, order, d.elem, d.loc))
    stmts: list[Stmt] = []
    for s in ast.stmts:
        e = map_expr(s.expr, s.loc)
        if e is not s.expr:
            s = Assign(s.target, e, s.loc) if isinstance(s, Assign) \
                else PrintStmt(e, s.loc)
        stmts.append(s)
    return Ast(ast.consts, tuple(decls), tuple(stmts))


def resolve_constants(ast: Ast) -> Ast:
    """Replace every dimension expression by its integer value.

    Constants bind in declaration order: a dimension may only reference a
    constant bound on an earlier line.
    """
    bound: dict[str, ConstBinding] = {c.name: c for c in ast.consts}

    def resolve(dim: DimExpr, use: Loc) -> int:
        if isinstance(dim, str):
            c = bound.get(dim)
            if c is None or c.loc.line >= use.line:
                raise UnboundConstant(f"constant {dim!r} is not bound here",
                                      line=use.line, col=use.col)
            value = c.value
        else:
            value = dim
        if value <= 0:
            raise NonPositiveDimension(f"dimension must be positive, got {value}",
                                       line=use.line, col=use.col)
        return value

    return map_dims(ast, resolve)


def scale_dimensions(ast: Ast, divisor: int) -> Ast:
    """Divide every resolved dimension by `divisor` (clamped to at least 1)."""
    if divisor == 1:
        return ast

    def scale(dim: DimExpr, use: Loc) -> int:
        assert isinstance(dim, int), "scale_dimensions requires a resolved Ast"
        return max(1, dim // divisor)

    return map_dims(ast, scale)


# --------------------------------------------------------------------------
# Pretty-printer (canonical source form; parse(pretty(ast)) == ast)
# --------------------------------------------------------------------------


def _fmt_fill(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def pretty_expr(e: Expr) -> str:
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Transpose):
        return f"transpose({pretty_expr(e.operand)})"
    if isinstance(e, IdentityLit):
        return f"Identity({e.order})"
    if isinstance(e, Mul):
        parts = [f"({pretty_expr(o)})" if isinstance(o, Add) else pretty_expr(o)
                 for o in e.operands]
        return " * ".join(parts)
    return " + ".join(pretty_expr(o) for o in e.operands)


def pretty(ast: Ast) -> str:
    """Canonical source text: constants, then declarations, then statements."""
    lines: list[str] = []
    for c in ast.consts:
        lines.append(f"{c.name} = {c.value}")
    for d in ast.decls:
        if isinstance(d, MatrixDecl):
            line = f"Matrix {d.name}({d.rows}, {d.cols}) <{', '.join(d.props)}>"
            if d.elem is not ElemKind.F32:
                line += f" : {d.elem}"
            if d.fill != 1.0:
                line += f" = {_fmt_fill(d.fill)}"
        else:
            line = f"Identity {d.name}({d.order})"
            if d.elem is not ElemKind.F32:
                line += f" : {d.elem}"
        lines.append(line)
    for s in ast.stmts:
        if isinstance(s, Assign):
            lines.append(f"{s.target} = {pretty_expr(s.expr)}")
        else:
            lines.append(f"print({pretty_expr(s.expr)})")
    return "\n".join(lines) + "\n"
