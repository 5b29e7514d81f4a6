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
import string
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Union

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


@dataclass(frozen=True)
class Loc:
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


_KEYWORDS = {
    "Matrix": TokenKind.KW_MATRIX,
    "Identity": TokenKind.KW_IDENTITY,
    "print": TokenKind.KW_PRINT,
    "transpose": TokenKind.KW_TRANSPOSE,
}

_PUNCT = {
    "=": TokenKind.EQUALS,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    ",": TokenKind.COMMA,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    ":": TokenKind.COLON,
}


# The grammar's identifiers and numbers are ASCII; `str.isalpha` and
# `str.isdigit` would also accept letters and digits of other scripts.
_DIGITS = frozenset(string.digits)
_WORD_START = frozenset(string.ascii_letters + "_")
_WORD = _WORD_START | _DIGITS


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Lex a program into tokens carrying 1-based line/column positions."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            tokens.append(Token(TokenKind.NEWLINE, "\n", line, col))
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
        elif c in _WORD_START:
            start, startcol = i, col
            while i < n and text[i] in _WORD:
                i += 1
                col += 1
            word = text[start:i]
            tokens.append(Token(_KEYWORDS.get(word, TokenKind.IDENT),
                                word, line, startcol))
        elif c in _DIGITS:
            start, startcol = i, col
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            kind = TokenKind.INT
            if i + 1 < n and text[i] == "." and text[i + 1] in _DIGITS:
                kind = TokenKind.FLOAT
                i += 1
                col += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
                    col += 1
            tokens.append(Token(kind, text[start:i], line, startcol))
        elif c in _PUNCT:
            tokens.append(Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
        else:
            raise LexError(line, col, c)
    tokens.append(Token(TokenKind.EOF, "", line, col))
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
    loc: Loc = field(default=_NOWHERE, compare=False)

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2
        assert not any(isinstance(o, Mul) for o in self.operands)


@dataclass(frozen=True)
class Add:
    operands: tuple["Expr", ...]
    loc: Loc = field(default=_NOWHERE, compare=False)

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2
        assert not any(isinstance(o, Add) for o in self.operands)


@dataclass(frozen=True)
class Transpose:
    operand: "Expr"
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(frozen=True)
class IdentityLit:
    order: DimExpr
    loc: Loc = field(default=_NOWHERE, compare=False)


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


def flatten(cls: type[Mul] | type[Add], operands: Iterable[Expr],
            loc: Loc = _NOWHERE) -> Expr:
    """Build a `cls` node, splicing in operands that are `cls` nodes too;
    a single operand is returned as it is."""
    ops: list[Expr] = []
    for o in operands:
        ops.extend(o.operands) if isinstance(o, cls) else ops.append(o)
    return ops[0] if len(ops) == 1 else cls(tuple(ops), loc)


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
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            self.fail((kind.value,), tok)
        return self.advance()

    def fail(self, expected: tuple[str, ...], tok: Token) -> None:
        found = tok.kind.value if tok.text == "" else repr(tok.text)
        raise ParseError(tok.line, tok.col, expected, found)

    def skip_newlines(self) -> None:
        while self.peek().kind is TokenKind.NEWLINE:
            self.advance()

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind is TokenKind.NEWLINE:
            self.advance()
        elif tok.kind is not TokenKind.EOF:
            self.fail(("newline",), tok)

    def parse_program(self) -> Ast:
        consts: list[ConstBinding] = []
        decls: list[Decl] = []
        stmts: list[Stmt] = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind is TokenKind.EOF:
                break
            if tok.kind is TokenKind.KW_MATRIX:
                decls.append(self.parse_matrix_decl())
            elif tok.kind is TokenKind.KW_IDENTITY:
                decls.append(self.parse_identity_decl())
            elif tok.kind is TokenKind.KW_PRINT:
                stmts.append(self.parse_print())
            elif tok.kind is TokenKind.IDENT:
                stmt = self.parse_const_or_assign()
                consts.append(stmt) if isinstance(stmt, ConstBinding) \
                    else stmts.append(stmt)
            else:
                self.fail(("a statement",), tok)
            self.end_statement()
        return Ast(tuple(consts), tuple(decls), tuple(stmts))

    def parse_dim(self) -> DimExpr:
        tok = self.peek()
        if tok.kind is TokenKind.INT:
            self.advance()
            return int(tok.text)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return tok.text
        self.fail(("dimension (integer or constant name)",), tok)
        raise AssertionError  # fail always raises

    def parse_elem_suffix(self) -> ElemKind:
        if self.peek().kind is not TokenKind.COLON:
            return ElemKind.F32
        self.advance()
        tok = self.expect(TokenKind.IDENT)
        for kind in ElemKind:
            if tok.text == kind.value:
                return kind
        raise ParseError(tok.line, tok.col, ("'f32'", "'f64'"), repr(tok.text))

    def parse_matrix_decl(self) -> MatrixDecl:
        kw = self.expect(TokenKind.KW_MATRIX)
        name = self.expect(TokenKind.IDENT).text
        self.expect(TokenKind.LPAREN)
        rows = self.parse_dim()
        self.expect(TokenKind.COMMA)
        cols = self.parse_dim()
        self.expect(TokenKind.RPAREN)
        self.expect(TokenKind.LT)
        props: list[str] = []
        if self.peek().kind is TokenKind.IDENT:
            props.append(self.advance().text)
            while self.peek().kind is TokenKind.COMMA:
                self.advance()
                props.append(self.expect(TokenKind.IDENT).text)
        self.expect(TokenKind.GT)
        elem = self.parse_elem_suffix()
        fill = 1.0
        if self.peek().kind is TokenKind.EQUALS:
            self.advance()
            tok = self.peek()
            if tok.kind not in (TokenKind.INT, TokenKind.FLOAT):
                self.fail(("fill value (number)",), tok)
            self.advance()
            fill = float(tok.text)
        return MatrixDecl(name, rows, cols, tuple(props), elem, fill,
                          Loc(kw.line, kw.col))

    def parse_identity_decl(self) -> IdentityDecl:
        kw = self.expect(TokenKind.KW_IDENTITY)
        name = self.expect(TokenKind.IDENT).text
        self.expect(TokenKind.LPAREN)
        order = self.parse_dim()
        self.expect(TokenKind.RPAREN)
        elem = self.parse_elem_suffix()
        return IdentityDecl(name, order, elem, Loc(kw.line, kw.col))

    def parse_print(self) -> PrintStmt:
        kw = self.expect(TokenKind.KW_PRINT)
        self.expect(TokenKind.LPAREN)
        expr = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        return PrintStmt(expr, Loc(kw.line, kw.col))

    def parse_const_or_assign(self) -> ConstBinding | Assign:
        name_tok = self.expect(TokenKind.IDENT)
        self.expect(TokenKind.EQUALS)
        loc = Loc(name_tok.line, name_tok.col)
        # `x = 5` alone on a line binds a constant; anything else is an
        # equation assignment (scalars are not matrix expressions).
        if self.peek().kind is TokenKind.INT and \
                self.peek(1).kind in (TokenKind.NEWLINE, TokenKind.EOF):
            value = int(self.advance().text)
            return ConstBinding(name_tok.text, value, loc)
        return Assign(name_tok.text, self.parse_expr(), loc)

    def parse_expr(self) -> Expr:
        tok = self.peek()
        operands = [self.parse_mulexpr()]
        while self.peek().kind is TokenKind.PLUS:
            self.advance()
            operands.append(self.parse_mulexpr())
        return flatten(Add, operands, Loc(tok.line, tok.col))

    def parse_mulexpr(self) -> Expr:
        tok = self.peek()
        operands = [self.parse_atom()]
        while self.peek().kind is TokenKind.STAR:
            self.advance()
            operands.append(self.parse_atom())
        return flatten(Mul, operands, Loc(tok.line, tok.col))

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return Ref(tok.text, Loc(tok.line, tok.col))
        if tok.kind is TokenKind.KW_TRANSPOSE:
            self.advance()
            return Transpose(self.parse_group(), Loc(tok.line, tok.col))
        if tok.kind is TokenKind.KW_IDENTITY:
            self.advance()
            self.expect(TokenKind.LPAREN)
            order = self.parse_dim()
            self.expect(TokenKind.RPAREN)
            return IdentityLit(order, Loc(tok.line, tok.col))
        if tok.kind is TokenKind.LPAREN:
            return self.parse_group()
        self.fail(("matrix expression",), tok)
        raise AssertionError

    def parse_group(self) -> Expr:
        """`"(" expr ")"`, at most MAX_NESTING groups deep."""
        tok = self.expect(TokenKind.LPAREN)
        if self.depth == MAX_NESTING:
            self.fail((f"at most {MAX_NESTING} nested parentheses",), tok)
        self.depth += 1
        inner = self.parse_expr()
        self.expect(TokenKind.RPAREN)
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
    """
    def map_expr(e: Expr, use: Loc) -> Expr:
        if isinstance(e, IdentityLit):
            return replace(e, order=f(e.order, use))
        if isinstance(e, (Mul, Add)):
            return replace(e, operands=tuple(map_expr(o, use) for o in e.operands))
        if isinstance(e, Transpose):
            return replace(e, operand=map_expr(e.operand, use))
        return e

    decls: list[Decl] = []
    for d in ast.decls:
        if isinstance(d, MatrixDecl):
            decls.append(replace(d, rows=f(d.rows, d.loc), cols=f(d.cols, d.loc)))
        else:
            decls.append(replace(d, order=f(d.order, d.loc)))
    stmts = tuple(replace(s, expr=map_expr(s.expr, s.loc)) for s in ast.stmts)
    return Ast(ast.consts, tuple(decls), stmts)


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
