"""Frontend for the matrix DSL: a lexer and a recursive-descent parser.

`parse_source(text)` returns the checked Ast in one pass over the tokens:
names are checked and dimensions resolved as each statement is read.

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

A token is an exact `(kind, text, line, col)` tuple of a `TokenKind` string,
the text and two ints, so the cyclic GC untracks it at its first collection
and a long token list does not slow later ones (a NamedTuple would stay
tracked). AST nodes are slotted dataclasses, faster to build than frozen ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, NoReturn, Union

from .errors import (
    AssignToIdentity,
    CompileError,
    DuplicateDeclaration,
    LexError,
    MultipleAssignment,
    NonPositiveDimension,
    ParseError,
    UnboundConstant,
    UndeclaredIdentifier,
    UseBeforeAssign,
)
from .properties import ElemKind, canonicalize


class Loc(NamedTuple):
    line: int
    col: int


_NOWHERE = Loc(0, 0)


class TokenKind:
    """Token kinds, each the `str` a diagnostic names the kind by."""

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


_KINDS = [v for k, v in vars(TokenKind).items() if k.isupper()]
# The kinds as module names, in definition order: a global read is cheaper
# than a class attribute read, and the parser tests a kind on every token.
(IDENT, INT, FLOAT, KW_MATRIX, KW_IDENTITY, KW_PRINT, KW_TRANSPOSE, EQUALS,
 LPAREN, RPAREN, LT, GT, COMMA, STAR, PLUS, COLON, NEWLINE, EOF) = _KINDS

# Keywords and punctuation by their text, which their kind quotes.
_FIXED = {k[1:-1]: k for k in _KINDS if k.startswith("'")}
Token = tuple[str, str, int, int]  # (kind, text, line, col)


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
        tokens.append((_FIXED.get(lexeme, _GROUP_KIND[group]), lexeme, line, col))
        if group == 6:
            line, line_start = line + 1, m.end()
    tokens.append((EOF, "", line, len(text) - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Ref:
    name: str
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(slots=True)
class Mul:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2
        assert not any(isinstance(o, Mul) for o in self.operands)


@dataclass(slots=True)
class Add:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        assert len(self.operands) >= 2
        assert not any(isinstance(o, Add) for o in self.operands)


@dataclass(slots=True)
class Transpose:
    operand: "Expr"


@dataclass(slots=True)
class IdentityLit:
    order: int


Expr = Union[Ref, Mul, Add, Transpose, IdentityLit]


@dataclass(slots=True)
class ConstBinding:
    name: str
    value: int
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(slots=True)
class MatrixDecl:
    name: str
    rows: int
    cols: int
    props: tuple[str, ...]
    elem: ElemKind = ElemKind.F32
    fill: float = 1.0
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(slots=True)
class IdentityDecl:
    name: str
    order: int
    elem: ElemKind = ElemKind.F32
    loc: Loc = field(default=_NOWHERE, compare=False)


Decl = Union[MatrixDecl, IdentityDecl]


@dataclass(slots=True)
class Assign:
    target: str
    expr: Expr
    loc: Loc = field(default=_NOWHERE, compare=False)


@dataclass(slots=True)
class PrintStmt:
    expr: Expr
    loc: Loc = field(default=_NOWHERE, compare=False)


Stmt = Union[Assign, PrintStmt]


@dataclass(slots=True)
class Ast:
    """A checked program; every dimension is a resolved integer."""

    consts: tuple[ConstBinding, ...]
    decls: tuple[Decl, ...]
    stmts: tuple[Stmt, ...]
    # The statements' `Identity(n)` literals in source order.
    idlits: tuple[IdentityLit, ...] = field(default=(), compare=False)


def flatten(cls: type[Mul] | type[Add], operands: Iterable[Expr]) -> Expr:
    """Build a `cls` node, splicing in operands that are `cls` nodes too;
    a single operand is returned as it is."""
    ops: list[Expr] = []
    for o in operands:
        ops.extend(o.operands) if isinstance(o, cls) else ops.append(o)
    return ops[0] if len(ops) == 1 else cls(tuple(ops))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


# Deepest nesting of parenthesized groups (`(...)`, `transpose(...)`) the
# parser accepts. The parser and the later expression walks recurse once or a
# few times per level, so this keeps them well inside Python's recursion limit.
MAX_NESTING = 100

# Most operands in one flattened product. The chain DP takes O(k^3) time and
# O(k^2) memory in the operand count k, so this bounds one product's compile.
MAX_CHAIN_OPERANDS = 256


def _error(cls: type[CompileError], message: str, loc: Loc) -> CompileError:
    return cls(message, line=loc.line, col=loc.col)


class _Parser:
    """Recursive descent over `tokenize`'s list (kinds compare by identity),
    which ends in EOF; `tok` is the current token, and `advance` never
    moves past EOF. Each statement is checked against the statements above
    it as it is read, and its dims are resolved and divided by `scale`;
    `use` is its location. A name not yet assigned waits in `pending` for
    the end of input, since an input may be declared below its use.
    """

    def __init__(self, tokens: list[Token], scale: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]
        self.depth = 0
        self.scale = scale
        self.use = _NOWHERE
        self.consts: dict[str, ConstBinding] = {}
        self.decls: dict[str, Decl] = {}
        self.assigned: dict[str, Loc] = {}
        self.pending: list[Ref] = []
        self.idlits: list[IdentityLit] = []

    def advance(self) -> Token:
        tok = self.tok
        if tok[0] is not EOF:
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def expect(self, kind: str) -> Token:
        if self.tok[0] is not kind:
            self.fail((kind,), self.tok)
        return self.advance()

    def fail(self, expected: tuple[str, ...], tok: Token) -> NoReturn:
        kind, text, line, col = tok
        raise ParseError(line, col, expected, kind if text == "" else repr(text))

    def parse_program(self) -> Ast:
        stmts: list[Stmt] = []
        while True:
            while self.tok[0] is NEWLINE:
                self.advance()
            tok = self.tok
            if tok[0] is EOF:
                break
            self.use = Loc(tok[2], tok[3])
            if tok[0] is KW_MATRIX:
                self.declare(self.parse_matrix_decl())
            elif tok[0] is KW_IDENTITY:
                self.declare(self.parse_identity_decl())
            elif tok[0] is KW_PRINT:
                stmts.append(self.parse_print())
            elif tok[0] is IDENT:
                stmt = self.parse_const_or_assign()
                if isinstance(stmt, ConstBinding):
                    self.bind(stmt)
                else:
                    self.assign(stmt)
                    stmts.append(stmt)
            else:
                self.fail(("a statement",), tok)
            # The statement ends at a newline or at the end of input.
            if self.tok[0] is NEWLINE:
                self.advance()
            elif self.tok[0] is not EOF:
                self.fail(("newline",), self.tok)
        # A name assigned anywhere is an equation alias, usable only below
        # its assignment; a declared name never assigned is an input.
        for ref in self.pending:
            if ref.name in self.assigned:
                raise _error(UseBeforeAssign,
                             f"{ref.name!r} used before its assignment", ref.loc)
            if ref.name not in self.decls:
                raise _error(UndeclaredIdentifier, f"{ref.name!r} is not declared",
                             ref.loc)
        return Ast(tuple(self.consts.values()), tuple(self.decls.values()),
                   tuple(stmts), tuple(self.idlits))

    def bind(self, c: ConstBinding) -> None:
        if c.name in self.consts:
            raise _error(DuplicateDeclaration, f"constant {c.name!r} bound twice",
                         c.loc)
        # A clash with a statement above is reported there.
        if c.name in self.decls:
            raise _error(DuplicateDeclaration, f"{c.name!r} declared twice",
                         self.decls[c.name].loc)
        if c.name in self.assigned:
            raise _error(DuplicateDeclaration, f"{c.name!r} is already a constant",
                         self.assigned[c.name])
        self.consts[c.name] = c

    def declare(self, d: Decl) -> None:
        if d.name in self.decls or d.name in self.consts:
            raise _error(DuplicateDeclaration, f"{d.name!r} declared twice", d.loc)
        if isinstance(d, MatrixDecl):
            try:
                canonicalize(d.props, d.rows, d.cols)
            except CompileError as e:
                raise e.at(d.loc.line, d.loc.col)
        elif d.name in self.assigned:
            raise _error(AssignToIdentity, f"cannot assign to identity {d.name!r}",
                         self.assigned[d.name])
        self.decls[d.name] = d

    def assign(self, s: Assign) -> None:
        if s.target in self.assigned:
            raise _error(MultipleAssignment,
                         f"{s.target!r} assigned more than once", s.loc)
        if s.target in self.consts:
            raise _error(DuplicateDeclaration,
                         f"{s.target!r} is already a constant", s.loc)
        if isinstance(self.decls.get(s.target), IdentityDecl):
            raise _error(AssignToIdentity,
                         f"cannot assign to identity {s.target!r}", s.loc)
        self.assigned[s.target] = s.loc

    def parse_dim(self) -> int:
        """A literal or a constant bound above, divided by `scale`."""
        tok = self.advance()
        if tok[0] is INT:
            value = int(tok[1])
        elif tok[0] is IDENT and tok[1] in self.consts:
            value = self.consts[tok[1]].value
        elif tok[0] is IDENT:
            raise _error(UnboundConstant,
                         f"constant {tok[1]!r} is not bound here", self.use)
        else:
            self.fail(("dimension (integer or constant name)",), tok)
        if value <= 0:
            raise _error(NonPositiveDimension,
                         f"dimension must be positive, got {value}", self.use)
        return max(1, value // self.scale)

    def parse_elem_suffix(self) -> ElemKind:
        if self.tok[0] is not COLON:
            return ElemKind.F32
        self.advance()
        tok = self.expect(IDENT)
        for kind in ElemKind:
            if tok[1] == kind.value:
                return kind
        raise ParseError(tok[2], tok[3], ("'f32'", "'f64'"), repr(tok[1]))

    def parse_matrix_decl(self) -> MatrixDecl:
        self.advance()
        name = self.expect(IDENT)[1]
        self.expect(LPAREN)
        rows = self.parse_dim()
        self.expect(COMMA)
        cols = self.parse_dim()
        self.expect(RPAREN)
        self.expect(LT)
        props: list[str] = []
        if self.tok[0] is IDENT:
            props.append(self.advance()[1])
            while self.tok[0] is COMMA:
                self.advance()
                props.append(self.expect(IDENT)[1])
        self.expect(GT)
        elem = self.parse_elem_suffix()
        fill = 1.0
        if self.tok[0] is EQUALS:
            self.advance()
            tok = self.tok
            if tok[0] is not INT and tok[0] is not FLOAT:
                self.fail(("fill value (number)",), tok)
            self.advance()
            fill = float(tok[1])
        return MatrixDecl(name, rows, cols, tuple(props), elem, fill, self.use)

    def parse_identity_decl(self) -> IdentityDecl:
        self.advance()
        name = self.expect(IDENT)[1]
        self.expect(LPAREN)
        order = self.parse_dim()
        self.expect(RPAREN)
        elem = self.parse_elem_suffix()
        return IdentityDecl(name, order, elem, self.use)

    def parse_print(self) -> PrintStmt:
        self.advance()
        self.expect(LPAREN)
        expr = self.parse_expr()
        self.expect(RPAREN)
        return PrintStmt(expr, self.use)

    def parse_const_or_assign(self) -> ConstBinding | Assign:
        name = self.advance()[1]
        self.expect(EQUALS)
        # `x = 5` alone on a line binds a constant; anything else is an
        # equation assignment (scalars are not matrix expressions). An INT
        # is not the final EOF, so the token after it exists.
        if self.tok[0] is INT and self.tokens[self.pos + 1][0] in (
                NEWLINE, EOF):
            return ConstBinding(name, int(self.advance()[1]), self.use)
        return Assign(name, self.parse_expr(), self.use)

    def parse_expr(self) -> Expr:
        first = self.parse_mulexpr()
        if self.tok[0] is not PLUS:
            return first
        operands = [first]
        while self.tok[0] is PLUS:
            self.advance()
            operands.append(self.parse_mulexpr())
        return flatten(Add, operands)

    def parse_mulexpr(self) -> Expr:
        """`atom ("*" atom)*` as one flattened Mul of at most
        MAX_CHAIN_OPERANDS operands."""
        first = self.parse_atom()
        if self.tok[0] is not STAR:
            return first
        operands = list(first.operands) if isinstance(first, Mul) else [first]
        while self.tok[0] is STAR:
            self.advance()
            tok = self.tok
            o = self.parse_atom()
            operands.extend(o.operands) if isinstance(o, Mul) else operands.append(o)
            if len(operands) > MAX_CHAIN_OPERANDS:
                self.fail((f"at most {MAX_CHAIN_OPERANDS} operands in one product",),
                          tok)
        return Mul(tuple(operands))

    def parse_atom(self) -> Expr:
        tok = self.tok
        if tok[0] is IDENT:
            self.advance()
            ref = Ref(tok[1], Loc(tok[2], tok[3]))
            if tok[1] not in self.assigned:
                self.pending.append(ref)
            return ref
        if tok[0] is KW_TRANSPOSE:
            self.advance()
            return Transpose(self.parse_group())
        if tok[0] is KW_IDENTITY:
            self.advance()
            self.expect(LPAREN)
            lit = IdentityLit(self.parse_dim())
            self.expect(RPAREN)
            self.idlits.append(lit)
            return lit
        if tok[0] is LPAREN:
            return self.parse_group()
        self.fail(("matrix expression",), tok)

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


def parse(tokens: list[Token], scale: int = 1) -> Ast:
    """Parse a token stream into a checked Ast whose dimensions are
    resolved and divided by `scale` (clamped to at least 1)."""
    return _Parser(tokens, scale).parse_program()


def parse_source(text: str, scale: int = 1) -> Ast:
    return parse(tokenize(text), scale)


def resolve_constants(ast: Ast) -> Ast:
    """Return `ast` as it is: `parse` resolves every dimension. Kept for
    callers written when resolving constants was a pass of its own."""
    return ast


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
