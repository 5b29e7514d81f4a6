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

The lexer takes every lexeme, blanks and comments included, from one
`findall` and classifies it by dict lookups. A token is an exact
`(kind, text, line, col)` tuple of a `TokenKind` string, the text and two
ints, so the cyclic GC untracks it at its first collection (at `tokenize`'s
exit, for a long list); an instance of a tuple subclass would stay tracked.
The parser reads tokens by index into the list, with no method call per
token.

The AST keeps plain values where a token already holds them: a name operand
is the identifier's `str`, a location (`Loc`) the exact tuple `(line, col)`
of a token, and `Ast.consts` the constants' `(name, value)` pairs, so the
collector never tracks a name and untracks the tuples as it does tokens.
The other nodes are slotted records (`record.Record`); a statement or a
declaration keeps its first token's location in `loc`, which equality skips.
"""

from __future__ import annotations

import re
from typing import NoReturn

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
from .record import Record, pauses_collector


Loc = tuple[int, int]  # (line, col), 1-based
_NOWHERE: Loc = (0, 0)


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

# Keywords, punctuation and the newline by their text.
_FIXED = {k[1:-1]: k for k in _KINDS if k.startswith("'")} | {"\n": NEWLINE}
Token = tuple[str, str, int, int]  # (kind, text, line, col)


# Every lexeme in source order, blank runs and comments included: over a
# pattern without groups, `findall` returns them as plain strings, with no
# match object each. The classes are spelled out in ASCII (`\w` and `\d`
# would also accept letters and digits of other scripts). A character no
# lexeme starts with, a newline included, is a lexeme of its own.
_LEXEME = re.compile(r"[ \t\r]+|#[^\n]*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+)?|.",
                     re.DOTALL)
# A lexeme's kind by its text when `_FIXED` has it, else by its first
# character: None for a blank run or a comment, which make no token.
_FIRST = (dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz", IDENT)
          | dict.fromkeys("0123456789", INT) | dict.fromkeys(" \t\r#"))


@pauses_collector
def tokenize(text: str) -> list[Token]:
    """Lex a program into tokens carrying 1-based line/column positions."""
    tokens: list[Token] = []
    append = tokens.append
    line = col = 1
    for lexeme in _LEXEME.findall(text):
        kind = _FIXED.get(lexeme)
        if kind is None:
            kind = _FIRST.get(lexeme[0], EOF)
            if kind is None:
                col += len(lexeme)
                continue
            if kind is EOF:  # no lexeme starts with this character
                raise LexError(line, col, lexeme)
            if kind is INT and "." in lexeme:
                kind = FLOAT
        elif kind is NEWLINE:
            append((NEWLINE, lexeme, line, col))
            line, col = line + 1, 1
            continue
        append((kind, lexeme, line, col))
        col += len(lexeme)
    append((EOF, "", line, col))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


class Mul(Record):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple["Expr", ...]) -> None:
        self.operands = operands
        assert len(operands) >= 2
        assert Mul not in map(type, operands)


class Add(Record):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple["Expr", ...]) -> None:
        self.operands = operands
        assert len(operands) >= 2
        assert Add not in map(type, operands)


class Transpose(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: "Expr") -> None:
        self.operand = operand


class IdentityLit(Record):
    __slots__ = ("order",)

    def __init__(self, order: int) -> None:
        self.order = order


# A name operand is the identifier's text.
Expr = str | Mul | Add | Transpose | IdentityLit


class MatrixDecl(Record):
    __slots__ = ("name", "rows", "cols", "props", "elem", "fill", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, rows: int, cols: int, props: tuple[str, ...],
                 elem: ElemKind = ElemKind.F32, fill: float = 1.0,
                 loc: Loc = _NOWHERE) -> None:
        self.name = name
        self.rows = rows
        self.cols = cols
        self.props = props
        self.elem = elem
        self.fill = fill
        self.loc = loc


class IdentityDecl(Record):
    __slots__ = ("name", "order", "elem", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, order: int, elem: ElemKind = ElemKind.F32,
                 loc: Loc = _NOWHERE) -> None:
        self.name = name
        self.order = order
        self.elem = elem
        self.loc = loc


Decl = MatrixDecl | IdentityDecl


class Assign(Record):
    __slots__ = ("target", "expr", "loc")
    _uncompared = ("loc",)

    def __init__(self, target: str, expr: Expr, loc: Loc = _NOWHERE) -> None:
        self.target = target
        self.expr = expr
        self.loc = loc


class PrintStmt(Record):
    __slots__ = ("expr", "loc")
    _uncompared = ("loc",)

    def __init__(self, expr: Expr, loc: Loc = _NOWHERE) -> None:
        self.expr = expr
        self.loc = loc


Stmt = Assign | PrintStmt


class Ast(Record):
    """A checked program; every dimension is a resolved integer."""

    __slots__ = ("consts", "decls", "stmts", "idlits")
    _uncompared = ("idlits",)

    def __init__(self, consts: tuple[tuple[str, int], ...], decls: tuple[Decl, ...],
                 stmts: tuple[Stmt, ...], idlits: tuple[IdentityLit, ...] = ()) -> None:
        # The constants' `(name, value)` pairs in source order.
        self.consts = consts
        self.decls = decls
        self.stmts = stmts
        # The statements' `Identity(n)` literals in source order.
        self.idlits = idlits


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
    return cls(message, line=loc[0], col=loc[1])


class _Parser:
    """Recursive descent over `tokenize`'s list, which ends in EOF; kinds
    compare by identity. `pos` indexes the current token. The hot paths
    (statements, declarations, names and products) read `tokens[pos]`
    through locals and step past a token once its kind is checked, so no
    token costs a method call and `pos` never passes EOF; a method stores
    `pos` back before it calls another. Each statement is checked against
    the statements above it as it is read, and its dims are resolved and
    divided by `scale`, each valid dim's value kept in `dims` by its text;
    `use` is its first token's `(line, col)`. A name not yet assigned waits
    in `pending`, as its token's index, for the end of input, since an input
    may be declared below its use.
    """

    def __init__(self, tokens: list[Token], scale: int) -> None:
        self.tokens = tokens
        self.pos = self.depth = 0
        self.scale = scale
        self.use = _NOWHERE
        self.consts: dict[str, int] = {}
        self.decls: dict[str, Decl] = {}
        self.assigned: dict[str, Loc] = {}
        self.stmts: list[Stmt] = []
        self.pending: list[int] = []
        self.idlits: list[IdentityLit] = []
        self.dims: dict[str, int] = {}

    def read(self, *template: str | None) -> list:
        """Step past one token per kind in `template`, None standing for a
        dim, and return their texts and dim values; raise the first error
        in source order. EOF is no kind here, so the slice never runs out."""
        pos, dims = self.pos, self.dims
        self.pos = end = pos + len(template)
        values = []
        for kind, tok in zip(template, self.tokens[pos:end]):
            if kind is None:
                values.append(dims.get(tok[1]) or self.dim(tok))
            elif tok[0] is kind:
                values.append(tok[1])
            else:
                self.fail((kind,), tok)
        return values

    def fail(self, expected: tuple[str, ...], tok: Token) -> NoReturn:
        kind, text, line, col = tok
        raise ParseError(line, col, expected, kind if text == "" else repr(text))

    def parse_program(self) -> Ast:
        tokens, pos = self.tokens, 0
        while True:
            kind, _, line, col = tokens[pos]
            if kind is NEWLINE:
                pos += 1
                continue
            if kind is EOF:
                break
            statement = _STATEMENTS.get(kind)
            if statement is None:
                self.fail(("a statement",), tokens[pos])
            self.pos, self.use = pos + 1, (line, col)
            statement(self)
            # The statement ends at a newline or at the end of input.
            pos = self.pos
            if tokens[pos][0] is NEWLINE:
                pos += 1
            elif tokens[pos][0] is not EOF:
                self.fail(("newline",), tokens[pos])
        # A name assigned anywhere is an equation alias, usable only below
        # its assignment; a declared name never assigned is an input.
        for i in self.pending:
            _, name, line, col = tokens[i]
            if name in self.assigned:
                raise UseBeforeAssign(f"{name!r} used before its assignment",
                                      line=line, col=col)
            if name not in self.decls:
                raise UndeclaredIdentifier(f"{name!r} is not declared", line=line, col=col)
        return Ast(tuple(self.consts.items()), tuple(self.decls.values()),
                   tuple(self.stmts), tuple(self.idlits))

    def declare(self, d: Decl) -> None:
        if d.name in self.decls or d.name in self.consts:
            raise _error(DuplicateDeclaration, f"{d.name!r} declared twice", d.loc)
        if isinstance(d, MatrixDecl):
            try:
                canonicalize(d.props, d.rows, d.cols)
            except CompileError as e:
                raise e.at(*d.loc)
        elif d.name in self.assigned:
            raise _error(AssignToIdentity, f"cannot assign to identity {d.name!r}",
                         self.assigned[d.name])
        self.decls[d.name] = d

    def dim(self, tok: Token) -> int:
        """A dim not in `dims` yet: a literal or a constant bound above."""
        kind, text = tok[0], tok[1]
        if kind is INT:
            value = int(text)
        elif kind is IDENT and text in self.consts:
            value = self.consts[text]
        elif kind is IDENT:
            raise _error(UnboundConstant,
                         f"constant {text!r} is not bound here", self.use)
        else:
            self.fail(("dimension (integer or constant name)",), tok)
        if value <= 0:
            raise _error(NonPositiveDimension,
                         f"dimension must be positive, got {value}", self.use)
        self.dims[text] = value = max(1, value // self.scale)
        return value

    def parse_elem_suffix(self) -> ElemKind:
        tokens, pos = self.tokens, self.pos
        if tokens[pos][0] is not COLON:
            return ElemKind.F32
        tok = tokens[pos + 1]
        if tok[0] is not IDENT:
            self.fail((IDENT,), tok)
        self.pos = pos + 2
        for kind in ElemKind:
            if tok[1] == kind.value:
                return kind
        raise ParseError(tok[2], tok[3], ("'f32'", "'f64'"), repr(tok[1]))

    def parse_matrix_decl(self) -> None:
        tokens, dims, pos = self.tokens, self.dims, self.pos
        # The usual head, a name and dims seen before, passes one test;
        # `read` takes any other and raises its first error.
        if (tokens[pos][0] is IDENT and tokens[pos + 1][0] is LPAREN
                and (rows := dims.get(tokens[pos + 2][1]))
                and tokens[pos + 3][0] is COMMA
                and (cols := dims.get(tokens[pos + 4][1]))
                and tokens[pos + 5][0] is RPAREN and tokens[pos + 6][0] is LT):
            name, pos = tokens[pos][1], pos + 7
        else:
            name, _, rows, _, cols, _, _ = self.read(IDENT, LPAREN, None, COMMA,
                                                     None, RPAREN, LT)
            pos = self.pos
        props: list[str] = []
        if tokens[pos][0] is IDENT:
            props.append(tokens[pos][1])
            while tokens[pos + 1][0] is COMMA:
                pos += 2
                if tokens[pos][0] is not IDENT:
                    self.fail((IDENT,), tokens[pos])
                props.append(tokens[pos][1])
            pos += 1
        if tokens[pos][0] is not GT:
            self.fail((GT,), tokens[pos])
        self.pos = pos + 1
        elem, fill, pos = self.parse_elem_suffix(), 1.0, self.pos
        if tokens[pos][0] is EQUALS:
            tok = tokens[pos + 1]
            if tok[0] is not INT and tok[0] is not FLOAT:
                self.fail(("fill value (number)",), tok)
            fill, self.pos = float(tok[1]), pos + 2
        self.declare(MatrixDecl(name, rows, cols, tuple(props), elem, fill, self.use))

    def parse_identity_decl(self) -> None:
        name, _, order, _ = self.read(IDENT, LPAREN, None, RPAREN)
        self.declare(IdentityDecl(name, order, self.parse_elem_suffix(), self.use))

    def parse_print(self) -> None:
        self.stmts.append(PrintStmt(self.parse_group(0), self.use))

    def parse_const_or_assign(self) -> None:
        tokens, pos, use = self.tokens, self.pos, self.use
        name, tok = tokens[pos - 1][1], tokens[pos]
        if tok[0] is not EQUALS:
            self.fail((EQUALS,), tok)
        # `x = 5` alone on a line binds a constant; anything else is an
        # equation assignment (scalars are not matrix expressions). An INT
        # is not the final EOF, so the token after it exists.
        tok = tokens[pos + 1]
        if tok[0] is INT and tokens[pos + 2][0] in (NEWLINE, EOF):
            self.pos = pos + 2
            if name in self.consts:
                raise _error(DuplicateDeclaration, f"constant {name!r} bound twice",
                             use)
            # A clash with a statement above is reported there.
            if name in self.decls:
                raise _error(DuplicateDeclaration, f"{name!r} declared twice",
                             self.decls[name].loc)
            if name in self.assigned:
                raise _error(DuplicateDeclaration, f"{name!r} is already a constant",
                             self.assigned[name])
            self.consts[name] = int(tok[1])
            return
        self.pos = pos + 1
        stmt = Assign(name, self.parse_expr(), use)
        if name in self.assigned:
            raise _error(MultipleAssignment, f"{name!r} assigned more than once", use)
        if name in self.consts:
            raise _error(DuplicateDeclaration, f"{name!r} is already a constant", use)
        if isinstance(self.decls.get(name), IdentityDecl):
            raise _error(AssignToIdentity, f"cannot assign to identity {name!r}", use)
        self.assigned[name] = use
        self.stmts.append(stmt)

    def parse_expr(self) -> Expr:
        """`mulexpr ("+" mulexpr)*` as one flattened Add."""
        operands: list[Expr] = []
        while True:
            o = self.parse_mulexpr()
            if self.tokens[self.pos][0] is not PLUS and not operands:
                return o
            operands.extend(o.operands) if type(o) is Add else operands.append(o)
            if self.tokens[self.pos][0] is not PLUS:
                return Add(tuple(operands))
            self.pos += 1

    def parse_mulexpr(self) -> Expr:
        """`atom ("*" atom)*` as one flattened Mul of at most
        MAX_CHAIN_OPERANDS operands. A name, the commonest atom, is read
        here."""
        tokens, operands, pos = self.tokens, [], self.pos
        while True:
            tok = tokens[pos]
            if tok[0] is IDENT:
                o = tok[1]
                if o not in self.assigned:
                    self.pending.append(pos)
                pos += 1
            else:
                self.pos = pos
                o, pos = self.parse_atom(), self.pos
            if tokens[pos][0] is not STAR and not operands:
                self.pos = pos
                return o
            operands.extend(o.operands) if type(o) is Mul else operands.append(o)
            if len(operands) > MAX_CHAIN_OPERANDS:
                self.fail((f"at most {MAX_CHAIN_OPERANDS} operands in one product",),
                          tok)
            if tokens[pos][0] is not STAR:
                self.pos = pos
                return Mul(tuple(operands))
            pos += 1

    def parse_atom(self) -> Expr:
        """An atom other than a name."""
        tok = self.tokens[self.pos]
        if tok[0] is KW_TRANSPOSE:
            self.pos += 1
            return Transpose(self.parse_group())
        if tok[0] is KW_IDENTITY:
            self.pos += 1
            lit = IdentityLit(self.read(LPAREN, None, RPAREN)[1])
            self.idlits.append(lit)
            return lit
        if tok[0] is LPAREN:
            return self.parse_group()
        self.fail(("matrix expression",), tok)

    def parse_group(self, nesting: int = 1) -> Expr:
        """`"(" expr ")"`, at most MAX_NESTING groups deep; a print's
        parentheses (`nesting` 0) are not a group."""
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if tok[0] is not LPAREN:
            self.fail((LPAREN,), tok)
        if self.depth + nesting > MAX_NESTING:
            self.fail((f"at most {MAX_NESTING} nested parentheses",), tok)
        self.pos, self.depth = pos + 1, self.depth + nesting
        inner, pos = self.parse_expr(), self.pos
        if tokens[pos][0] is not RPAREN:
            self.fail((RPAREN,), tokens[pos])
        self.pos, self.depth = pos + 1, self.depth - nesting
        return inner


# Each statement's parser by the kind of its first token, which it starts after.
_STATEMENTS = {KW_MATRIX: _Parser.parse_matrix_decl, KW_PRINT: _Parser.parse_print,
               KW_IDENTITY: _Parser.parse_identity_decl,
               IDENT: _Parser.parse_const_or_assign}


@pauses_collector
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


def pretty_expr(e: Expr) -> str:
    if type(e) is str:
        return e
    if isinstance(e, Transpose):
        return f"transpose({pretty_expr(e.operand)})"
    if isinstance(e, IdentityLit):
        return f"Identity({e.order})"
    if isinstance(e, Mul):
        return " * ".join(f"({pretty_expr(o)})" if isinstance(o, Add)
                          else pretty_expr(o) for o in e.operands)
    return " + ".join(pretty_expr(o) for o in e.operands)


def pretty(ast: Ast) -> str:
    """Canonical source text: constants, then declarations, then statements."""
    lines = [f"{name} = {value}" for name, value in ast.consts]
    for d in ast.decls:
        if isinstance(d, MatrixDecl):
            line = f"Matrix {d.name}({d.rows}, {d.cols}) <{', '.join(d.props)}>"
        else:
            line = f"Identity {d.name}({d.order})"
        if d.elem is not ElemKind.F32:
            line += f" : {d.elem}"
        if isinstance(d, MatrixDecl) and d.fill != 1.0:
            line += f" = {int(d.fill) if float(d.fill).is_integer() else repr(d.fill)}"
        lines.append(line)
    lines += [f"{s.target} = {pretty_expr(s.expr)}" if isinstance(s, Assign)
              else f"print({pretty_expr(s.expr)})" for s in ast.stmts]
    return "\n".join(lines) + "\n"
