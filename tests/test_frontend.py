"""Lexer, parser (names checked and constants resolved as it reads), the
diagnostics it reports, and the pretty-print round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momc.errors import (
    AssignToIdentity,
    DuplicateDeclaration,
    LexError,
    MultipleAssignment,
    NonPositiveDimension,
    NonSquareStructuralProperty,
    ParseError,
    UnboundConstant,
    UndeclaredIdentifier,
    UnknownProperty,
    UseBeforeAssign,
)
from momc.frontend import (
    MAX_NESTING,
    Add,
    Assign,
    Ast,
    ConstBinding,
    IdentityDecl,
    IdentityLit,
    MatrixDecl,
    Mul,
    PrintStmt,
    Ref,
    TokenKind,
    Transpose,
    parse_source,
    pretty,
    tokenize,
)
from momc.properties import ElemKind

from util import run_text

LISTING = """\
n = 5
m = 5
Matrix A(n, m) <LowerTriangular>
Matrix B(n, m) <LowerTriangular>
Matrix C(n, m) <>
C = A * B
print(C)
"""


def kinds(text):
    return [(kind, text) for kind, text, _, _ in tokenize(text)
            if kind not in (TokenKind.NEWLINE, TokenKind.EOF)]


def test_tokenize_const_binding():
    assert kinds("n = 5") == [(TokenKind.IDENT, "n"), (TokenKind.EQUALS, "="),
                              (TokenKind.INT, "5")]


def test_tokenize_matrix_decl():
    assert kinds("Matrix A(n, m) <LowerTriangular>") == [
        (TokenKind.KW_MATRIX, "Matrix"), (TokenKind.IDENT, "A"),
        (TokenKind.LPAREN, "("), (TokenKind.IDENT, "n"),
        (TokenKind.COMMA, ","), (TokenKind.IDENT, "m"),
        (TokenKind.RPAREN, ")"), (TokenKind.LT, "<"),
        (TokenKind.IDENT, "LowerTriangular"), (TokenKind.GT, ">"),
    ]


def test_tokenize_rejects_foreign_characters():
    with pytest.raises(LexError) as exc:
        tokenize("C = A @ B")
    assert exc.value.line == 1 and exc.value.col == 7
    assert exc.value.char == "@"


def test_tokenize_tracks_lines_and_comments():
    toks = tokenize("# header\nn = 5  # five\n")
    meaningful = [line for kind, _, line, _ in toks
                  if kind not in (TokenKind.NEWLINE, TokenKind.EOF)]
    assert meaningful and all(line == 2 for line in meaningful)


@pytest.mark.parametrize("end", ["", "\n", "  # five\n"])
def test_const_binding_may_end_the_input(end):
    assert parse_source("n = 5" + end).consts == (ConstBinding("n", 5),)


def test_parse_listing_program():
    ast = parse_source(LISTING)
    assert ast.consts == (ConstBinding("n", 5), ConstBinding("m", 5))
    assert len(ast.decls) == 3
    a, b, c = ast.decls
    assert a.props == ("LowerTriangular",) and b.props == ("LowerTriangular",)
    assert c.props == ()
    assign, prn = ast.stmts
    assert assign == Assign("C", Mul((Ref("A"), Ref("B"))))
    assert prn == PrintStmt(Ref("C"))


def test_parse_collects_variadic_mul():
    ast = parse_source("""\
Matrix A(2, 2) <>
Matrix B(2, 2) <>
Matrix C(2, 2) <>
D = A * B * C
""")
    (assign,) = ast.stmts
    assert assign.expr == Mul((Ref("A"), Ref("B"), Ref("C")))


def test_parse_parens_flatten_too():
    ast = parse_source("""\
Matrix A(2, 2) <>
Matrix B(2, 2) <>
Matrix C(2, 2) <>
D = (A * B) * C
E = A + (B + C)
""")
    assert ast.stmts[0].expr == Mul((Ref("A"), Ref("B"), Ref("C")))
    assert ast.stmts[1].expr == Add((Ref("A"), Ref("B"), Ref("C")))


def test_parse_identity_reference():
    ast = parse_source("""\
n = 3
Matrix A(n, n) <>
Identity I(n)
E = A * I
""")
    assert isinstance(ast.decls[1], IdentityDecl)
    assert ast.stmts[0].expr == Mul((Ref("A"), Ref("I")))


def test_parse_precedence_mul_binds_tighter():
    ast = parse_source("""\
Matrix A(2, 2) <>
Matrix B(2, 2) <>
Matrix C(2, 2) <>
D = A + B * C
""")
    assert ast.stmts[0].expr == Add((Ref("A"), Mul((Ref("B"), Ref("C")))))


def test_parse_print_of_expression():
    ast = parse_source("""\
Matrix A(2, 2) <LowerTriangular>
print(transpose(A))
""")
    assert ast.stmts[0] == PrintStmt(Transpose(Ref("A")))


def test_parse_identity_literal_and_elem_and_fill():
    ast = parse_source("""\
Matrix A(2, 2) <> : f64 = 2.5
B = A * Identity(2)
""")
    d = ast.decls[0]
    assert d.elem is ElemKind.F64 and d.fill == 2.5
    assert ast.stmts[0].expr == Mul((Ref("A"), IdentityLit(2)))


def test_resolve_constants():
    ast = parse_source("n = 5\nMatrix A(n, n) <>\n")
    assert ast.decls[0].rows == 5 and ast.decls[0].cols == 5


def test_resolve_rejects_zero_dimension():
    with pytest.raises(NonPositiveDimension):
        parse_source("n = 0\nMatrix A(n, n) <>\n")
    with pytest.raises(NonPositiveDimension):
        parse_source("Matrix A(0, 2) <>\n")


def test_resolve_rejects_unbound_constant():
    with pytest.raises(UnboundConstant):
        parse_source("Matrix A(k, k) <>\n")


def test_resolve_requires_binding_before_use():
    with pytest.raises(UnboundConstant):
        parse_source("Matrix A(k, k) <>\nk = 4\n")


def test_resolve_identity_literal_order():
    ast = parse_source("n = 4\nMatrix A(n, n) <>\nB = A * Identity(n)\n")
    assert ast.stmts[0].expr.operands[1] == IdentityLit(4)


def test_scale_dimensions():
    text = ("a = 800\nb = 1100\nMatrix A(a, b) <>\nMatrix B(b, a) <>\n"
            "C = A * B * Identity(a)\n")
    scaled = parse_source(text, scale=4)
    assert (scaled.decls[0].rows, scaled.decls[0].cols) == (200, 275)
    assert scaled.stmts[0].expr.operands[2] == IdentityLit(200)
    tiny = parse_source(text, scale=10000)
    assert (tiny.decls[0].rows, tiny.decls[0].cols) == (1, 1)
    assert tiny.stmts[0].expr.operands[2] == IdentityLit(1)


def test_a_dim_reads_the_same_on_every_use():
    # The parser keeps a valid dim's scaled value by its text; a dim it has
    # not kept is checked again wherever it appears.
    text = ("k = 8\nMatrix A(k, 4) <>\nMatrix B(4, k) <>\nIdentity I(k)\n"
            "C = A * B * Identity(4)\n")
    for scale, (k, four) in ((1, (8, 4)), (4, (2, 1))):
        ast = parse_source(text, scale)
        assert [(d.rows, d.cols) for d in ast.decls[:2]] == [(k, four), (four, k)]
        assert (ast.decls[2].order, ast.idlits) == (k, (IdentityLit(four),))
    for text, err, line in (
            ("Matrix A(2, 2) <>\nMatrix B(2, 0) <>\n", NonPositiveDimension, 2),
            ("Matrix A(2, k) <>\n", UnboundConstant, 1),
            ("Matrix A(2, 2) <>\nMatrix B(2, k) <>\nk = 2\n", UnboundConstant, 2),
            ("k = 2\nMatrix A(k, 2.5) <>\n", ParseError, 2)):
        with pytest.raises(err) as exc:
            parse_source(text)
        assert exc.value.line == line


def test_print_parentheses_are_not_a_group():
    def printed(depth):
        return ("Matrix A(2, 2) <>\nprint(" + "(" * depth + "A" + ")" * depth
                + ")\n")
    ast = parse_source(printed(MAX_NESTING))
    assert ast.stmts == (PrintStmt(Ref("A")),)
    with pytest.raises(ParseError) as exc:
        parse_source(printed(MAX_NESTING + 1))
    assert (exc.value.line, exc.value.col) == (2, len("print(") + MAX_NESTING + 1)


# ---------------------------------------------------------------------------
# Diagnostics. Each statement is checked as it is read: a program with one
# error gets the text and location pinned below, and of several errors the
# first met in reading order wins (docs/grammar.md, "Diagnostics order").
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,err,message,line,col", [
    ("Matrix A(2, 2) <>\nB = A * X\n",
     UndeclaredIdentifier, "'X' is not declared", 2, 9),
    ("Matrix A(2, 2) <>\nMatrix A(3, 3) <>\n",
     DuplicateDeclaration, "'A' declared twice", 2, 1),
    ("n = 1\nn = 2\n", DuplicateDeclaration, "constant 'n' bound twice", 2, 1),
    ("n = 1\nMatrix n(2, 2) <>\n", DuplicateDeclaration, "'n' declared twice", 2, 1),
    ("Matrix A(2, 2) <Banded>\n", UnknownProperty, "unknown property 'Banded'", 1, 1),
    ("Matrix A(2, 2) <>\nB = A\nB = A\n",
     MultipleAssignment, "'B' assigned more than once", 3, 1),
    ("Matrix A(2, 2) <>\nprint(B)\nB = A\n",
     UseBeforeAssign, "'B' used before its assignment", 2, 7),
    ("Matrix A(2, 2) <>\nB = A * B\n",
     UseBeforeAssign, "'B' used before its assignment", 2, 9),
    ("Identity I(2)\nI = Identity(2)\n",
     AssignToIdentity, "cannot assign to identity 'I'", 2, 1),
    ("X = 5\nMatrix A(2, 2) <>\nX = A\n",
     DuplicateDeclaration, "'X' is already a constant", 3, 1),
    # A clash with a statement above is reported at that statement.
    ("Matrix n(2, 2) <>\nn = 5\n", DuplicateDeclaration, "'n' declared twice", 1, 1),
    ("Matrix A(2, 2) <>\nX = A\nX = 5\n",
     DuplicateDeclaration, "'X' is already a constant", 2, 1),
    ("Matrix A(2, 2) <>\nI = A\nIdentity I(2)\n",
     AssignToIdentity, "cannot assign to identity 'I'", 2, 1),
    # A bad dimension is reported at its statement's first character.
    ("Matrix A(2, 2) <>\nB = A * Identity(k)\n",
     UnboundConstant, "constant 'k' is not bound here", 2, 1),
    ("z = 0\nMatrix A(2, 2) <>\nprint(A * transpose(Identity(z)))\n",
     NonPositiveDimension, "dimension must be positive, got 0", 3, 1),
    ("Matrix A(k, k) <>\nk = 4\n",
     UnboundConstant, "constant 'k' is not bound here", 1, 1),
    ("k = 4\nMatrix A(k, j) <>\nj = 4\n",
     UnboundConstant, "constant 'j' is not bound here", 2, 1),
    ("Matrix A(2, 2) <>\nB = A *\n",
     ParseError, "expected matrix expression, found '\\n'", 2, 8),
    ("print()\n", ParseError, "expected matrix expression, found ')'", 1, 7),
    ("Matrix A(2, 2) <> : f16\n",
     ParseError, "expected 'f32' or 'f64', found 'f16'", 1, 21),
    ("Matrix A(2, 2) <> = \nprint(A)\n",
     ParseError, "expected fill value (number), found '\\n'", 1, 21),
    ("Matrix A(2, 2) <>\nMatrix C(2, 3) <LowerTriangular>\nC = A\n",
     NonSquareStructuralProperty,
     "property lowerTri requires a square matrix, got 2x3", 2, 1),
])
def test_parse_errors(text, err, message, line, col):
    with pytest.raises(err) as exc:
        parse_source(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


@pytest.mark.parametrize("text,err,line,col", [
    # The first error met reading statements in order wins over a parse
    # error further down.
    ("Matrix A(2, 2) <Banded>\nB = A *\n", UnknownProperty, 1, 1),
    # Lexing runs first, so a lex error anywhere wins.
    ("Matrix A(2, 2) <Banded>\nB = A @ A\n", LexError, 2, 7),
    # Names used before any assignment are checked at the end of input,
    # after every other check.
    ("print(B)\nB = A\nMatrix A(2, 2) <>\nMatrix C(k, 2) <>\n", UnboundConstant, 4, 1),
    ("print(B)\nB = A\nMatrix A(2, 2) <>\nMatrix C(2, 2) <Banded>\n",
     UnknownProperty, 4, 1),
    ("print(B)\nB = A\nMatrix A(2, 2) <>\nMatrix C(2, 2) <>\n", UseBeforeAssign, 1, 7),
])
def test_diagnostics_order(text, err, line, col):
    with pytest.raises(err) as exc:
        parse_source(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_input_may_be_used_above_its_declaration():
    report = run_text("print(A)\nMatrix A(2, 2) <> = 3\n")
    assert report.printed == ("2x2 f32\n3 3\n3 3",)


# ---------------------------------------------------------------------------
# Round trip: a generated Ast names constants `c1` and `c2` in dimensions, as
# source text does; parsing its pretty-printed text gives it back with their
# values in place, and re-parsing a parsed Ast's text is the identity.
# ---------------------------------------------------------------------------

_dim = st.one_of(st.integers(1, 9), st.sampled_from(["c1", "c2"]))
_props = st.lists(
    st.sampled_from(["LowerTriangular", "UpperTriangular", "Diagonal",
                     "Symmetric"]),
    max_size=2, unique=True).map(tuple)


@st.composite
def _asts(draw):
    consts = (ConstBinding("c1", draw(st.integers(1, 9))),
              ConstBinding("c2", draw(st.integers(1, 9))))
    decls = []
    matrix_names = []
    for i in range(draw(st.integers(1, 4))):
        name = f"m{i}"
        # The parser rejects a structured declaration that is not square.
        rows, props = draw(_dim), draw(_props)
        cols = rows if props else draw(_dim)
        decls.append(MatrixDecl(name, rows, cols, props,
                                draw(st.sampled_from(list(ElemKind))),
                                draw(st.sampled_from([1.0, 2.0, 2.5]))))
        matrix_names.append(name)
    for i in range(draw(st.integers(0, 2))):
        name = f"i{i}"
        decls.append(IdentityDecl(name, draw(_dim),
                                  draw(st.sampled_from(list(ElemKind)))))
        matrix_names.append(name)

    leaf = st.one_of(
        st.sampled_from(matrix_names).map(Ref),
        _dim.map(IdentityLit),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: _flat(Mul, cs)),
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: _flat(Add, cs)),
            children.map(Transpose),
        )

    expr = st.recursive(leaf, extend, max_leaves=8)
    stmts = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            stmts.append(Assign(f"t{i}", draw(expr)))
        else:
            stmts.append(PrintStmt(draw(expr)))
    return Ast(consts, tuple(decls), tuple(stmts))


def _flat(kind, children):
    ops = []
    for c in children:
        ops.extend(c.operands) if isinstance(c, kind) else ops.append(c)
    return kind(tuple(ops)) if len(ops) >= 2 else ops[0]


def _resolved(ast, scale):
    """`ast` as `parse` returns it: constants replaced by their values, and
    every dimension divided by `scale`, clamped to at least 1."""
    value = {c.name: c.value for c in ast.consts}

    def dim(d):
        return max(1, value.get(d, d) // scale)

    def expr(e):
        if isinstance(e, IdentityLit):
            return IdentityLit(dim(e.order))
        if isinstance(e, Transpose):
            return Transpose(expr(e.operand))
        if isinstance(e, (Mul, Add)):
            return type(e)(tuple(expr(o) for o in e.operands))
        return e

    decls = tuple(MatrixDecl(d.name, dim(d.rows), dim(d.cols), d.props, d.elem, d.fill, d.loc)
                  if isinstance(d, MatrixDecl) else IdentityDecl(d.name, dim(d.order), d.elem, d.loc)
                  for d in ast.decls)
    stmts = tuple(Assign(s.target, expr(s.expr), s.loc) if isinstance(s, Assign)
                  else PrintStmt(expr(s.expr), s.loc) for s in ast.stmts)
    return Ast(ast.consts, decls, stmts)


def _idlits(e):
    """The identity literals of an expression in pre-order."""
    if isinstance(e, IdentityLit):
        yield e
    elif isinstance(e, Transpose):
        yield from _idlits(e.operand)
    elif isinstance(e, (Mul, Add)):
        for o in e.operands:
            yield from _idlits(o)


@given(_asts(), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_pretty_parse_round_trip(ast, scale):
    parsed = parse_source(pretty(ast), scale)
    assert parsed == _resolved(ast, scale)
    # The very nodes of the tree, which `build_ir` looks up by identity.
    assert [id(lit) for lit in parsed.idlits] == [
        id(lit) for s in parsed.stmts for lit in _idlits(s.expr)]
    assert parse_source(pretty(parsed)) == parsed


def _no_nested_variadics(e):
    if isinstance(e, Mul):
        assert not any(isinstance(o, Mul) for o in e.operands)
        return all(_no_nested_variadics(o) for o in e.operands)
    if isinstance(e, Add):
        assert not any(isinstance(o, Add) for o in e.operands)
        return all(_no_nested_variadics(o) for o in e.operands)
    if isinstance(e, Transpose):
        return _no_nested_variadics(e.operand)
    return True


@given(_asts())
@settings(max_examples=60, deadline=None)
def test_variadic_normalization_is_total(ast):
    reparsed = parse_source(pretty(ast))
    for s in reparsed.stmts:
        assert _no_nested_variadics(s.expr)
