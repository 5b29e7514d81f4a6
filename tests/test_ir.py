"""IR construction, verification, and the textual printer."""

import itertools
import os
import random

import pytest

from momc import ir, loops
from momc.cli import main
from momc.equation_opt import optimize_and_rematerialize
from momc.errors import ResolutionError
from momc.frontend import parse_source
from momc.properties import ElemKind, EMPTY_PROPS, Property, PropertySet

from gen import default_seed, random_program
from util import compile_text, op_operands, op_result

LOWER = PropertySet.closure((Property.LOWER_TRIANGULAR,))
DIAG = PropertySet.closure((Property.DIAGONAL,))

LISTING = """\
n = 5
m = 5
Matrix A(n, m) <LowerTriangular>
Matrix B(n, m) <LowerTriangular>
Matrix C(n, m) <>
C = A * B
print(C)
"""

LISTING_IR = """\
%0 = init : matrix<5x5xf32,[lowerTri]>
fill %0, 1 : f32
%1 = init : matrix<5x5xf32,[lowerTri]>
fill %1, 1 : f32
%2 = equation {
  %3 = mul %0, %1 : term
  yield %3
} : term
print %2 : term
"""


def build(text):
    return ir.build_ir(parse_source(text))


def test_build_listing_structure():
    m = build(LISTING)
    kinds = [type(op) for op in m.ops]
    assert kinds == [ir.Init, ir.Fill, ir.Init, ir.Fill, ir.Equation, ir.Print]
    lower5 = ir.MatrixType(5, 5, ElemKind.F32, LOWER)
    assert m.types[0] == lower5 and m.types[1] == lower5
    eq = m.ops[4]
    assert [type(op) for op in eq.region] == [ir.Mul]
    assert eq.region[0].operands == (0, 1)
    assert eq.yielded == eq.region[0].result
    assert isinstance(m.types[eq.result], ir.TermType)
    assert m.ops[5].operand == eq.result


def test_build_bare_copy_is_yield_only_equation():
    m = build("Matrix A(2, 2) <>\nC = A\nprint(C)\n")
    eq = m.ops[2]
    assert isinstance(eq, ir.Equation)
    assert eq.region == ()
    assert eq.yielded == 0


def test_build_three_way_mul_is_one_variadic_op():
    m = build("Matrix A(2, 2) <>\nMatrix B(2, 2) <>\nMatrix C(2, 2) <>\n"
              "D = A * B * C\n")
    eq = next(op for op in m.ops if isinstance(op, ir.Equation))
    assert len(eq.region[0].operands) == 3


def test_build_fill_override_and_identity_decl():
    m = build("n = 3\nMatrix A(n, n) <> = 2.5\nIdentity I(n)\nB = A * I\n")
    fills = [op for op in m.ops if isinstance(op, ir.Fill)]
    assert fills[0].value == 2.5
    assert m.types[1] == ir.MatrixType(3, 3, ElemKind.F32, DIAG, identity=True)
    assert fills[1].value == 1.0


def test_identity_literals_hoist_in_source_order():
    m = build("Matrix A(2, 3) <>\n"
              "B = Identity(2) * A * transpose(Identity(3) * Identity(3))\n"
              "print(Identity(4))\n")
    assert ir.print_ir(m) == """\
%0 = init : matrix<2x3xf32,[]>
fill %0, 1 : f32
%1 = init : identity<2xf32>
fill %1, 1 : f32
%2 = init : identity<3xf32>
fill %2, 1 : f32
%3 = init : identity<3xf32>
fill %3, 1 : f32
%4 = init : identity<4xf32>
fill %4, 1 : f32
%5 = equation {
  %7 = mul %2, %3 : term
  %6 = transpose %7 : term
  %8 = mul %1, %0, %6 : term
  yield %8
} : term
print %4 : identity<4xf32>
"""


def test_verify_accepts_built_modules():
    assert ir.verify(build(LISTING)) == []


def test_verify_reports_dim_mismatch():
    t5 = ir.MatrixType(5, 5, ElemKind.F32, EMPTY_PROPS)
    t4 = ir.MatrixType(4, 4, ElemKind.F32, EMPTY_PROPS)
    # Inside a region the verifier checks structure and resolution the types.
    m = ir.IRModule(
        ops=(ir.Init(0), ir.Init(1),
             ir.Equation(3, (ir.Mul(2, (0, 1)),), 2)),
        types={0: t5, 1: t4, 2: ir.TERM, 3: ir.TERM})
    assert ir.verify(m) == []
    with pytest.raises(ResolutionError) as exc:
        optimize_and_rematerialize(m)
    assert exc.value.message == "inner dims disagree, 5 vs 4"
    # At the top level the verifier checks them.
    top = ir.IRModule(ops=(ir.Init(0), ir.Init(1), ir.Mul(2, (0, 1))),
                      types={0: t5, 1: t4, 2: t5})
    assert [e.message for e in ir.verify(top)] == [
        "op 2: inner dims disagree, 5 vs 4"]


def test_verify_reports_use_before_definition():
    t = ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)
    m = ir.IRModule(ops=(ir.Print(7),), types={7: t})
    assert any("before definition" in d.message for d in ir.verify(m))


def test_verify_reports_fill_of_a_non_init():
    t = ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)
    m = ir.IRModule(
        ops=(ir.Init(0), ir.Equation(2, (ir.Transpose(1, 0),), 1),
             ir.Fill(1.0, 2)),
        types={0: t, 1: ir.TERM, 2: ir.TERM})
    assert any("must be an init result" in d.message for d in ir.verify(m))


def test_verify_reports_add_dim_mismatch():
    t2 = ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)
    t3 = ir.MatrixType(3, 3, ElemKind.F32, EMPTY_PROPS)
    m = ir.IRModule(
        ops=(ir.Init(0), ir.Init(1),
             ir.Equation(3, (ir.Add(2, (0, 1)),), 2)),
        types={0: t2, 1: t3, 2: ir.TERM, 3: ir.TERM})
    assert ir.verify(m) == []
    with pytest.raises(ResolutionError) as exc:
        optimize_and_rematerialize(m)
    assert exc.value.message == "addition operands must share dims"
    top = ir.IRModule(ops=(ir.Init(0), ir.Init(1), ir.Add(2, (0, 1))),
                      types={0: t2, 1: t3, 2: t2})
    assert [e.message for e in ir.verify(top)] == [
        "op 2: addition operands must share dims"]


T2 = ir.MatrixType(2, 2, ElemKind.F32, EMPTY_PROPS)
T2_F64 = ir.MatrixType(2, 2, ElemKind.F64, EMPTY_PROPS)
T3 = ir.MatrixType(3, 3, ElemKind.F32, EMPTY_PROPS)
T23 = ir.MatrixType(2, 3, ElemKind.F32, EMPTY_PROPS)
TERM = ir.TERM


@pytest.mark.parametrize("ops,types,errors", [
    ((ir.Init(5),), {}, ["op 0: value %5 missing from the symbol table"]),
    ((ir.Init(0), ir.Print(7)), {0: T2},
     ["op 1: value %7 missing from the symbol table",
      "op 1: operand %7 used before definition"]),
    ((ir.Print(7),), {7: T2}, ["op 0: operand %7 used before definition"]),
    ((ir.Init(0), ir.Init(0)), {0: T2}, ["op 1: value %0 defined more than once"]),
    ((ir.Init(0), ir.Transpose(1, 0)), {0: T2, 1: TERM},
     ["op 1: top-level compute op must have concrete types"]),
    ((ir.Init(0), ir.Mul(1, (0, 0, 0))), {0: T2, 1: T2},
     ["op 1: top-level mul/add must be binary"]),
    ((ir.Init(0), ir.Init(1), ir.Add(2, (0, 1))), {0: T2, 1: T2_F64, 2: T2},
     ["op 2: operands mix f32 and f64"]),
    ((ir.Init(0), ir.Init(1), ir.Add(2, (0, 1))), {0: T2, 1: T3, 2: T2},
     ["op 2: addition operands must share dims"]),
    ((ir.Init(0), ir.Mul(1, (0, 0))), {0: T23, 1: T23},
     ["op 1: inner dims disagree, 3 vs 2"]),
    ((ir.Init(0), ir.Transpose(1, 0)), {0: T23, 1: T23},
     ["op 1: transpose result dims must be swapped operand dims"]),
    ((ir.Init(0), ir.Init(1), ir.Add(2, (0, 1)), ir.Fill(1.0, 2)),
     {0: T2, 1: T2, 2: T2}, ["op 3: fill operand must be an init result"]),
    ((ir.Init(0), ir.Equation(1, (), 0)), {0: T2, 1: T2},
     ["op 1: equation result must be a term"]),
    ((ir.Init(0), ir.Equation(1, (), 2), ir.Init(2)), {0: T2, 1: TERM, 2: T2},
     ["op 1: operand %2 used before definition"]),
    ((ir.Init(0), ir.Equation(1, (ir.Print(0),), 0)), {0: T2, 1: TERM},
     ["op 1.0: print is not allowed inside an equation region"]),
    ((ir.Init(0), ir.Equation(2, (ir.Transpose(1, 0),), 1)),
     {0: T2, 1: T2, 2: TERM},
     ["op 1.0: compute op inside an equation must produce a term"]),
    ((ir.Init(0), ir.Equation(2, (ir.Add(1, (0,)),), 1)),
     {0: T2, 1: TERM, 2: TERM}, ["op 1.0: mul/add needs at least 2 operands"]),
])
def test_every_verifier_diagnostic(ops, types, errors):
    # Each names its op, since no equation here has a source location.
    found = ir.verify(ir.IRModule(ops, types))
    assert [str(e) for e in found] == [f"error: {e}" for e in errors]


def test_verifier_locates_equation_problems_at_their_statement():
    eq = ir.Equation(2, (ir.Add(1, (0,)),), 1, loc=(3, 1))
    errors = ir.verify(ir.IRModule((ir.Init(0), eq), {0: T2, 1: TERM, 2: TERM}))
    assert [str(e) for e in errors] == [
        "3:1: error: mul/add needs at least 2 operands"]


def test_type_rendering():
    assert str(ir.MatrixType(5, 5, ElemKind.F32, LOWER)) == \
        "matrix<5x5xf32,[lowerTri]>"
    assert str(ir.MatrixType(5, 5, ElemKind.F32, DIAG)) == \
        "matrix<5x5xf32,[diag]>"
    assert str(ir.MatrixType(5, 5, ElemKind.F32, EMPTY_PROPS)) == \
        "matrix<5x5xf32,[]>"
    assert str(ir.MatrixType(5, 5, ElemKind.F64, DIAG, identity=True)) == \
        "identity<5xf64>"
    assert str(ir.TERM) == "term"


def test_matrix_type_rejects_structured_rectangles():
    with pytest.raises(ValueError):
        ir.MatrixType(4, 5, ElemKind.F32, LOWER)
    for _ in range(2):  # an invalid type is never interned
        with pytest.raises(ValueError, match="must be square"):
            ir.matrix_type(4, 5, ElemKind.F32, LOWER)


def test_matrix_types_are_frozen_and_shared_within_a_module():
    m = build("Matrix A(3, 4) <>\nMatrix B(3, 4) <>\nIdentity I(3)\n"
              "print(A + B)\nprint(I * Identity(3) * A)\n")
    assert m.types[0] == m.types[1] and m.types[0] is m.types[1]
    # The declared identity and the inline literal, both asked for with
    # `identity=True` by keyword.
    assert m.names[2] == "I" and 3 not in m.names
    assert m.types[2].identity and m.types[2] is m.types[3]
    with pytest.raises(AttributeError):
        m.types[0].rows = 5


_FILLER_ROWS = itertools.count(1)


def _intern_other_types():
    """Intern 4,096 new Nx1000007 types, which no program asks for, so that
    every type cached before is evicted; check the cache's size after every
    call."""
    for _ in range(4096):
        ir.matrix_type(next(_FILLER_ROWS), 10**6 + 7, ElemKind.F32, EMPTY_PROPS)
        assert ir.matrix_type.cache_info().currsize <= 4096
    assert ir.matrix_type.cache_info().currsize == 4096


def test_the_type_cache_is_bounded(capsys):
    """Nothing compares types by identity, so a type asked for again after
    it was evicted is a new object that serves as well."""
    assert ir.matrix_type.cache_info().maxsize == 4096
    first = ir.matrix_type(3, 3, ElemKind.F64, LOWER)
    _intern_other_types()
    again = ir.matrix_type(3, 3, ElemKind.F64, LOWER)
    assert again == first and again is not first
    _intern_other_types()
    root = os.path.join(os.path.dirname(__file__), "..")
    assert main([os.path.join(root, "examples", "listing1.mom"), "--emit=ir-opt"]) == 0
    with open(os.path.join(root, "tests", "golden", "listing1_ir_opt.txt"),
              encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()


def test_node_equality_compares_the_class():
    assert ir.Init(3) != loops.Alloc(3)
    assert ir.Mul(2, (0, 1)) != ir.Add(2, (0, 1))
    assert ir.Mul(2, (0, 1)) == ir.Mul(2, (0, 1))


def test_matrix_type_rejects_non_positive_dims():
    with pytest.raises(ValueError, match="must be positive"):
        ir.MatrixType(3, 0, ElemKind.F32, EMPTY_PROPS)


@pytest.mark.parametrize("rows,cols,props", [
    (4, 5, EMPTY_PROPS),  # rectangular
    (4, 4, EMPTY_PROPS),  # square but not diagonal
    (4, 4, LOWER),
])
def test_identity_type_must_be_square_and_diagonal(rows, cols, props):
    with pytest.raises(ValueError):
        ir.MatrixType(rows, cols, ElemKind.F32, props, identity=True)
    ir.MatrixType(rows, cols, ElemKind.F32, props)  # fine without the flag


def test_print_ir_matches_golden_listing():
    assert ir.print_ir(build(LISTING)) == LISTING_IR


def test_print_ir_distinguishes_structure():
    a = build("Matrix A(2, 2) <>\nC = A\nprint(C)\n")
    b = build("Matrix A(2, 2) <>\nprint(A)\n")
    assert ir.print_ir(a) != ir.print_ir(b)


def test_scalar_formatting():
    assert ir.format_scalar(1.0) == "1"
    assert ir.format_scalar(-0.0) == "0"
    assert ir.format_scalar(2.5) == "2.5"
    assert ir.format_scalar(float("0.1")) == "0.1"
    assert ir.format_scalar(442368.0) == "442368"


def test_every_value_defined_once_with_table_entry():
    m = build(LISTING)
    seen = set()
    for _, op in m.walk():
        r = op_result(op)
        if r is not None:
            assert r not in seen
            seen.add(r)
            assert r in m.types
        for o in op_operands(op):
            assert o in m.types
    assert seen == set(m.types)


def test_generated_programs_build_and_verify_clean():
    rng = random.Random(default_seed() ^ 0x1A)
    for _ in range(40):
        compile_text(random_program(rng))  # asserts verify() is empty
