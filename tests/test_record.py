"""The record contract: what the compiler and the tests rely on of the
classes built on `record.Record`."""

import collections

import pytest

from momc import cli, executor, frontend as fe, ir, loops
from momc.properties import DIAGONAL_PROPS, EMPTY_PROPS, ElemKind, PropertySet, StoredPattern
from momc.record import Record

FULL = StoredPattern.FULL


def test_every_record_is_slotted():
    """No record has a `__dict__`: each class names its own `__slots__`."""
    records = Record.__subclasses__()
    assert collections.Counter(c.__module__ for c in records) == {
        "momc.frontend": 9, "momc.ir": 10, "momc.equation_opt": 7, "momc.loops": 6,
        "momc.chain": 1, "momc.properties": 1, "momc.cli": 1, "momc.executor": 1}
    for cls in records:
        assert "__slots__" in vars(cls) and cls.__dictoffset__ == 0, cls
    for obj in (fe.PrintStmt("A"), ir.TERM, EMPTY_PROPS, loops.LoopModule(()),
                cli.BenchReport(1, 1, 0, 0), executor.ExecutionReport()):
        assert not hasattr(obj, "__dict__"), obj
        with pytest.raises(AttributeError):
            obj.undeclared = 1


def test_ast_equality_ignores_locations():
    """The same program at other lines and columns parses equal, so the
    `parse(pretty(ast)) == ast` round trips hold; so do Equations built
    from it."""
    a = fe.parse_source("Matrix A(2, 2) <>\nB = A * A\nprint(B + A)\n")
    b = fe.parse_source("\n\nMatrix  A(2,2) <>\n  B = A*A  # square\nprint( B+A )\n")
    assert a == b
    assert [s.loc for s in a.stmts] != [s.loc for s in b.stmts]
    assert ir.build_ir(a).ops == ir.build_ir(b).ops
    assert fe.PrintStmt("A", (1, 1)) == fe.PrintStmt("A", (2, 7)) != fe.PrintStmt("B")
    assert fe.Assign("B", "A") != fe.Assign("C", "A")


def test_equality_needs_the_same_class():
    refs = ("A", "B")
    assert fe.Mul(refs) == fe.Mul(refs) and fe.Mul(refs) != fe.Add(refs)
    assert loops.Add(0, 1, 2) == loops.Add(0, 1, 2)

    class Other(Record):
        __slots__ = ("a", "b", "out")

        def __init__(self, a, b, out):
            self.a, self.b, self.out = a, b, out

    assert loops.Add(0, 1, 2) != Other(0, 1, 2)
    assert loops.Add(0, 1, 2) != loops.MatMul(0, 1, 2, FULL, FULL, True, 8)


def test_records_are_mutable_and_unhashable():
    op = ir.Init(0)
    op.result = 3
    assert op == ir.Init(3)
    with pytest.raises(TypeError):
        hash(op)


def test_matrix_types_hash_by_value_and_refuse_assignment():
    a = ir.MatrixType(3, 3, ElemKind.F32, EMPTY_PROPS)
    b = ir.MatrixType(3, 3, ElemKind.F32, EMPTY_PROPS)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ir.MatrixType(3, 3, ElemKind.F64, EMPTY_PROPS)
    assert a != ir.MatrixType(3, 3, ElemKind.F32, DIAGONAL_PROPS)
    with pytest.raises(AttributeError):
        a.rows = 4
    with pytest.raises(ValueError):
        ir.MatrixType(2, 3, ElemKind.F32, DIAGONAL_PROPS)
    assert a.rows == 3


def test_property_sets_compare_by_identity_and_terms_by_class():
    twin = PropertySet(frozenset(), (), FULL)
    assert twin != EMPTY_PROPS and twin == twin and len({twin, EMPTY_PROPS}) == 2
    assert ir.TermType() == ir.TERM and hash(ir.TermType()) == hash(ir.TERM)
    assert ir.TERM != ir.MatrixType(1, 1, ElemKind.F32, EMPTY_PROPS)


def test_repr_names_every_slot():
    assert repr(fe.PrintStmt("A", (1, 2))) == "PrintStmt(expr='A', loc=(1, 2))"
    assert repr(loops.Alloc(3)) == "Alloc(tensor=3, source=None)"
    assert repr(ir.TERM) == "TermType()"
