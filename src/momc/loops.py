"""Loop-level IR: tensor allocation, property-aware fill, matmul, add, print.

Every value of the optimized binary IR gets a tensor with the value's own
id, so the `%k` of a loop dump are those of the `--emit=ir-opt` dump, and
the tensor table is the IR's symbol table itself. A product or sum gets an
`alloc` of a fresh tensor (zero-initialized, so matmul can accumulate) and a
compute op; a transpose gets only an `alloc` whose `source` names the tensor
it is a view of, so lowering is not one-to-one. Fills write their scalar
into the stored pattern implied by the operand's properties; a product and
a print carry their operands' patterns too, and a product its count of
stored mults by the chain DP's formula (`chain.pattern_cost`).

Every input is a constant fill, so one forward pass over Python ints also
gives each tensor an integer interval (lo, hi) that holds every entry, or
unknown facts (None). With 2**p the element kind's exact-integer limit (p =
24 for f32, 53 for f64), a known interval lies within [-2**p, 2**p]:
- a fill of v, rounded to the element kind, is [v, v] under FULL, else
  [min(v, 0), max(v, 0)]; a v that is no such integer is unknown;
- a transposed view has its source's interval, and a sum adds the bounds;
- a product with inner dim k is k * [min(P, 0), max(P, 0)] over the products
  P of its operands' bounds. It lies within 2**p iff max|a| * max|b| * k <=
  2**p, and then every product and partial sum is an integer the type
  holds: the product is `exact`, so BLAS gives the loop's bits in any order,
  and the executor runs it on BLAS in both modes, whatever its size.
A sum or product past 2**p may round, so it is unknown; so would be an input
that is not a fill (read from a file, say). The executor keeps its run-time
checks for unknown facts; `tests/oracle.py` holds the proofs they replace.
"""

from __future__ import annotations

import enum
import struct
from typing import Union

from . import ir
from .chain import pattern_cost
from .errors import UnresolvedTerm
from .properties import ElemKind, StoredPattern, stored_pattern
from .record import Record, pauses_collector

TensorId = int
# An integer interval holding every entry of a tensor; None is unknown.
Interval = Union[tuple[int, int], None]


class ExecMode(enum.Enum):
    DENSE = "dense"
    SPECIALIZED = "specialized"


class Alloc(Record):
    __slots__ = ("tensor", "source")

    def __init__(self, tensor: TensorId, source: TensorId | None = None) -> None:
        self.tensor = tensor
        # The tensor this one is the transposed view of, allocated above; None
        # for a fresh buffer.
        self.source = source


class Fill(Record):
    __slots__ = ("tensor", "value", "pattern")

    def __init__(self, tensor: TensorId, value: float, pattern: StoredPattern) -> None:
        self.tensor = tensor
        self.value = value
        self.pattern = pattern


class MatMul(Record):
    __slots__ = ("a", "b", "out", "pa", "pb", "exact", "mults")

    def __init__(self, a: TensorId, b: TensorId, out: TensorId, pa: StoredPattern,
                 pb: StoredPattern, exact: bool, mults: int) -> None:
        self.a = a
        self.b = b
        self.out = out
        self.pa = pa
        self.pb = pb
        self.exact = exact  # no step of the product rounds, in any order
        self.mults = mults  # the multiplications of stored entries, as the DP prices them


class Add(Record):
    __slots__ = ("a", "b", "out")

    def __init__(self, a: TensorId, b: TensorId, out: TensorId) -> None:
        self.a = a
        self.b = b
        self.out = out


class Print(Record):
    __slots__ = ("tensor", "pattern", "interval")

    def __init__(self, tensor: TensorId, pattern: StoredPattern,
                 interval: Interval) -> None:
        self.tensor = tensor
        self.pattern = pattern
        self.interval = interval


LoopOp = Union[Alloc, Fill, MatMul, Add, Print]


class LoopModule(Record):
    __slots__ = ("ops", "tensors")

    def __init__(self, ops: tuple[LoopOp, ...],
                 tensors: dict[TensorId, ir.MatrixType] | None = None) -> None:
        self.ops = ops
        # The lowered module's symbol table, in which no term is left.
        self.tensors = {} if tensors is None else tensors


# 2**p: every integer of at most this magnitude is exact in f32, in f64.
_F32_EXACT, _F64_EXACT = 1 << 24, 1 << 53
_F32_BYTES = struct.Struct("f")


@pauses_collector
def lower_to_loops(m: ir.IRModule) -> LoopModule:
    """Lower a fully resolved, rematerialized module to loop ops, with the
    stored patterns and the value facts of the module docstring."""
    types = m.types
    for v, t in types.items():
        if t.__class__ is ir.TermType:
            raise UnresolvedTerm(f"value %{v} still has a placeholder term type")

    ops: list[LoopOp] = []
    facts: dict[TensorId, tuple[int, int]] = {}  # the known intervals
    f32, full = ElemKind.F32, StoredPattern.FULL
    for op in m.ops:
        cls = op.__class__
        if cls is ir.Fill:
            v, t = op.value, types[op.operand]
            pattern = stored_pattern(t.props)
            limit = _F32_EXACT if t.elem is f32 else _F64_EXACT
            known = v.is_integer() and -limit <= v <= limit
            if not known and t.elem is f32:
                # What the buffer holds: a fraction may round to an integer,
                # and a value past the f32 range to inf.
                v = _F32_BYTES.unpack(_F32_BYTES.pack(v))[0]
                known = v.is_integer() and -limit <= v <= limit
            if known:
                v = int(v)
                facts[op.operand] = ((v, v) if pattern is full
                                     else (v, 0) if v < 0 else (0, v))
            ops.append(Fill(op.operand, op.value, pattern))
        elif cls is ir.Init:
            ops.append(Alloc(op.result))
        elif cls is ir.Mul or cls is ir.Add:
            a, b = op.operands  # rematerialization leaves binary ops
            ta, tb = types[a], types[b]
            mul = cls is ir.Mul
            known = a in facts and b in facts
            if known:
                (la, ha), (lb, hb) = facts[a], facts[b]
                # With 0, la*hb or ha*lb is the least corner, la*lb or ha*hb the greatest.
                if mul:
                    k = ta.cols
                    lo, hi = k * min(la * hb, ha * lb, 0), k * max(la * lb, ha * hb, 0)
                else:
                    lo, hi = la + lb, ha + hb
                limit = _F32_EXACT if ta.elem is f32 else _F64_EXACT
                known = -limit <= lo and hi <= limit
                if known:
                    facts[op.result] = (lo, hi)
            if mul:
                pa, pb = stored_pattern(ta.props), stored_pattern(tb.props)
                ops += (Alloc(op.result),
                        MatMul(a, b, op.result, pa, pb, known,
                               pattern_cost(ta.rows, ta.cols, tb.cols, pa, pb)))
            else:
                ops += (Alloc(op.result), Add(a, b, op.result))
        elif cls is ir.Print:
            ops.append(Print(op.operand, stored_pattern(types[op.operand].props),
                             facts.get(op.operand)))
        elif cls is ir.Transpose:
            if op.operand in facts:
                facts[op.result] = facts[op.operand]
            ops.append(Alloc(op.result, op.operand))
        else:
            raise UnresolvedTerm(
                f"{type(op).__name__} cannot be lowered; run the optimizer first")
    return LoopModule(tuple(ops), m.types)


def format_op(lm: LoopModule, op: LoopOp) -> str:
    """The op's line in the `print_loops` dump."""

    def shape(tid: TensorId) -> str:
        t = lm.tensors[tid]
        return f"{t.rows}x{t.cols}x{t.elem}"

    def annotated(tid: TensorId) -> str:
        return f"%{tid}{lm.tensors[tid].props.render()}"

    if isinstance(op, Alloc):
        what = "alloc" if op.source is None else f"transpose %{op.source}"
        return f"%{op.tensor} = {what} : {shape(op.tensor)}"
    if isinstance(op, Fill):
        return (f"fill %{op.tensor}, {ir.format_scalar(op.value)} : "
                f"pattern={op.pattern}")
    if isinstance(op, MatMul):
        return (f"matmul {annotated(op.a)}, {annotated(op.b)} -> "
                f"{annotated(op.out)} : {shape(op.out)}")
    if isinstance(op, Add):
        return f"add %{op.a}, %{op.b} -> %{op.out} : {shape(op.out)}"
    assert isinstance(op, Print)
    return f"print %{op.tensor}"


def print_loops(lm: LoopModule) -> str:
    """Deterministic one-op-per-line dump, pinned by golden tests."""
    return "\n".join(format_op(lm, op) for op in lm.ops) + "\n"
