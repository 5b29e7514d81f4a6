"""Loop-level IR: tensor allocation, property-aware fill, matmul, add, print.

Every value of the optimized binary IR gets a tensor with the value's own
id, so the `%k` of a loop dump are those of the `--emit=ir-opt` dump, and
the tensor table is the IR's symbol table itself. A product or sum gets an
`alloc` of a fresh tensor (zero-initialized, so matmul can accumulate) and a
compute op; a transpose gets only an `alloc` whose `source` names the tensor
it is a view of, so lowering is not one-to-one. Fills write their scalar
into the stored pattern implied by the operand's properties; a product and
a print carry their operands' patterns too.

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
from dataclasses import dataclass, field
from typing import Union

from . import ir
from .errors import UnresolvedTerm
from .properties import ElemKind, StoredPattern, stored_pattern

TensorId = int
# An integer interval holding every entry of a tensor; None is unknown.
Interval = Union[tuple[int, int], None]


class ExecMode(enum.Enum):
    DENSE = "dense"
    SPECIALIZED = "specialized"


@dataclass(slots=True)
class Alloc:
    tensor: TensorId
    # The tensor this one is the transposed view of, allocated above; None
    # for a fresh buffer.
    source: TensorId | None = None


@dataclass(slots=True)
class Fill:
    tensor: TensorId
    value: float
    pattern: StoredPattern


@dataclass(slots=True)
class MatMul:
    a: TensorId
    b: TensorId
    out: TensorId
    pa: StoredPattern
    pb: StoredPattern
    exact: bool  # no step of the product rounds, in any order


@dataclass(slots=True)
class Add:
    a: TensorId
    b: TensorId
    out: TensorId


@dataclass(slots=True)
class Print:
    tensor: TensorId
    pattern: StoredPattern
    interval: Interval


LoopOp = Union[Alloc, Fill, MatMul, Add, Print]


@dataclass(slots=True)
class LoopModule:
    ops: tuple[LoopOp, ...]
    # The lowered module's symbol table, in which no term is left.
    tensors: dict[TensorId, ir.MatrixType] = field(default_factory=dict)


# 2**p: every integer of at most this magnitude is exact in f32, in f64.
_F32_EXACT, _F64_EXACT = 1 << 24, 1 << 53
_F32_BYTES = struct.Struct("f")


def lower_to_loops(m: ir.IRModule) -> LoopModule:
    """Lower a fully resolved, rematerialized module to loop ops, with the
    stored patterns and the value facts of the module docstring."""
    types = m.types
    for v, t in types.items():
        if isinstance(t, ir.TermType):
            raise UnresolvedTerm(f"value %{v} still has a placeholder term type")

    ops: list[LoopOp] = []
    facts: dict[TensorId, tuple[int, int]] = {}  # the known intervals
    f32, full = ElemKind.F32, StoredPattern.FULL
    for op in m.ops:
        if isinstance(op, ir.Fill):
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
        elif isinstance(op, ir.Print):
            ops.append(Print(op.operand, stored_pattern(types[op.operand].props),
                             facts.get(op.operand)))
        elif isinstance(op, ir.Init):
            ops.append(Alloc(op.result))
        elif isinstance(op, ir.Transpose):
            if op.operand in facts:
                facts[op.result] = facts[op.operand]
            ops.append(Alloc(op.result, op.operand))
        elif isinstance(op, (ir.Mul, ir.Add)):
            a, b = op.operands  # rematerialization leaves binary ops
            ta = types[a]
            mul = isinstance(op, ir.Mul)
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
            ops += (Alloc(op.result),
                    MatMul(a, b, op.result, stored_pattern(ta.props),
                           stored_pattern(types[b].props), known)
                    if mul else Add(a, b, op.result))
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
