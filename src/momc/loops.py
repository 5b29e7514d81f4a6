"""Loop-level IR: tensor allocation, property-aware fill, matmul, add, print.

Every value of the optimized binary IR gets a tensor with the value's own
id, so the `%k` of a loop dump are those of the `--emit=ir-opt` dump, and
the tensor table is the IR's symbol table itself. A product or sum gets an
`alloc` of a fresh tensor (zero-initialized, so matmul can accumulate) and a
compute op; a transpose gets only an `alloc` whose `source` names the tensor
it is a view of, so lowering is not one-to-one. Fills write their scalar
into the stored pattern implied by the operand's properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from . import ir
from .errors import UnresolvedTerm
from .properties import StoredPattern, stored_pattern

TensorId = int


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


@dataclass(slots=True)
class Add:
    a: TensorId
    b: TensorId
    out: TensorId


@dataclass(slots=True)
class Print:
    tensor: TensorId


LoopOp = Union[Alloc, Fill, MatMul, Add, Print]


@dataclass(slots=True)
class LoopModule:
    ops: tuple[LoopOp, ...]
    # The lowered module's symbol table, in which no term is left.
    tensors: dict[TensorId, ir.MatrixType] = field(default_factory=dict)


def lower_to_loops(m: ir.IRModule) -> LoopModule:
    """Lower a fully resolved, rematerialized module to loop ops."""
    for v, t in m.types.items():
        if isinstance(t, ir.TermType):
            raise UnresolvedTerm(f"value %{v} still has a placeholder term type")

    ops: list[LoopOp] = []
    for op in m.ops:
        if isinstance(op, ir.Fill):
            pattern = stored_pattern(m.types[op.operand].props)
            ops.append(Fill(op.operand, op.value, pattern))
        elif isinstance(op, ir.Print):
            ops.append(Print(op.operand))
        elif isinstance(op, ir.Init):
            ops.append(Alloc(op.result))
        elif isinstance(op, ir.Transpose):
            ops.append(Alloc(op.result, op.operand))
        elif isinstance(op, (ir.Mul, ir.Add)):
            a, b = op.operands  # rematerialization leaves binary ops
            kind = MatMul if isinstance(op, ir.Mul) else Add
            ops += (Alloc(op.result), kind(a, b, op.result))
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
