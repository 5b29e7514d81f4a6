"""Loop-level IR: tensor allocation, property-aware fill, matmul, add, print.

Every value of the optimized binary IR gets a tensor. A product or sum gets
a freshly allocated one (zero-initialized, so matmul can accumulate) and a
compute op; a transpose gets a view of its operand's tensor (recorded in
`LoopModule.views`) and no op, so lowering is not one-to-one. Fills write
their scalar into the stored pattern implied by the operand's properties.
The tensor table maps each tensor to its value's `ir.MatrixType`, the very
object of the IR's symbol table; ops refer to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from . import ir
from .errors import UnresolvedTerm
from .properties import StoredPattern, stored_pattern

TensorId = int


@dataclass(frozen=True)
class Alloc:
    tensor: TensorId


@dataclass(frozen=True)
class Fill:
    tensor: TensorId
    value: float
    pattern: StoredPattern


@dataclass(frozen=True)
class MatMul:
    a: TensorId
    b: TensorId
    out: TensorId


@dataclass(frozen=True)
class Add:
    a: TensorId
    b: TensorId
    out: TensorId


@dataclass(frozen=True)
class Print:
    tensor: TensorId


LoopOp = Union[Alloc, Fill, MatMul, Add, Print]

COMPUTE_OPS = (MatMul, Add)


@dataclass(frozen=True)
class LoopModule:
    ops: tuple[LoopOp, ...]
    tensors: dict[TensorId, ir.MatrixType] = field(default_factory=dict)
    # A view's tensor -> the tensor it is the transpose of.
    views: dict[TensorId, TensorId] = field(default_factory=dict)


def lower_to_loops(m: ir.IRModule) -> LoopModule:
    """Lower a fully resolved, rematerialized module to loop ops."""
    for v, t in m.types.items():
        if isinstance(t, ir.TermType):
            raise UnresolvedTerm(f"value %{v} still has a placeholder term type")

    ops: list[LoopOp] = []
    tensors: dict[TensorId, ir.MatrixType] = {}
    views: dict[TensorId, TensorId] = {}
    tmap: dict[ir.ValueId, TensorId] = {}
    for op in m.ops:
        if isinstance(op, ir.Fill):
            tid = tmap[op.operand]
            ops.append(Fill(tid, op.value, stored_pattern(tensors[tid].props)))
            continue
        if isinstance(op, ir.Print):
            ops.append(Print(tmap[op.operand]))
            continue
        if not isinstance(op, (ir.Init, ir.Mul, ir.Add, ir.Transpose)):
            raise UnresolvedTerm(
                f"{type(op).__name__} cannot be lowered; run the optimizer first")
        # Every other op defines a value, which gets a tensor of its type.
        tid = tmap[op.result] = len(tensors)
        tensors[tid] = m.types[op.result]
        ops.append(Alloc(tid))
        if isinstance(op, ir.Transpose):
            views[tid] = tmap[op.operand]
        elif not isinstance(op, ir.Init):
            a, b = op.operands  # rematerialization leaves binary ops
            kind = MatMul if isinstance(op, ir.Mul) else Add
            ops.append(kind(tmap[a], tmap[b], tid))
    return LoopModule(tuple(ops), tensors, views)


def format_op(lm: LoopModule, op: LoopOp) -> str:
    """The op's line in the `print_loops` dump."""

    def shape(tid: TensorId) -> str:
        t = lm.tensors[tid]
        return f"{t.rows}x{t.cols}x{t.elem}"

    def annotated(tid: TensorId) -> str:
        return f"%{tid}{lm.tensors[tid].props.render()}"

    if isinstance(op, Alloc):
        src = lm.views.get(op.tensor)
        what = "alloc" if src is None else f"transpose %{src}"
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
