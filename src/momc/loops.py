"""Loop-level IR: tensor allocation, property-aware fill, matmul, add, print.

Every value of the optimized binary IR gets a tensor. A product or sum gets
a freshly allocated one (zero-initialized, so matmul can accumulate) and a
compute op; a transpose gets a view of its operand's tensor
(`TensorInfo.transpose_of`) and no op, so lowering is not one-to-one. Fills
write their scalar into the stored pattern implied by the operand's
properties. The tensor table holds each value's type once; ops refer to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from . import ir
from .errors import UnresolvedTerm
from .properties import ElemKind, PropertySet, StoredPattern, stored_pattern

TensorId = int


@dataclass(frozen=True)
class TensorInfo:
    rows: int
    cols: int
    elem: ElemKind
    props: PropertySet
    transpose_of: TensorId | None = None  # a view of that tensor, transposed


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
    tensors: dict[TensorId, TensorInfo] = field(default_factory=dict)


def lower_to_loops(m: ir.IRModule) -> LoopModule:
    """Lower a fully resolved, rematerialized module to loop ops."""
    for v, t in m.types.items():
        if isinstance(t, ir.TermType):
            raise UnresolvedTerm(f"value %{v} still has a placeholder term type")

    ops: list[LoopOp] = []
    tensors: dict[TensorId, TensorInfo] = {}
    tmap: dict[ir.ValueId, TensorId] = {}

    def alloc(v: ir.ValueId, transpose_of: TensorId | None = None) -> TensorId:
        t = m.types[v]
        dims = ir.value_dims(t)
        assert dims is not None
        tid = len(tensors)
        tensors[tid] = TensorInfo(dims[0], dims[1], ir.value_elem(t),
                                  ir.value_props(t), transpose_of)
        tmap[v] = tid
        ops.append(Alloc(tid))
        return tid

    for op in m.ops:
        if isinstance(op, ir.Init):
            alloc(op.result)
        elif isinstance(op, ir.Fill):
            tid = tmap[op.operand]
            ops.append(Fill(tid, op.value, stored_pattern(tensors[tid].props)))
        elif isinstance(op, (ir.Mul, ir.Add)):
            a, bb = op.operands  # rematerialization leaves binary ops
            out = alloc(op.result)
            kind = MatMul if isinstance(op, ir.Mul) else Add
            ops.append(kind(tmap[a], tmap[bb], out))
        elif isinstance(op, ir.Transpose):
            alloc(op.result, tmap[op.operand])
        elif isinstance(op, ir.Print):
            ops.append(Print(tmap[op.operand]))
        else:
            raise UnresolvedTerm(
                f"{type(op).__name__} cannot be lowered; run the optimizer first")

    return LoopModule(tuple(ops), tensors)


def format_op(lm: LoopModule, op: LoopOp) -> str:
    """The op's line in the `print_loops` dump."""

    def shape(tid: TensorId) -> str:
        t = lm.tensors[tid]
        return f"{t.rows}x{t.cols}x{t.elem}"

    def annotated(tid: TensorId) -> str:
        return f"%{tid}{lm.tensors[tid].props.render()}"

    if isinstance(op, Alloc):
        src = lm.tensors[op.tensor].transpose_of
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
