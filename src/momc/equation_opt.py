"""Equation processing: symbolic walk, type resolution with identity
elimination, and rematerialization to binary low-level IR.

Each equation region is walked from its yield into a flat variadic symbolic
tree. One bottom-up pass, `resolve_types`, replaces placeholder term types
with concrete inferred ones and checks every operand's dims and element
kind, identities included; only after a node's checks does it drop the
identity operands of that node when asked to. Every variadic multiplication
is then re-emitted as the binary tree chosen by the chain solver (additions
fold left; their cost does not depend on parenthesization). Operand order
inside a multiplication is never changed, only the grouping. Types are
inferred once: an emitted product's properties are those of the DP cell
for the subchain it spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from . import ir
from .chain import (
    ChainLeaf,
    ChainSolution,
    ChainTree,
    left_fold_tree,
    optimal_parenthesization,
    postorder,
    tree_cost,
)
from .errors import ResolutionError
from .properties import infer_add, infer_mul, infer_transpose


@dataclass(frozen=True)
class Leaf:
    value: ir.ValueId
    type: ir.ValueType


@dataclass(frozen=True)
class MulN:
    children: tuple["SymExpr", ...]
    type: ir.ValueType | None = field(default=None, compare=False)


@dataclass(frozen=True)
class AddN:
    children: tuple["SymExpr", ...]
    type: ir.ValueType | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Trans:
    child: "SymExpr"
    type: ir.ValueType | None = field(default=None, compare=False)


SymExpr = Union[Leaf, MulN, AddN, Trans]


def _flatten(kind: type, children: tuple[SymExpr, ...]) -> tuple[SymExpr, ...]:
    out: list[SymExpr] = []
    for c in children:
        if isinstance(c, kind):
            out.extend(c.children)
        else:
            out.append(c)
    return tuple(out)


def symbolize(eq: ir.Equation, module: ir.IRModule,
              leaf_type: Callable[[ir.ValueId], ir.ValueType] | None = None
              ) -> SymExpr:
    """Build the symbolic tree rooted at the yield operand of an equation.

    Values not defined in the region are leaves carrying `leaf_type(v)`, by
    default their module type. The optimizer passes the concrete type of the
    already rematerialized value instead, since the module types an earlier
    equation's result only as a placeholder term. Nested multiplications
    (and additions) of the same kind flatten into one variadic node.
    """
    if leaf_type is None:
        leaf_type = module.types.__getitem__
    defs: dict[ir.ValueId, ir.IROp] = {}
    for op in eq.region:
        result = ir.op_result(op)
        if result is not None:
            defs[result] = op

    def walk(v: ir.ValueId) -> SymExpr:
        op = defs.get(v)
        if op is None:
            return Leaf(v, leaf_type(v))
        if isinstance(op, ir.Mul):
            return MulN(_flatten(MulN, tuple(walk(o) for o in op.operands)))
        if isinstance(op, ir.Add):
            return AddN(_flatten(AddN, tuple(walk(o) for o in op.operands)))
        assert isinstance(op, ir.Transpose)
        return Trans(walk(op.operand))

    yield_op = eq.region[-1]
    assert isinstance(yield_op, ir.Yield)
    return walk(yield_op.operand)


def resolve_types(e: SymExpr, drop_identities: bool = False) -> SymExpr:
    """Type every node bottom-up, checking dims and element kinds.

    With `drop_identities`, each node then loses its identity operands: a
    multiplication of identities collapses to its first identity leaf, one
    left with a single operand to that operand, and a transposed identity
    is the identity itself. A sum whose operand collapsed to a sum absorbs
    its operands, so one pass reaches the fixpoint.
    """
    if isinstance(e, Leaf):
        if not isinstance(e.type, ir.MatrixType):
            raise ResolutionError("placeholder term reached type resolution")
        return e
    if isinstance(e, Trans):
        c = resolve_types(e.child, drop_identities)
        t = c.type
        if t.identity:
            return c if drop_identities else Trans(c, t)
        return Trans(c, ir.MatrixType(t.cols, t.rows, t.elem,
                                      infer_transpose(t.props)))
    children = tuple(resolve_types(c, drop_identities) for c in e.children)
    types = [c.type for c in children]
    elems = {t.elem for t in types}
    if len(elems) > 1:
        raise ResolutionError("operands mix f32 and f64")
    elem = elems.pop()
    if isinstance(e, MulN):
        for a, b in zip(types, types[1:]):
            if a.cols != b.rows:
                raise ResolutionError(f"inner dims disagree, {a.cols} vs {b.rows}")
        if drop_identities:
            kept = tuple(c for c in children if not c.type.identity)
            if len(kept) < 2:
                return kept[0] if kept else children[0]
            children = kept
            types = [c.type for c in kept]
        props = types[0].props
        d = (types[0].rows, types[0].cols)
        for t in types[1:]:
            props = infer_mul(props, d, t.props, (t.rows, t.cols))
            d = (d[0], t.cols)
        return MulN(children, ir.MatrixType(d[0], d[1], elem, props))
    t0 = types[0]
    if any((t.rows, t.cols) != (t0.rows, t0.cols) for t in types):
        raise ResolutionError("addition operands must share dims")
    props = t0.props
    for t in types[1:]:
        props = infer_add(props, t.props)
    if drop_identities:
        children = _flatten(AddN, children)
    return AddN(children, ir.MatrixType(t0.rows, t0.cols, elem, props))


# --------------------------------------------------------------------------
# Module-level pass
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OptOptions:
    simplify_identities: bool = True
    reorder_chains: bool = True


@dataclass
class ChainReport:
    """What one variadic multiplication looked like to the chain solver."""

    label: str
    operand_names: tuple[str, ...]
    operands: tuple[ir.MatrixType, ...]
    solution: ChainSolution
    baseline_tree: ChainTree
    baseline_cost: int


@dataclass
class OptResult:
    module: ir.IRModule
    chains: list[ChainReport]


def _leaf_name(e: SymExpr, module: ir.IRModule) -> str:
    if isinstance(e, Leaf):
        return module.names.get(e.value, f"%{e.value}")
    if isinstance(e, Trans):
        return f"transpose({_leaf_name(e.child, module)})"
    sep = "*" if isinstance(e, MulN) else "+"
    return "(" + sep.join(_leaf_name(c, module) for c in e.children) + ")"


def optimize_and_rematerialize(module: ir.IRModule,
                               options: OptOptions = OptOptions()) -> OptResult:
    """Process every equation and rebuild the module as low-level binary IR.

    Inits and fills are kept in place; each equation is replaced by the
    binary ops of its optimized tree; prints are retargeted to the new
    concrete-typed results. An equation that reduces to a bare leaf emits no
    ops and its prints read the original buffer.
    """
    b = ir.IRBuilder()
    vmap: dict[ir.ValueId, ir.ValueId] = {}
    chains: list[ChainReport] = []
    eq_count = 0

    def rematerialized_type(v: ir.ValueId) -> ir.ValueType:
        return b.types[vmap[v]]

    def emit(e: SymExpr) -> ir.ValueId:
        if isinstance(e, Leaf):
            return vmap[e.value]
        if isinstance(e, Trans):
            operand = emit(e.child)
            v = b.new_value(e.type)
            b.append(ir.Transpose(v, operand))
            return v
        if isinstance(e, AddN):
            acc = emit(e.children[0])
            acc_t = e.children[0].type
            for c in e.children[1:]:
                rhs = emit(c)
                acc_t = ir.MatrixType(acc_t.rows, acc_t.cols, acc_t.elem,
                                      infer_add(acc_t.props, c.type.props))
                v = b.new_value(acc_t)
                b.append(ir.Add(v, (acc, rhs)))
                acc = v
            return acc
        return emit_chain(e)

    def emit_chain(e: MulN) -> ir.ValueId:
        operands = tuple(c.type for c in e.children)
        solution = optimal_parenthesization(operands)
        baseline = left_fold_tree(len(operands))
        tree = solution.tree if options.reorder_chains else baseline
        names = tuple(_leaf_name(c, module) for c in e.children)
        chains.append(ChainReport(
            label=f"equation {eq_count}",
            operand_names=names,
            operands=operands,
            solution=solution,
            baseline_tree=baseline,
            baseline_cost=tree_cost(baseline, operands),
        ))

        # Each product's properties are the DP cell of the subchain it spans.
        elem = operands[0].elem
        values: list[ir.ValueId] = []
        for node, i, j in postorder(tree):
            if isinstance(node, ChainLeaf):
                values.append(emit(e.children[i]))
                continue
            rhs = values.pop()
            v = b.new_value(ir.MatrixType(operands[i].rows, operands[j].cols,
                                          elem, solution.props[i][j]))
            b.append(ir.Mul(v, (values[-1], rhs)))
            values[-1] = v
        return values[0]

    for op in module.ops:
        if isinstance(op, ir.Init):
            vmap[op.result] = b.init(module.types[op.result],
                                     module.names.get(op.result))
        elif isinstance(op, ir.Fill):
            b.append(ir.Fill(op.value, vmap[op.operand]))
        elif isinstance(op, ir.Print):
            b.append(ir.Print(vmap[op.operand]))
        elif isinstance(op, ir.Equation):
            try:
                e = resolve_types(symbolize(op, module, rematerialized_type),
                                  options.simplify_identities)
                t = e.type
                want = op.declared_dims
                if want is not None and want != (t.rows, t.cols):
                    raise ResolutionError(
                        f"equation result is {t.rows}x{t.cols} but the target "
                        f"was declared {want[0]}x{want[1]}")
            except ResolutionError as err:
                if op.loc is not None:
                    err.at(op.loc.line, op.loc.col)
                raise
            vmap[op.result] = emit(e)
            eq_count += 1
        else:
            raise ResolutionError(
                f"cannot optimize a module containing {type(op).__name__}")

    return OptResult(b.module(), chains)
