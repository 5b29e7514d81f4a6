"""Equation processing: symbolic walk, identity simplification, type
resolution, and rematerialization to binary low-level IR.

Each equation region is walked from its yield into a flat variadic symbolic
tree. Identity operands of multiplications are deleted in one bottom-up
pass, placeholder term types are replaced by concrete inferred types, and
every variadic multiplication is re-emitted as the binary tree chosen by the
chain solver (additions fold left; their cost does not depend on
parenthesization). Operand order inside a multiplication is never changed,
only the grouping. Types are inferred once: an emitted product reads the
type of the DP cell for the subchain it spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from . import ir
from .chain import (
    ChainLeaf,
    ChainOperand,
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


def _is_identity_leaf(e: SymExpr) -> bool:
    return isinstance(e, Leaf) and isinstance(e.type, ir.IdentityType)


def simplify_identities(e: SymExpr) -> SymExpr:
    """Delete identity operands of multiplications in one bottom-up pass.

    A multiplication of identities collapses to its first identity leaf; a
    transposed identity is the identity itself; a multiplication left with
    one child collapses to that child. A collapsed child is flattened into
    its parent, so one pass reaches the fixpoint.
    """
    def simp(e: SymExpr) -> SymExpr:
        if isinstance(e, Leaf):
            return e
        if isinstance(e, Trans):
            c = simp(e.child)
            return c if _is_identity_leaf(c) else Trans(c)
        if isinstance(e, AddN):
            return AddN(_flatten(AddN, tuple(simp(c) for c in e.children)))
        children = _flatten(MulN, tuple(simp(c) for c in e.children))
        kept = tuple(c for c in children if not _is_identity_leaf(c))
        if not kept:
            return children[0]
        if len(kept) == 1:
            return kept[0]
        return MulN(kept)

    return simp(e)


def _dims(t: ir.ValueType) -> tuple[int, int]:
    d = ir.value_dims(t)
    if d is None:
        raise ResolutionError("placeholder term reached type resolution")
    return d


def resolve_types(e: SymExpr) -> SymExpr:
    """Replace placeholder types bottom-up with concrete inferred types."""
    if isinstance(e, Leaf):
        return e
    if isinstance(e, Trans):
        c = resolve_types(e.child)
        t = _type_of(c)
        if isinstance(t, ir.IdentityType):
            return Trans(c, t)
        assert isinstance(t, ir.MatrixType)
        return Trans(c, ir.MatrixType(t.cols, t.rows, t.elem,
                                      infer_transpose(t.props)))
    children = tuple(resolve_types(c) for c in e.children)
    types = [_type_of(c) for c in children]
    elems = {ir.value_elem(t) for t in types}
    if len(elems) > 1:
        raise ResolutionError("operands mix f32 and f64")
    elem = elems.pop()
    dims = [_dims(t) for t in types]
    if isinstance(e, MulN):
        for a, b in zip(dims, dims[1:]):
            if a[1] != b[0]:
                raise ResolutionError(f"inner dims disagree, {a[1]} vs {b[0]}")
        props = ir.value_props(types[0])
        d = dims[0]
        for t, nd in zip(types[1:], dims[1:]):
            props = infer_mul(props, d, ir.value_props(t), nd)
            d = (d[0], nd[1])
        return MulN(children, ir.MatrixType(dims[0][0], dims[-1][1], elem, props))
    if any(d != dims[0] for d in dims):
        raise ResolutionError("addition operands must share dims")
    props = ir.value_props(types[0])
    for t in types[1:]:
        props = infer_add(props, ir.value_props(t))
    return AddN(children, ir.MatrixType(dims[0][0], dims[0][1], elem, props))


def _type_of(e: SymExpr) -> ir.ValueType:
    if e.type is None:
        raise ResolutionError("unresolved node; resolve_types must run first")
    return e.type


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
    operands: tuple[ChainOperand, ...]
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
        t = _type_of(e)
        if isinstance(e, Trans):
            operand = emit(e.child)
            v = b.new_value(t)
            b.append(ir.Transpose(v, operand))
            return v
        if isinstance(e, AddN):
            acc_expr: SymExpr = e.children[0]
            acc = emit(acc_expr)
            acc_t = _type_of(acc_expr)
            for c in e.children[1:]:
                rhs = emit(c)
                ct = _type_of(c)
                d = _dims(acc_t)
                acc_t = ir.MatrixType(d[0], d[1], ir.value_elem(acc_t),
                                      infer_add(ir.value_props(acc_t),
                                                ir.value_props(ct)))
                v = b.new_value(acc_t)
                b.append(ir.Add(v, (acc, rhs)))
                acc = v
            return acc
        return emit_chain(e)

    def emit_chain(e: MulN) -> ir.ValueId:
        operands = tuple(
            ChainOperand(*_dims(_type_of(c)), ir.value_props(_type_of(c)))
            for c in e.children)
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

        # Each product's type is the DP cell of the subchain it spans.
        elem = ir.value_elem(_type_of(e))
        values: list[ir.ValueId] = []
        for node, i, j in postorder(tree):
            if isinstance(node, ChainLeaf):
                values.append(emit(e.children[i]))
                continue
            rhs = values.pop()
            rows, cols, props = solution.types[i][j]  # type: ignore[misc]
            v = b.new_value(ir.MatrixType(rows, cols, elem, props))
            b.append(ir.Mul(v, (values[-1], rhs)))
            values[-1] = v
        return values[0]

    for op in module.ops:
        if isinstance(op, ir.Init):
            vmap[op.result] = b.init(op.type, module.names.get(op.result))
        elif isinstance(op, ir.Fill):
            b.fill(op.value, vmap[op.operand])
        elif isinstance(op, ir.Print):
            b.append(ir.Print(vmap[op.operand]))
        elif isinstance(op, ir.Equation):
            e = symbolize(op, module, rematerialized_type)
            if options.simplify_identities:
                e = simplify_identities(e)
            e = resolve_types(e)
            root_t = _type_of(e)
            if op.declared_dims is not None:
                got = _dims(root_t)
                if got != op.declared_dims:
                    raise ResolutionError(
                        f"equation result is {got[0]}x{got[1]} but the target "
                        f"was declared {op.declared_dims[0]}x{op.declared_dims[1]}")
            vmap[op.result] = emit(e)
            eq_count += 1
        else:
            raise ResolutionError(
                f"cannot optimize a module containing {type(op).__name__}")

    return OptResult(b.module(), chains)
