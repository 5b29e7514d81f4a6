"""Equation processing: type resolution with identity elimination, and
rematerialization to binary low-level IR.

`resolve_types` types an equation in one forward pass over its region: a
region lists its ops operands first (the verifier enforces it), so each op is
typed from the nodes already built for its operands, and the node of the
equation's `yielded` value is its result. Every node carries its
`MatrixType`; a product or sum splices in operands of its own kind, so each
is one variadic node. Dims and element kinds are checked, identities
included, before any identity is dropped. Each variadic multiplication is
then re-emitted as the binary tree chosen by the chain solver (additions
fold left; their cost does not depend on parenthesization). Operand order
inside a multiplication is never changed, only the grouping. Types are
inferred once: an emitted product's properties are those of the DP cell for
the subchain it spans.
"""

from __future__ import annotations

from typing import Callable, Union

from . import ir
from .chain import (
    ChainSolution,
    ChainTree,
    left_fold_tree,
    optimal_parenthesization,
    tree_cost,
)
from .errors import ResolutionError
from .properties import infer_add, infer_mul, infer_transpose
from .record import Record, pauses_collector


class Leaf(Record):
    __slots__ = ("value", "type")

    def __init__(self, value: ir.ValueId, type: ir.MatrixType) -> None:
        self.value = value
        self.type = type


class MulN(Record):
    __slots__ = ("children", "type")

    def __init__(self, children: tuple["SymExpr", ...], type: ir.MatrixType) -> None:
        self.children = children
        self.type = type


class AddN(Record):
    __slots__ = ("children", "type")

    def __init__(self, children: tuple["SymExpr", ...], type: ir.MatrixType) -> None:
        self.children = children
        self.type = type


class Trans(Record):
    __slots__ = ("child", "type")

    def __init__(self, child: "SymExpr", type: ir.MatrixType) -> None:
        self.child = child
        self.type = type


SymExpr = Union[Leaf, MulN, AddN, Trans]


def resolve_types(eq: ir.Equation,
                  leaf_type: Callable[[ir.ValueId], ir.ValueType],
                  drop_identities: bool = False) -> SymExpr:
    """Type an equation's region in one forward pass; return the yielded node.

    A value defined outside the region is a leaf of type `leaf_type(v)`; the
    optimizer passes the type of the value it already rematerialized, since
    the module types an earlier equation's result only as a placeholder term.
    This is the one type check of an equation: every product and sum must
    keep `ir.operand_type_error`'s rules, or `ResolutionError` is raised.

    With `drop_identities`, each product then loses its identity operands: a
    product of identities only collapses to its first identity leaf, one left
    with a single operand to that operand. A transposed identity is the
    identity itself. A sum absorbs an operand that collapsed to a sum, so one
    pass reaches the fixpoint.
    """
    nodes: dict[ir.ValueId, SymExpr] = {}

    def node(v: ir.ValueId) -> SymExpr:
        e = nodes.get(v)
        if e is not None:
            return e
        t = leaf_type(v)
        if not isinstance(t, ir.MatrixType):
            raise ResolutionError("placeholder term reached type resolution")
        return Leaf(v, t)

    for op in eq.region:
        if isinstance(op, ir.Transpose):
            c = node(op.operand)
            t = c.type
            if not t.identity:
                t = ir.matrix_type(t.cols, t.rows, t.elem, infer_transpose(t.props))
            nodes[op.result] = c if t.identity and drop_identities else Trans(c, t)
            continue
        assert isinstance(op, (ir.Mul, ir.Add))
        kind = MulN if isinstance(op, ir.Mul) else AddN
        children: list[SymExpr] = []
        for o in op.operands:
            c = node(o)
            children.extend(c.children) if isinstance(c, kind) else children.append(c)
        types = [c.type for c in children]
        reason = ir.operand_type_error(op, types)
        if reason is not None:
            raise ResolutionError(reason)
        t0 = types[0]
        elem = t0.elem
        if kind is AddN:
            props = t0.props
            for t in types[1:]:
                props = infer_add(props, t.props)
            nodes[op.result] = AddN(tuple(children),
                                    ir.matrix_type(t0.rows, t0.cols, elem, props))
            continue
        if drop_identities:
            kept = [c for c in children if not c.type.identity]
            if len(kept) < 2:
                nodes[op.result] = kept[0] if kept else children[0]
                continue
            children, types = kept, [c.type for c in kept]
        props = types[0].props
        d = (types[0].rows, types[0].cols)
        for t in types[1:]:
            props = infer_mul(props, d, t.props, (t.rows, t.cols))
            d = (d[0], t.cols)
        nodes[op.result] = MulN(tuple(children), ir.matrix_type(*d, elem, props))
    return node(eq.yielded)


# --------------------------------------------------------------------------
# Module-level pass
# --------------------------------------------------------------------------


class OptOptions(Record):
    __slots__ = ("simplify_identities", "reorder_chains")

    def __init__(self, simplify_identities: bool = True,
                 reorder_chains: bool = True) -> None:
        self.simplify_identities = simplify_identities
        self.reorder_chains = reorder_chains


class ChainReport(Record):
    """What one variadic multiplication looked like to the chain solver."""

    __slots__ = ("label", "operand_names", "operands", "solution", "baseline_tree",
                 "baseline_cost")

    def __init__(self, label: str, operand_names: tuple[str, ...],
                 operands: tuple[ir.MatrixType, ...], solution: ChainSolution,
                 baseline_tree: ChainTree, baseline_cost: int) -> None:
        self.label = label
        self.operand_names = operand_names
        self.operands = operands
        self.solution = solution
        self.baseline_tree = baseline_tree
        self.baseline_cost = baseline_cost


class OptResult(Record):
    __slots__ = ("module", "chains")

    def __init__(self, module: ir.IRModule, chains: list[ChainReport]) -> None:
        self.module = module
        self.chains = chains


def _leaf_name(e: SymExpr, module: ir.IRModule) -> str:
    if isinstance(e, Leaf):
        return module.names.get(e.value, f"%{e.value}")
    if isinstance(e, Trans):
        return f"transpose({_leaf_name(e.child, module)})"
    sep = "*" if isinstance(e, MulN) else "+"
    return "(" + sep.join(_leaf_name(c, module) for c in e.children) + ")"


@pauses_collector
def optimize_and_rematerialize(module: ir.IRModule,
                               options: OptOptions = OptOptions()) -> OptResult:
    """Process every equation and rebuild the module as low-level binary IR.

    `module` must verify clean (`ir.verify`): each region then lists its ops
    operands first and each yielded value is defined. Inits and fills are
    kept in place; each equation is replaced by the binary ops of its
    optimized tree; prints are retargeted to the new concrete-typed results.
    An equation that reduces to a bare leaf emits no ops and its prints read
    the original buffer.
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
            b.ops.append(ir.Transpose(v, operand))
            return v
        if isinstance(e, AddN):
            acc = emit(e.children[0])
            acc_t = e.children[0].type
            for c in e.children[1:]:
                rhs = emit(c)
                acc_t = ir.matrix_type(acc_t.rows, acc_t.cols, acc_t.elem,
                                       infer_add(acc_t.props, c.type.props))
                v = b.new_value(acc_t)
                b.ops.append(ir.Add(v, (acc, rhs)))
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
        for i, j in tree:
            if i == j:
                values.append(emit(e.children[i]))
                continue
            rhs = values.pop()
            v = b.new_value(ir.matrix_type(operands[i].rows, operands[j].cols,
                                           elem, solution.props[i][j]))
            b.ops.append(ir.Mul(v, (values[-1], rhs)))
            values[-1] = v
        return values[0]

    try:
        for op in module.ops:
            if isinstance(op, ir.Init):
                vmap[op.result] = b.init(module.types[op.result],
                                         module.names.get(op.result))
            elif isinstance(op, ir.Fill):
                b.ops.append(ir.Fill(op.value, vmap[op.operand]))
            elif isinstance(op, ir.Print):
                b.ops.append(ir.Print(vmap[op.operand]))
            elif isinstance(op, ir.Equation):
                try:
                    e = resolve_types(op, rematerialized_type,
                                      options.simplify_identities)
                    t = e.type
                    want = op.declared_dims
                    if want is not None and want != (t.rows, t.cols):
                        raise ResolutionError(
                            f"equation result is {t.rows}x{t.cols} but the target "
                            f"was declared {want[0]}x{want[1]}")
                except ResolutionError as err:
                    if op.loc is not None:
                        err.at(*op.loc)
                    raise
                vmap[op.result] = emit(e)
                eq_count += 1
            else:
                raise ResolutionError(
                    f"cannot optimize a module containing {type(op).__name__}")
    finally:
        del emit, emit_chain  # the closures refer to each other: break the cycle
    return OptResult(b.module(), chains)
