"""Property-typed matrix IR: types, operations, verifier, textual printer.

A module is an ordered list of operations plus a symbol table mapping value
ids to types. The table is the only place a value's type is kept: ops carry
none, and the chain solver and loop lowering read the table's `MatrixType`
objects themselves. An identity is a `MatrixType` with `identity` set. Types
are immutable, hashable records and come from `matrix_type`, a bounded LRU
cache, since a compile builds thousands but few differ; ops are mutable
records (`record.Record`), faster to build than immutable ones. Equations
carry a region one level deep: variadic compute ops that produce placeholder
`term` values, then the value they yield (an empty region, as in `C = A`,
yields a value defined above). After optimization the module holds only
binary compute ops with concrete types at the top level.

The textual form is this project's own, pinned by golden tests:

    %0 = init : matrix<5x5xf32,[lowerTri]>
    fill %0, 1 : f32
    %2 = equation {
      %3 = mul %0, %1 : term
      yield %3
    } : term
    print %2 : term
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Union

from . import frontend as fe
from .errors import CompileError
from .properties import DIAGONAL_PROPS, EMPTY_PROPS, ElemKind, PropertySet, canonicalize
from .record import Record, pauses_collector

ValueId = int


# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------


class MatrixType(Record):
    """The one matrix type: dims, element kind and closed property set. An
    identity is the square diagonal type with `identity` set; it prints as
    `identity<NxE>`, and the optimizer may drop it from a product. Immutable
    and hashable, since `matrix_type` interns it."""

    __slots__ = ("rows", "cols", "elem", "props", "identity")

    def __init__(self, rows: int, cols: int, elem: ElemKind, props: PropertySet,
                 identity: bool = False) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if props is not EMPTY_PROPS and rows != cols:
            raise ValueError("structured matrix types must be square")
        if identity and props is not DIAGONAL_PROPS:
            raise ValueError("an identity type must be square and diagonal")
        init = object.__setattr__
        init(self, "rows", rows)
        init(self, "cols", cols)
        init(self, "elem", elem)
        init(self, "props", props)
        init(self, "identity", identity)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a MatrixType is immutable")

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.elem, self.props, self.identity))

    def __str__(self) -> str:
        if self.identity:
            return f"identity<{self.rows}x{self.elem}>"
        return f"matrix<{self.rows}x{self.cols}x{self.elem},{self.props.render()}>"


# The one `MatrixType` with these fields, from a bounded LRU cache. A call
# that raised is not cached, so an invalid type raises on every call. A
# keyword is a different key: callers pass only `identity` by keyword.
matrix_type = functools.lru_cache(maxsize=4096)(MatrixType)


class TermType(Record):
    """The type of a value inside an equation's region; `TERM` is its one
    instance."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(())

    def __str__(self) -> str:
        return "term"


TERM = TermType()

ValueType = Union[MatrixType, TermType]


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------


class Init(Record):
    __slots__ = ("result",)

    def __init__(self, result: ValueId) -> None:
        self.result = result


class Fill(Record):
    __slots__ = ("value", "operand")

    def __init__(self, value: float, operand: ValueId) -> None:
        self.value = value
        self.operand = operand


class Mul(Record):
    __slots__ = ("result", "operands")

    def __init__(self, result: ValueId, operands: tuple[ValueId, ...]) -> None:
        self.result = result
        self.operands = operands


class Add(Record):
    __slots__ = ("result", "operands")

    def __init__(self, result: ValueId, operands: tuple[ValueId, ...]) -> None:
        self.result = result
        self.operands = operands


class Transpose(Record):
    __slots__ = ("result", "operand")

    def __init__(self, result: ValueId, operand: ValueId) -> None:
        self.result = result
        self.operand = operand


class Equation(Record):
    __slots__ = ("result", "region", "yielded", "declared_dims", "loc")
    _uncompared = ("loc",)

    def __init__(self, result: ValueId, region: tuple["IROp", ...], yielded: ValueId,
                 declared_dims: tuple[int, int] | None = None,
                 loc: fe.Loc | None = None) -> None:
        self.result = result
        # Compute ops, each after its operands. `yielded` is one of their
        # results, or for a bare copy (`C = A`) a value defined above.
        self.region = region
        self.yielded = yielded
        # Dims declared on the assignment target, checked after type resolution.
        self.declared_dims = declared_dims
        # The statement's `(line, col)`, for diagnostics.
        self.loc = loc


class Print(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: ValueId) -> None:
        self.operand = operand


IROp = Union[Init, Fill, Mul, Add, Transpose, Equation, Print]

_COMPUTE = (Mul, Add, Transpose)


def op_result(op: IROp) -> ValueId | None:
    return getattr(op, "result", None)


def op_operands(op: IROp) -> tuple[ValueId, ...]:
    if isinstance(op, (Mul, Add)):
        return op.operands
    if isinstance(op, (Transpose, Print, Fill)):
        return (op.operand,)
    return ()


class IRModule(Record):
    """Op sequence plus the value-id -> type symbol table."""

    __slots__ = ("ops", "types", "names")

    def __init__(self, ops: tuple[IROp, ...], types: dict[ValueId, ValueType],
                 names: dict[ValueId, str] | None = None) -> None:
        self.ops = ops
        self.types = types
        self.names = {} if names is None else names

    def walk(self) -> Iterator[tuple[tuple[int, ...], IROp]]:
        """Yield (path, op) for every op, descending into equation regions.
        perfbench's `counts_of` counts a module's IR ops through it."""
        for i, op in enumerate(self.ops):
            yield (i,), op
            if isinstance(op, Equation):
                for j, inner in enumerate(op.region):
                    yield (i, j), inner


class IRBuilder:
    """Appends ops; each new value's id is the symbol table's length."""

    def __init__(self) -> None:
        self.ops: list[IROp] = []
        self.types: dict[ValueId, ValueType] = {}
        self.names: dict[ValueId, str] = {}

    def new_value(self, t: ValueType, name: str | None = None) -> ValueId:
        v = len(self.types)
        self.types[v] = t
        if name is not None:
            self.names[v] = name
        return v

    def init(self, t: ValueType, name: str | None = None) -> ValueId:
        v = self.new_value(t, name)
        self.ops.append(Init(v))
        return v

    def module(self) -> IRModule:
        """The built module, which takes the tables: use the builder no more."""
        return IRModule(tuple(self.ops), self.types, self.names)


# --------------------------------------------------------------------------
# AST -> IR
# --------------------------------------------------------------------------


def _build_region(e: fe.Expr, env: dict[str | int, ValueId], new_value: Callable,
                  region: list[IROp]) -> ValueId:
    """The value of `e`, after appending its compute ops to `region`, each
    after its operands. A transpose takes its id before its operand's values."""
    if type(e) is str:
        return env[e]
    if isinstance(e, fe.IdentityLit):
        return env[id(e)]
    if isinstance(e, fe.Transpose):
        v = new_value(TERM)
        region.append(Transpose(v, _build_region(e.operand, env, new_value, region)))
        return v
    operands = tuple([_build_region(o, env, new_value, region) for o in e.operands])
    v = new_value(TERM)
    region.append(Mul(v, operands) if isinstance(e, fe.Mul) else Add(v, operands))
    return v


@pauses_collector
def build_ir(ast: fe.Ast) -> IRModule:
    """Lower an Ast: one init+fill per input, one equation per computed value.

    Declarations whose name is assigned are equation aliases and are not
    materialized; their declared dims are attached to the equation for a
    post-resolution cross-check. Inline `Identity(n)` literals hoist, in
    source order, to anonymous top-level init+fill values.
    """
    b = IRBuilder()
    assigned = {s.target for s in ast.stmts if isinstance(s, fe.Assign)}
    dims = {d.name: (d.rows, d.cols) for d in ast.decls
            if d.name in assigned and isinstance(d, fe.MatrixDecl)}
    # Values by name, and of hoisted identity literals by the literal's id().
    env: dict[str | int, ValueId] = {}

    for d in ast.decls:
        if d.name in assigned:
            continue
        if isinstance(d, fe.MatrixDecl):
            props = canonicalize(d.props, d.rows, d.cols)
            v = b.init(matrix_type(d.rows, d.cols, d.elem, props), d.name)
            b.ops.append(Fill(d.fill, v))
        else:
            v = b.init(matrix_type(d.order, d.order, d.elem, DIAGONAL_PROPS,
                                   identity=True), d.name)
            b.ops.append(Fill(1.0, v))
        env[d.name] = v
    for e in ast.idlits:
        v = env[id(e)] = b.init(matrix_type(e.order, e.order, ElemKind.F32,
                                            DIAGONAL_PROPS, identity=True))
        b.ops.append(Fill(1.0, v))

    new_value = b.new_value
    for s in ast.stmts:
        e = s.expr
        assign = isinstance(s, fe.Assign)
        if not assign and (type(e) is str or type(e) is fe.IdentityLit):
            b.ops.append(Print(env[e if type(e) is str else id(e)]))
            continue
        result = new_value(TERM)
        region: list[IROp] = []
        yielded = _build_region(e, env, new_value, region)
        b.ops.append(Equation(result, tuple(region), yielded,
                              dims.get(s.target) if assign else None, s.loc))
        if assign:
            env[s.target] = result
        else:
            b.ops.append(Print(result))
    return b.module()


# --------------------------------------------------------------------------
# Verifier
# --------------------------------------------------------------------------


def operand_type_error(op: Mul | Add, types: list[MatrixType]) -> str | None:
    """The operand rules of a product or sum, or None when `types` keep them:
    one element kind, then equal dims for a sum and agreeing consecutive
    inner dims for a product."""
    if any(t.elem is not types[0].elem for t in types):
        return "operands mix f32 and f64"
    if isinstance(op, Add):
        same = all((t.rows, t.cols) == (types[0].rows, types[0].cols) for t in types)
        return None if same else "addition operands must share dims"
    for a, b in zip(types, types[1:]):
        if a.cols != b.rows:
            return f"inner dims disagree, {a.cols} vs {b.rows}"
    return None


@pauses_collector
def verify(m: IRModule) -> list[CompileError]:
    """Structural checks; an empty list means the module is valid.

    Equation regions hold variadic term-typed compute ops; only their
    structure is checked here (operands defined above, one definition each,
    a term result, 2+ operands) and `equation_opt.resolve_types` checks
    their types. Top-level compute ops are the rematerialized binary form,
    with concrete types that must keep `operand_type_error`'s rules. A
    problem in an equation is located at its statement, if it has one;
    any other reads `op i.j: reason`.
    """
    errors: list[CompileError] = []
    defined: set[ValueId] = set()
    seen_defs: set[ValueId] = set()

    def out(path: tuple[int, ...], reason: str) -> None:
        loc = getattr(m.ops[path[0]], "loc", None)
        if loc is None:
            where = ".".join(str(i) for i in path)
            errors.append(CompileError(f"op {where}: {reason}"))
        else:
            errors.append(CompileError(reason, line=loc[0], col=loc[1]))

    def check_value(path: tuple[int, ...], v: ValueId) -> None:
        if v not in m.types:
            out(path, f"value %{v} missing from the symbol table")
        if v not in defined:
            out(path, f"operand %{v} used before definition")

    def check_result(path: tuple[int, ...], v: ValueId) -> None:
        if v in seen_defs:
            out(path, f"value %{v} defined more than once")
        seen_defs.add(v)
        defined.add(v)
        if v not in m.types:
            out(path, f"value %{v} missing from the symbol table")

    def check_compute(path: tuple[int, ...], op: IROp, top_level: bool) -> None:
        operands = op_operands(op)
        for o in operands:
            check_value(path, o)
        result = op_result(op)
        assert result is not None
        check_result(path, result)
        if isinstance(op, (Mul, Add)) and len(operands) < 2:
            out(path, "mul/add needs at least 2 operands")
        if not top_level:
            if not isinstance(m.types.get(result, TERM), TermType):
                out(path, "compute op inside an equation must produce a term")
            return
        types = [m.types.get(v) for v in operands]
        rt = m.types.get(result)
        if not all(isinstance(t, MatrixType) for t in (*types, rt)):
            out(path, "top-level compute op must have concrete types")
        elif isinstance(op, Transpose):
            if (rt.rows, rt.cols) != (types[0].cols, types[0].rows):
                out(path, "transpose result dims must be swapped operand dims")
        else:
            if len(operands) != 2:
                out(path, "top-level mul/add must be binary")
            reason = operand_type_error(op, types)
            if reason is not None:
                out(path, reason)

    inits: set[ValueId] = set()
    for i, op in enumerate(m.ops):
        path = (i,)
        if isinstance(op, Init):
            check_result(path, op.result)
            inits.add(op.result)
        elif isinstance(op, Fill):
            check_value(path, op.operand)
            if op.operand not in inits:
                out(path, "fill operand must be an init result")
        elif isinstance(op, Print):
            check_value(path, op.operand)
        elif isinstance(op, Equation):
            check_result(path, op.result)
            if not isinstance(m.types.get(op.result, TERM), TermType):
                out(path, "equation result must be a term")
            region_defined: set[ValueId] = set()
            for j, inner in enumerate(op.region):
                ipath = (i, j)
                if isinstance(inner, _COMPUTE):
                    check_compute(ipath, inner, top_level=False)
                    region_defined.add(op_result(inner))  # type: ignore[arg-type]
                else:
                    out(ipath, f"{type(inner).__name__.lower()} is not allowed "
                               "inside an equation region")
            check_value(path, op.yielded)
            defined.difference_update(region_defined)
        elif isinstance(op, _COMPUTE):
            check_compute(path, op, top_level=True)
    return errors


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------


def format_scalar(v: float) -> str:
    """Render a scalar with up to 6 significant digits; exact integers render
    without a fractional part and negative zero normalizes to 0."""
    f = float(v)
    if f == 0:
        return "0"
    if f.is_integer() and abs(f) < 1e18:
        return str(int(f))
    return f"{f:.6g}"


def _render(op: IROp, types: dict[ValueId, ValueType]) -> str:
    """The line of one op other than an equation."""
    if isinstance(op, Init):
        return f"%{op.result} = init : {types[op.result]}"
    if isinstance(op, Fill):
        return (f"fill %{op.operand}, {format_scalar(op.value)} : "
                f"{types[op.operand].elem}")
    if isinstance(op, (Mul, Add)):
        kind = "mul" if isinstance(op, Mul) else "add"
        ops = ", ".join([f"%{o}" for o in op.operands])
        return f"%{op.result} = {kind} {ops} : {types[op.result]}"
    if isinstance(op, Transpose):
        return f"%{op.result} = transpose %{op.operand} : {types[op.result]}"
    assert isinstance(op, Print)
    return f"print %{op.operand} : {types[op.operand]}"


def print_ir(m: IRModule) -> str:
    """Deterministic textual dump, one op per line, values named %0, %1, ..."""
    out: list[str] = []
    for op in m.ops:
        if isinstance(op, Equation):
            out += [f"%{op.result} = equation {{",
                    *[f"  {_render(inner, m.types)}" for inner in op.region],
                    f"  yield %{op.yielded}", f"}} : {m.types[op.result]}"]
        else:
            out.append(_render(op, m.types))
    return "\n".join(out) + "\n"
