"""Lowering to the loop-level IR and its textual dump."""

import gc
import os
import random
import re

import pytest

from momc import equation_opt, frontend, ir, loops
from momc.cli import render_chain_report
from momc.errors import CompileError, UnresolvedTerm
from momc.properties import Property, PropertySet, StoredPattern

from gen import default_seed, random_program
from util import compile_text, lower_text, optimize_text

LOWER = PropertySet.closure((Property.LOWER_TRIANGULAR,))

LISTING = """\
n = 5
m = 5
Matrix A(n, m) <LowerTriangular>
Matrix B(n, m) <LowerTriangular>
Matrix C(n, m) <>
C = A * B
print(C)
"""

LISTING_LOOPS = """\
%0 = alloc : 5x5xf32
fill %0, 1 : pattern=lowerIncl
%1 = alloc : 5x5xf32
fill %1, 1 : pattern=lowerIncl
%2 = alloc : 5x5xf32
matmul %0[lowerTri], %1[lowerTri] -> %2[lowerTri] : 5x5xf32
print %2
"""


def test_lower_listing_structure():
    lm = lower_text(LISTING)
    kinds = [type(op) for op in lm.ops]
    assert kinds == [loops.Alloc, loops.Fill, loops.Alloc, loops.Fill,
                     loops.Alloc, loops.MatMul, loops.Print]
    mm = lm.ops[5]
    assert lm.tensors[mm.a].props == LOWER and lm.tensors[mm.b].props == LOWER
    assert lm.tensors[mm.out].props == LOWER


def test_print_loops_matches_golden():
    assert loops.print_loops(lower_text(LISTING)) == LISTING_LOOPS


def test_fill_patterns_follow_properties():
    lm = lower_text("n = 3\nMatrix A(n, n) <UpperTriangular>\n"
                    "Matrix D(n, n) <Diagonal>\nMatrix F(n, 2) <>\nprint(A)\n")
    fills = [op for op in lm.ops if isinstance(op, loops.Fill)]
    assert [f.pattern for f in fills] == [StoredPattern.UPPER_INCL,
                                          StoredPattern.DIAG_ONLY,
                                          StoredPattern.FULL]


def test_fill_only_program_has_no_compute_ops():
    lm = lower_text("Matrix A(2, 3) <> = 2.5\nprint(A)\n")
    assert [type(op) for op in lm.ops] == [loops.Alloc, loops.Fill, loops.Print]


def test_surviving_identity_materializes_diagonal_fill():
    lm = lower_text("n = 3\nIdentity I(n)\nprint(I)\n")
    fills = [op for op in lm.ops if isinstance(op, loops.Fill)]
    assert fills[0].value == 1.0 and fills[0].pattern is StoredPattern.DIAG_ONLY
    assert not any(isinstance(op, loops.MatMul) for op in lm.ops)
    assert "fill %0, 1 : pattern=diagOnly" in loops.print_loops(lm)


def test_transpose_and_add_lowering():
    lm = lower_text("n = 3\nMatrix A(n, n) <LowerTriangular>\n"
                    "B = transpose(A) + A\nprint(B)\n")
    kinds = [type(op) for op in lm.ops]
    assert kinds == [loops.Alloc, loops.Fill, loops.Alloc,
                     loops.Alloc, loops.Add, loops.Print]
    assert lm.ops[2] == loops.Alloc(1, source=0)
    text = loops.print_loops(lm)
    assert "%1 = transpose %0 : 3x3xf32" in text
    assert "alloc : 3x3xf32\n%1" not in text
    assert "add %1, %0 -> %2 : 3x3xf32" in text


def test_lowering_rejects_unresolved_modules():
    module = compile_text(LISTING)  # still has term-typed equation values
    with pytest.raises(UnresolvedTerm):
        loops.lower_to_loops(module)
    t = module.types[0]
    concrete = ir.IRModule((ir.Init(0), ir.Equation(1, (), 0)), {0: t, 1: t})
    with pytest.raises(UnresolvedTerm, match="Equation cannot be lowered"):
        loops.lower_to_loops(concrete)


def test_one_to_one_mapping_and_print_order():
    text = ("n = 4\nMatrix A(n, n) <>\nMatrix B(n, n) <>\n"
            "C = A * B\nD = transpose(A) + B\nprint(C)\nprint(D)\nprint(A)\n")
    res = optimize_text(text)
    lm = loops.lower_to_loops(res.module)
    ir_compute = [op for op in res.module.ops
                  if isinstance(op, (ir.Mul, ir.Add))]
    lm_compute = [op for op in lm.ops if isinstance(op, (loops.MatMul, loops.Add))]
    assert len(ir_compute) == len(lm_compute)
    # A transpose lowers to a view of its operand, not to a compute op.
    ir_transposes = [op for op in res.module.ops if isinstance(op, ir.Transpose)]
    views = [op for op in lm.ops
             if isinstance(op, loops.Alloc) and op.source is not None]
    assert len(ir_transposes) == len(views) == 1
    produced = [op for op in res.module.ops
                if ir.op_result(op) is not None]
    allocs = [op for op in lm.ops if isinstance(op, loops.Alloc)]
    assert len(allocs) == len(produced)
    ir_prints = [op for op in res.module.ops if isinstance(op, ir.Print)]
    lm_prints = [op for op in lm.ops if isinstance(op, loops.Print)]
    assert len(ir_prints) == len(lm_prints) == 3


def test_annotations_match_resolved_types():
    res = optimize_text("n = 4\nMatrix A(n, n) <LowerTriangular>\n"
                        "B = transpose(A)\nC = A * A\nprint(B)\nprint(C)\n")
    lm = loops.lower_to_loops(res.module)
    for v, t in res.module.types.items():
        assert lm.tensors[v].props == t.props


def test_tensor_table_holds_the_ir_type_objects():
    """Lowering stores each value's type once: the tensor table's entries are
    the very objects of the optimized module's symbol table."""
    rng = random.Random(default_seed() ^ 0x3D)
    for _ in range(100):
        text = random_program(rng, max_dim=8)
        for opt in (True, False):
            res = optimize_text(text, opt)
            lm = loops.lower_to_loops(res.module)
            values = [ir.op_result(op) for op in res.module.ops
                      if ir.op_result(op) is not None]
            assert len(values) == len(lm.tensors)
            for v in values:
                assert lm.tensors[v] is res.module.types[v]


def _ir_defs(dump):
    """%k -> "RxCxE" for each value an `--emit=ir-opt` dump defines."""
    defs = {}
    for k, t in re.findall(r"^%(\d+) = [^:]*: (\S+)$", dump, re.M):
        ident = re.fullmatch(r"identity<(\d+)x(\w+)>", t)
        defs[int(k)] = (f"{ident[1]}x{ident[1]}x{ident[2]}" if ident
                        else re.fullmatch(r"matrix<(\w+),.*>", t)[1])
    return defs


def test_loop_dump_ids_are_the_ir_opt_ids():
    """Each `%k` of a loop dump is the value `%k` of the optimized IR dump,
    with its dims and element kind, and a view's source is allocated above
    the view."""
    rng = random.Random(default_seed() ^ 0x3E)
    for _ in range(150):
        text = random_program(rng, max_dim=8)
        for opt in (True, False):
            module = optimize_text(text, opt).module
            lm = loops.lower_to_loops(module)
            loop_defs = re.findall(r"^%(\d+) = (?:alloc|transpose %\d+) : (\S+)$",
                                   loops.print_loops(lm), re.M)
            assert {int(k): t for k, t in loop_defs} == _ir_defs(ir.print_ir(module))
            allocated = set()
            for op in lm.ops:
                if isinstance(op, loops.Alloc):
                    assert op.source is None or op.source in allocated
                    allocated.add(op.tensor)


def _examples_and_generated_programs():
    examples = os.path.join(os.path.dirname(__file__), "..", "examples")
    texts = []
    for name in sorted(os.listdir(examples)):
        with open(os.path.join(examples, name)) as f:
            texts.append(f.read())
    rng = random.Random(default_seed() ^ 0x8B)
    return texts + [random_program(rng) for _ in range(30)]


def test_a_compile_leaves_no_cyclic_garbage():
    """No pass makes a reference cycle, so reference counts free a dropped
    compile's tokens, modules and loop IR without the cyclic collector."""
    texts = _examples_and_generated_programs()
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            tokens = frontend.tokenize(text)
            module = ir.build_ir(frontend.parse(tokens))
            assert not ir.verify(module)
            opt = equation_opt.optimize_and_rematerialize(module)
            lowered = loops.lower_to_loops(opt.module)
            del tokens, module, opt, lowered
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_dumps_leave_no_cyclic_garbage():
    """Nor does any `--emit` dump: the Ast, the module before and after
    optimization, the chain reports and the loop IR."""
    texts = _examples_and_generated_programs()
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            ast = frontend.parse_source(text)
            module = ir.build_ir(ast)
            opt = equation_opt.optimize_and_rematerialize(module)
            lowered = loops.lower_to_loops(opt.module)
            dumps = [frontend.pretty(ast), ir.print_ir(module),
                     ir.print_ir(opt.module), loops.print_loops(lowered),
                     *map(render_chain_report, opt.chains)]
            del ast, module, opt, lowered, dumps
        assert gc.collect() == 0
    finally:
        gc.enable()


FAILING_OPTIMIZATIONS = [
    # A sum of 3x3s times a 4x4 identity.
    "Matrix A(3, 3) <>\nB = (A + A) * Identity(4)\n",
    # A result declared 2x2 is 3x3, after a product was emitted.
    "Matrix A(3, 3) <>\nC = A * A * A\nprint(C)\nMatrix B(2, 2) <>\nB = A * C\n",
    # An f32 product with an f64 operand, after a sum was emitted.
    "Matrix A(2, 2) <>\nMatrix D(2, 2) <> : f64\nC = A + A\nE = C * D\n",
]


def test_a_failed_compile_leaves_no_cyclic_garbage():
    """The optimizer's closures break their cycles when they raise too, and
    `build_ir` makes none: each failing program, and an Ast naming a matrix
    it never declared, leaves nothing for the cyclic collector."""
    unknown = frontend.parse(frontend.tokenize(
        "Matrix A(2, 2) <>\nC = A * A\nprint(C)\n"))
    unknown.stmts[0].expr.operands[1].name = "Z"
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for text in FAILING_OPTIMIZATIONS:
                module = ir.build_ir(frontend.parse(frontend.tokenize(text)))
                assert not ir.verify(module)
                with pytest.raises(CompileError):
                    equation_opt.optimize_and_rematerialize(module)
                del module
            with pytest.raises(KeyError, match="'Z'"):
                ir.build_ir(unknown)
        assert gc.collect() == 0
    finally:
        gc.enable()
