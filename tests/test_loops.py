"""Lowering to the loop-level IR and its textual dump."""

import gc
import os
import random
import re

import pytest

from momc import equation_opt, frontend, ir, loops, record
from momc.cli import render_chain_report
from momc.equation_opt import OptOptions
from momc.errors import CompileError, LexError, ParseError, UnresolvedTerm
from momc.properties import Property, PropertySet, StoredPattern

from gen import default_seed, random_program
from util import compile_text, load_programs, lower_text, optimize_text

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


def _workload_programs():
    """The timed programs of perfbench's three workloads at seed 1."""
    programs = load_programs()
    return [p.text for workload in ("chain-dp", "kernels", "many-stmts")
            for p in programs.generate(workload, 1)[1] if p.timed]


def test_a_compile_leaves_no_cyclic_garbage():
    """No pass makes a reference cycle, so reference counts free a dropped
    compile's tokens, modules and loop IR without the cyclic collector:
    the examples, generated programs and perfbench's workloads, optimized
    in full, without identity elimination and without chain reordering.
    Each stage runs with the collector paused (`record.pauses_collector`),
    so a cycle one made would wait for a later collection; this keeps that
    at none."""
    texts = _examples_and_generated_programs() + _workload_programs()
    variants = [OptOptions(), OptOptions(simplify_identities=False),
                OptOptions(reorder_chains=False)]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            tokens = frontend.tokenize(text)
            module = ir.build_ir(frontend.parse(tokens))
            assert not ir.verify(module)
            for options in variants:
                opt = equation_opt.optimize_and_rematerialize(module, options)
                lowered = loops.lower_to_loops(opt.module)
                del opt, lowered
            del tokens, module
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


LEX_ERROR = "Matrix A(2, 2) <>\nB = A $ A\n"
PARSE_ERROR = "Matrix A(2, 2) <>\nB = A * \n"
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
    the lexer, the parser and `build_ir` make none: each failing program, a
    lex error, a parse error and an Ast naming a matrix it never declared
    leave nothing for the cyclic collector."""
    unknown = _undeclared_name_ast()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            with pytest.raises(LexError):
                frontend.tokenize(LEX_ERROR)
            with pytest.raises(ParseError):
                frontend.parse(frontend.tokenize(PARSE_ERROR))
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


# 1,002 statements: two declarations and 500 assignments, each printed.
LONG_PROGRAM = ("Matrix A(6, 6) <LowerTriangular>\nMatrix B(6, 4) <>\n"
                + "".join(f"C{i} = A * A * B + B\nprint(C{i})\n" for i in range(500)))
STAGES = ["tokenize", "parse", "build_ir", "verify", "optimize", "lower"]
# Young objects short of the threshold when a stage is called: more than a
# call allocates before the stage turns the collector off, and fewer than
# any stage keeps of what it makes from LONG_PROGRAM.
SLACK = 4


def _stage_call(stage: str, text: str):
    """(stage function, its arguments) for `stage` on text, each stage fed
    what the one before it returned."""
    tokens = frontend.tokenize(text)
    ast = frontend.parse(tokens)
    module = ir.build_ir(ast)
    if stage == "lower":
        return loops.lower_to_loops, (equation_opt.optimize_and_rematerialize(module).module,)
    return {"tokenize": (frontend.tokenize, (text,)),
            "parse": (frontend.parse, (tokens,)),
            "build_ir": (ir.build_ir, (ast,)),
            "verify": (ir.verify, (module,)),
            "optimize": (equation_opt.optimize_and_rematerialize, (module,))}[stage]


def _young_left_by(fn, args) -> int:
    """How many young objects fn(*args) leaves, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        result = fn(*args)  # noqa: F841 (kept alive to be counted)
        return gc.get_count()[0] - before
    finally:
        gc.enable()


def _collections_around(fn, args, enabled: bool):
    """Call fn(*args) with the collector on or off and the young generation
    SLACK objects short of its threshold. Return the generations collected
    during the call, whether the collector is on after it, and the young
    count after it."""
    generations = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.disable()
    ballast = []
    while gc.get_count()[0] < gc.get_threshold()[0] - SLACK:
        ballast.append([])
    gc.callbacks.append(on_gc)
    try:
        if enabled:
            gc.enable()
        result = fn(*args)  # noqa: F841 (kept alive to be counted)
        on = gc.isenabled()
        gc.disable()
        return generations, on, gc.get_count()[0]
    finally:
        gc.callbacks.remove(on_gc)
        gc.enable()


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_pauses_the_collector(stage):
    """Each compile stage is wrapped by `record.pauses_collector`, and
    nothing else in the compile is: `execute`, the dumps and the chain
    solver run as they are."""
    fn, _ = _stage_call(stage, LISTING)
    assert fn.__wrapped__.__name__ == fn.__name__
    assert fn.__code__ is record.pauses_collector(len).__code__
    paused = {name for mod in (frontend, ir, equation_opt, loops)
              for name, f in vars(mod).items()
              if getattr(f, "__code__", None) is fn.__code__}
    assert paused == {"tokenize", "parse", "build_ir", "verify",
                      "optimize_and_rematerialize", "lower_to_loops"}


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_collects_once_at_most_and_at_its_exit(stage):
    """With the collector on, a stage on a program of over 1,000 statements
    sees one collection at most, of generation 0, and leaves the young
    generation within its threshold: it collects at its exit what it would
    have collected inside, and no older generation. Unpaused, tokenize
    alone would see about ten collections here."""
    fn, args = _stage_call(stage, LONG_PROGRAM)
    assert _young_left_by(fn.__wrapped__, args) > SLACK
    generations, on, young = _collections_around(fn, args, enabled=True)
    assert on
    assert generations in ([], [0])
    assert young <= gc.get_threshold()[0]


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_leaves_an_off_collector_off(stage):
    """A caller that turned the collector off keeps it off through a stage,
    which collects nothing, though it leaves the young generation past its
    threshold."""
    fn, args = _stage_call(stage, LONG_PROGRAM)
    generations, on, young = _collections_around(fn, args, enabled=False)
    assert not on
    assert generations == []
    assert young > gc.get_threshold()[0]


def _undeclared_name_ast() -> frontend.Ast:
    ast = frontend.parse_source("Matrix A(2, 2) <>\nC = A * A\nprint(C)\n")
    ast.stmts[0].expr.operands = ("A", "Z")
    return ast


RAISING_STAGES = {
    "tokenize": (lambda: frontend.tokenize(LEX_ERROR), LexError),
    "parse": (lambda: frontend.parse(frontend.tokenize(PARSE_ERROR)), ParseError),
    "build_ir": (lambda: ir.build_ir(_undeclared_name_ast()), KeyError),
    **{f"optimize-{i}": (lambda text=text: equation_opt.optimize_and_rematerialize(
        ir.build_ir(frontend.parse_source(text))), CompileError)
       for i, text in enumerate(FAILING_OPTIMIZATIONS)},
}


@pytest.mark.parametrize("case", RAISING_STAGES)
def test_a_stage_that_raises_turns_the_collector_on_again(case):
    """The collector is on again after a stage raises: a lex error, a parse
    error, an undeclared name in a hand-edited Ast, and each failing
    optimization."""
    call, error = RAISING_STAGES[case]
    assert gc.isenabled()
    with pytest.raises(error):
        call()
    assert gc.isenabled()
