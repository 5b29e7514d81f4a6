"""Pipeline helpers shared by the tests."""

from __future__ import annotations

from momc import equation_opt, executor, frontend, ir, loops
from momc.equation_opt import OptOptions
from momc.properties import StoredPattern


def pattern_contains(pattern: StoredPattern, i: int, j: int) -> bool:
    """Whether entry (i, j) lies in the stored region of a pattern."""
    if pattern is StoredPattern.FULL:
        return True
    if pattern is StoredPattern.LOWER_INCL:
        return i >= j
    if pattern is StoredPattern.UPPER_INCL:
        return i <= j
    return i == j


def compile_text(text: str) -> ir.IRModule:
    ast = frontend.parse_source(text)
    module = ir.build_ir(ast)
    diags = ir.verify(module)
    assert not diags, [str(d) for d in diags]
    return module


def optimize_text(text: str, opt: bool = True) -> equation_opt.OptResult:
    module = compile_text(text)
    options = OptOptions(simplify_identities=opt, reorder_chains=opt)
    return equation_opt.optimize_and_rematerialize(module, options)


def lower_text(text: str, opt: bool = True) -> loops.LoopModule:
    return loops.lower_to_loops(optimize_text(text, opt).module)


def run_text(text: str, mode: executor.ExecMode = executor.ExecMode.DENSE,
             opt: bool = True, repeats: int = 1) -> executor.ExecutionReport:
    return executor.execute(lower_text(text, opt), mode, repeats)
