"""The compile driver (`momc.pipeline.stages`): the same results as calling
the six stages directly, each stage reached only when the caller asks for
it, and every stage still wrapped by perfbench's tracer."""

import glob
import os
import random
import sys
from pathlib import Path

import pytest

import momc
from momc import equation_opt, frontend, ir, loops, pipeline
from momc.cli import main, render_chain_report
from momc.equation_opt import OptOptions
from momc.errors import CompileError

import gen

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

EXAMPLES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "examples",
                                         "*.mom")))
STAGES = ["tokenize", "parse", "build_ir", "verify", "optimize", "lower"]


def direct(text: str, scale: int, options: OptOptions) -> list[str]:
    """Each stage's result, printed, from calling the stages one by one."""
    tokens = frontend.tokenize(text)
    ast = frontend.parse(tokens, scale)
    module = ir.build_ir(ast)
    assert ir.verify(module) == []
    opt = equation_opt.optimize_and_rematerialize(module, options)
    lm = loops.lower_to_loops(opt.module)
    return printed(zip(STAGES, [tokens, ast, module, module, opt, lm]))


def printed(results) -> list[str]:
    show = {"tokenize": repr, "parse": frontend.pretty, "build_ir": ir.print_ir,
            "verify": ir.print_ir, "lower": loops.print_loops,
            "optimize": lambda opt: ir.print_ir(opt.module)
            + "".join(map(render_chain_report, opt.chains))}
    return [f"{stage}\n{show[stage](result)}" for stage, result in results]


def driven(text: str, scale: int, options: OptOptions) -> list[str]:
    results = []
    for stage, result, ns in pipeline.stages(text, scale, options):
        assert isinstance(ns, int) and ns >= 0
        results.append((stage, result))
    return printed(results)


def texts():
    for path in EXAMPLES:
        with open(path, encoding="utf-8") as f:
            yield os.path.basename(path), f.read()
    for seed in range(200):
        yield f"gen{seed}", gen.random_program(random.Random(seed))


@pytest.mark.parametrize("opt", [True, False], ids=["opt", "no-opt"])
def test_each_stage_prints_as_the_direct_calls_do(opt):
    options = OptOptions(simplify_identities=opt, reorder_chains=opt)
    assert len(EXAMPLES) >= 3
    for name, text in texts():
        for scale in (1, 4) if name.endswith(".mom") else (1,):
            want = direct(text, scale, options)
            assert driven(text, scale, options) == want, (name, scale)


def test_the_default_options_optimize():
    text = gen.random_program(random.Random(7))
    assert driven(text, 1, None) == direct(text, 1, OptOptions())


def test_stopping_at_verify_never_optimizes(monkeypatch):
    def refuse(*args):
        raise AssertionError("optimize_and_rematerialize was called")
    monkeypatch.setattr(equation_opt, "optimize_and_rematerialize", refuse)
    seen = []
    for stage, _, _ in pipeline.stages("Matrix A(2, 2) <>\nC = A * A\nprint(C)\n"):
        seen.append(stage)
        if stage == "verify":
            break
    assert seen == STAGES[:4]


def test_verify_raises_its_first_diagnostic(monkeypatch):
    first, second = CompileError("first"), CompileError("second")
    monkeypatch.setattr(ir, "verify", lambda module: [first, second])
    seen = []
    with pytest.raises(CompileError) as exc:
        for stage, _, _ in pipeline.stages("Matrix A(2, 2) <>\n"):
            seen.append(stage)
    assert exc.value is first
    assert seen == STAGES[:3]


def test_the_tracer_sees_every_stage_of_a_cli_run(tmp_path, capsys):
    prog = tmp_path / "traced.mom"
    prog.write_text("Matrix A(3, 3) <LowerTriangular>\nC = A * A * A\nprint(C)\n")
    tracer = tracing.Tracer(momc)
    tracer.install(counting=False)
    try:
        assert main([str(prog), "--run"]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.pass_layers()[0]
    spans = ["frontend.tokenize", "frontend.parse", "ir.build", "ir.verify",
             "equation_opt.optimize", "loops.lower"]
    assert [layers.get(name + ".n") for name in spans] == [1] * 6
