"""The benchmark's tracer (`perfbench/tracing.py`) wraps momc functions by
module and attribute name. A renamed function would crash a traced run with
an AttributeError, so every name it lists must resolve to a callable; and a
name the compiler no longer calls would leave its layer silently at 0, so a
traced compile and run must reach every one of them."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import momc
from momc.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))
import tracing  # noqa: E402

# A declared and an inline identity, a transpose, a sum, a product of three
# operands once the identities are dropped, and a print.
PROGRAM = """\
n = 3
Matrix A(n, n) <LowerTriangular> = 2
Matrix B(n, n) <>
Identity I(n)
C = I * A * transpose(B) * Identity(n) * A + B
print(C)
"""


@pytest.mark.parametrize(
    "mod,attr", [(mod, attr) for mod, attr, _ in tracing.SPANS + tracing.COUNTED])
def test_traced_name_is_callable(mod, attr):
    assert callable(getattr(getattr(momc, mod), attr))


def traced_run(tmp_path, tracer, counting):
    prog = tmp_path / "traced.mom"
    prog.write_text(PROGRAM)
    tracer.install(counting)
    try:
        # Specialized mode: only its kernels read stored patterns.
        assert main([str(prog), "--run", "--mode=specialized"]) == 0
    finally:
        tracer.uninstall()
    return tracer.pass_layers()[0]


def load_bench_run():
    """perfbench/run.py as a module. Importing it sets the BLAS thread
    variables of this process's environment; they are put back as they were."""
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for var in set(os.environ) - set(saved):
            del os.environ[var]
        os.environ.update(saved)
    return module


def test_every_span_is_recorded():
    # The calls the benchmark makes, some of which the CLI does not.
    bench = load_bench_run()
    tracer = tracing.Tracer(momc)
    tracer.install(counting=False)
    try:
        bench.compile_and_run(momc, PROGRAM, momc.ExecMode.SPECIALIZED, bench.no_span)
    finally:
        tracer.uninstall()
    layers = tracer.pass_layers()[0]
    missing = [name for _, _, name in tracing.SPANS if not layers.get(name + ".n")]
    assert missing == []


# Lowering puts the stored patterns on the loop ops, so the executor derives
# none: it keeps the name `stored_pattern` for the tracer to wrap, and calls
# it nowhere. Its metric, which `chain` and `loops` feed too, stays above 0.
UNCALLED = {("executor", "stored_pattern")}


@pytest.mark.parametrize("entry", tracing.COUNTED, ids=lambda e: f"{e[0]}-{e[1]}")
def test_every_counted_name_is_called(tmp_path, capsys, monkeypatch, entry):
    # Several entries share a metric name, so each is installed on its own.
    monkeypatch.setattr(tracing, "COUNTED", (entry,))
    layers = traced_run(tmp_path, tracing.Tracer(momc), counting=True)
    assert (layers.get(entry[2], 0) > 0) is (entry[:2] not in UNCALLED)


@pytest.mark.parametrize("mode", list(momc.ExecMode), ids=lambda m: m.value)
def test_the_benchmark_reads_what_momc_returns(mode):
    """perfbench's `counts_of` reads these counts from what
    `compile_and_run` returns, `ir.ops` through `IRModule.walk`."""
    bench = load_bench_run()
    _, _, a = bench.compile_and_run(momc, PROGRAM, mode, bench.no_span)
    counts = bench.counts_of(a)
    ops = a["module"].ops
    regions = sum(len(op.region) for op in ops if isinstance(op, momc.ir.Equation))
    assert counts["ir.ops"] == len(ops) + regions
    assert counts["loops.ops"] == len(a["lm"].ops)
    assert counts["equation_opt.chains"] == 1
    if mode is momc.ExecMode.SPECIALIZED:
        assert counts["chain.optimal_cost"] == counts["mults"]
