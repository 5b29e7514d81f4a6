"""Acceptance suite: every headline criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Tolerances
are zero wherever arithmetic is exact (integer counts, bitwise output
comparisons); the only machine-dependent quantities are wall-clock bounds.
"""

import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from momc import frontend, ir, loops
from momc.chain import optimal_parenthesization, tree_cost
from momc.cli import bench, main
from momc.executor import ExecMode, Executor
from momc.properties import EMPTY_PROPS, Property, PropertySet, stored_pattern

from chain_reference import cost_oracle, enumerate_parenthesizations, mul_cost
from gen import default_seed, random_chain, random_program
from util import compile_text, lower_text, optimize_text, pattern_contains, run_text

ROOT = os.path.join(os.path.dirname(__file__), "..")
EXAMPLES = os.path.join(ROOT, "examples")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CHAIN4 = os.path.join(EXAMPLES, "chain4.mom")
LISTING1 = os.path.join(EXAMPLES, "listing1.mom")

BASELINE_COST = 1_752_000_000
OPTIMAL_COST = 295_000_000


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {n}: {desc}")
                raise
            print(f"\nPASS criterion {n}: {desc}")
        return wrapper
    return deco


@criterion(1, "chain-of-4 reordering: exact costs, ratio, measured speedup")
def test_chain_reordering_reproduction(capsys):
    # Exact parenthesization and predicted costs from the compiled program.
    assert main([CHAIN4, "--emit=chain"]) == 0
    out = capsys.readouterr().out
    assert "optimal: (A1*(A2*(A3*A4))) cost 295000000" in out
    assert "baseline: (((A1*A2)*A3)*A4) cost 1752000000" in out

    # Full-scale dense benchmark: exact counts, measured speedup > 1.0,
    # and the whole run stays under five minutes.
    text = open(CHAIN4, encoding="utf-8").read()
    ast = frontend.parse_source(text)
    module = ir.build_ir(ast)
    t0 = time.monotonic()
    report = bench(module, ExecMode.DENSE, 5)
    elapsed = time.monotonic() - t0
    assert report.baseline_mults == BASELINE_COST
    assert report.optimized_mults == OPTIMAL_COST
    assert report.mult_ratio == Fraction(BASELINE_COST, OPTIMAL_COST)
    assert report.mult_ratio == Fraction(1752, 295)
    assert f"{float(report.mult_ratio):.4f}" == "5.9390"
    assert report.speedup > 1.0
    assert elapsed < 300

    # Scaled-down CLI run finishes in seconds.
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "momc", CHAIN4, "--bench", "--scale=4"],
        capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0
    assert "mult ratio: 1752/295 = 5.9390" in proc.stdout
    assert elapsed < 10


@criterion(2, "DP cost equals the exhaustive minimum on 200 random chains")
def test_dp_vs_enumeration_oracle():
    rng = random.Random(default_seed())
    for _ in range(200):
        chain = random_chain(rng, min_len=2, max_len=8, max_dim=50)
        sol = optimal_parenthesization(chain)
        best = min(cost for _, cost in enumerate_parenthesizations(chain))
        assert sol.total_cost == best
        assert tree_cost(sol.tree, chain) == sol.total_cost


@criterion(3, "closed-form costs equal the triple-count oracle, dims <= 16")
def test_cost_model_soundness():
    lower = PropertySet.closure((Property.LOWER_TRIANGULAR,))
    upper = PropertySet.closure((Property.UPPER_TRIANGULAR,))
    diag = PropertySet.closure((Property.DIAGONAL,))
    classes = [EMPTY_PROPS, lower, upper, diag]
    checked = 0
    for pa, pb in product(classes, repeat=2):
        for m in range(1, 17):
            for k in range(1, 17):
                if pa is not EMPTY_PROPS and m != k:
                    continue
                for n in range(1, 17):
                    if pb is not EMPTY_PROPS and n != k:
                        continue
                    a = (m, k, pa)
                    b = (k, n, pb)
                    assert mul_cost(a, b) == cost_oracle(a, b)
                    checked += 1
    assert checked > 4096  # all 16 ordered pairs were exercised
    assert mul_cost((5, 5, lower), (5, 5, lower)) == 35


@criterion(4, "identity simplification: A*I prints as A; I*I has no matmul")
def test_identity_simplification():
    base = "n = 4\nMatrix A(n, n) <LowerTriangular> = 3\nIdentity I(n)\n"
    via_identity = run_text(base + "C = A * I\nprint(C)\n")
    direct = run_text(base + "print(A)\n")
    assert via_identity.printed == direct.printed  # bit-identical text

    lm = lower_text(base + "D = I * I\nprint(D)\n")
    assert not any(isinstance(op, loops.MatMul) for op in lm.ops)
    res = optimize_text(base + "D = I * I\nprint(D)\n")
    printed = [op for op in res.module.ops if isinstance(op, ir.Print)]
    assert res.module.types[printed[-1].operand].identity


@criterion(5, "property inference visible in the ir-opt dump")
def test_property_inference(capsys):
    lower_a = "n = 5\nMatrix A(n, n) <LowerTriangular>\n"
    res = optimize_text(lower_a + "print(transpose(A))\n")
    dump = ir.print_ir(res.module)
    assert "[upperTri]" in dump

    res = optimize_text(lower_a + "Matrix B(n, n) <LowerTriangular>\n"
                        "C = A * B\nprint(C)\n")
    dump = ir.print_ir(res.module)
    assert "= mul %0, %1 : matrix<5x5xf32,[lowerTri]>" in dump


@criterion(6, "dense and specialized modes agree bitwise; zeros stay structural "
              "and symmetric buffers symmetric")
def test_mode_equivalence_and_zero_soundness():
    rng = random.Random(default_seed() ^ 0xA3)
    for _ in range(100):
        text = random_program(rng, max_dim=12)
        lm = lower_text(text)
        dense = Executor(lm)
        dense_report = dense.run(ExecMode.DENSE, repeats=1)
        spec = Executor(lm)
        spec_report = spec.run(ExecMode.SPECIALIZED, repeats=1)
        assert dense_report.printed == spec_report.printed
        for ex in (dense, spec):
            for tid, buf in ex.buffers.items():
                props = lm.tensors[tid].props
                pat = stored_pattern(props)
                for i in range(buf.shape[0]):
                    for j in range(buf.shape[1]):
                        if not pattern_contains(pat, i, j):
                            assert buf[i, j] == 0
                if Property.SYMMETRIC in props:
                    assert (buf == buf.T).all()
        for tid, buf in zip(sorted(dense.buffers), sorted(spec.buffers)):
            assert dense.buffers[tid].tobytes() == spec.buffers[tid].tobytes()


@criterion(7, "optimization preserves semantics bit-exactly on random programs")
def test_optimizer_semantic_preservation():
    rng = random.Random(default_seed() ^ 0xB4)
    for _ in range(100):
        text = random_program(rng, max_dim=8)
        optimized = run_text(text, opt=True)
        baseline = run_text(text, opt=False)
        assert optimized.printed == baseline.printed


@criterion(8, "golden ir and loops dumps for the triangular product program")
def test_golden_dumps(capsys):
    for emit, golden in (("ir", "listing1_ir.txt"),
                         ("ir-opt", "listing1_ir_opt.txt"),
                         ("loops", "listing1_loops.txt")):
        assert main([LISTING1, f"--emit={emit}"]) == 0
        out = capsys.readouterr().out
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as f:
            assert out == f.read()

    # Structural shape: two init/fill pairs, one equation with one variadic
    # mul, annotations preserved through lowering.
    module = compile_text(open(LISTING1, encoding="utf-8").read())
    kinds = [type(op) for op in module.ops]
    assert kinds == [ir.Init, ir.Fill, ir.Init, ir.Fill, ir.Equation, ir.Print]
    lm = lower_text(open(LISTING1, encoding="utf-8").read())
    matmuls = [op for op in lm.ops if isinstance(op, loops.MatMul)]
    assert len(matmuls) == 1
    lower = PropertySet.closure((Property.LOWER_TRIANGULAR,))
    assert lm.tensors[matmuls[0].a].props == lower
    assert lm.tensors[matmuls[0].b].props == lower
    assert lm.tensors[matmuls[0].out].props == lower


@pytest.mark.parametrize("program", [LISTING1, CHAIN4])
@pytest.mark.parametrize("emit", ["ast", "chain"])
def test_golden_ast_and_chain_dumps(capsys, program, emit):
    assert main([program, f"--emit={emit}"]) == 0
    name = os.path.basename(program).removesuffix(".mom")
    with open(os.path.join(GOLDEN, f"{name}_{emit}.txt"), encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()


@pytest.mark.parametrize("emit", ["ir", "ir-opt", "loops", "chain"])
def test_golden_dumps_of_every_property_set(capsys, emit):
    # One input of each structure and an identity: every rendering of the
    # five property sets and every stored pattern appears in these dumps.
    assert main([os.path.join(GOLDEN, "structures.mom"), f"--emit={emit}"]) == 0
    golden = os.path.join(GOLDEN, f"structures_{emit.replace('-', '_')}.txt")
    with open(golden, encoding="utf-8") as f:
        assert capsys.readouterr().out == f.read()
