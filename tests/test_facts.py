"""Facts at lowering: the interval rules, and their soundness; the counts.

`loops.lower_to_loops` gives every tensor an integer interval or unknown
facts, every product `exact` or not and its count of stored mults, and
every print its tensor's interval. The executor trusts them: an `exact`
product of any size goes to BLAS, a print with an interval formats integers
unchecked, and a run reports each product's count unchecked. So each fact
is checked here against the run itself: `exact` against the run-time proof
it replaced (`oracle.is_exact_product`) on the operands' buffers, each
interval against every entry of its tensor's buffer, and each count against
the span sum the executor once ran (`oracle.stored_mults`).
"""

import ast
import inspect
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from momc import chain, executor, ir, loops
from momc.errors import NonFiniteValue
from momc.executor import ExecMode, Executor
from momc.properties import ElemKind

from gen import default_seed, random_program
from oracle import all_integral, is_exact_product, stored_mults
from util import load_programs, op_result, optimize_text

ROOT = Path(__file__).resolve().parent.parent
F32_EXACT, F64_EXACT = 2 ** 24, 2 ** 53


def every_tensor_printed(m: ir.IRModule) -> ir.IRModule:
    """m with a print of every value it defines appended, so that lowering
    puts each tensor's interval on a print."""
    defined = [v for op in m.ops if (v := op_result(op)) is not None]
    return ir.IRModule(m.ops + tuple(ir.Print(v) for v in defined), m.types)


def check_facts(lm: loops.LoopModule, ex: Executor) -> tuple[int, int]:
    """Assert every fact of lm against the buffers ex's run left, and every
    product's count against the oracle's; return the numbers of exact
    products and of known intervals checked."""
    exact = known = 0
    for op in lm.ops:
        if isinstance(op, loops.MatMul):
            ta, tb = lm.tensors[op.a], lm.tensors[op.b]
            assert op.mults == stored_mults(op.pa, op.pb, ta.rows, ta.cols, tb.cols), (
                loops.format_op(lm, op), op.mults)
            if op.exact:
                a, b = ex.buffers[op.a], ex.buffers[op.b]
                assert is_exact_product(a, b), loops.format_op(lm, op)
                exact += 1
        elif isinstance(op, loops.Print) and op.interval is not None:
            lo, hi = op.interval
            limit = F32_EXACT if lm.tensors[op.tensor].elem is ElemKind.F32 else F64_EXACT
            assert -limit <= lo <= hi <= limit
            b = ex.buffers[op.tensor]
            assert all_integral(b), loops.format_op(lm, op)
            assert lo <= float(b.min()) and float(b.max()) <= hi, (
                loops.format_op(lm, op), lo, hi, float(b.min()), float(b.max()))
            known += 1
    return exact, known


def products(lm: loops.LoopModule) -> dict[int, loops.MatMul]:
    """lm's products by op index, the keys of a report's mults."""
    return {idx: op for idx, op in enumerate(lm.ops) if isinstance(op, loops.MatMul)}


def run_checked(monkeypatch, m: ir.IRModule) -> tuple[int, int]:
    """Lower m with every tensor printed, run it once in specialized mode,
    and check its facts, and that the run reports each product's count as
    lowering gives it. Prints are not formatted: only the buffers count."""
    lm = loops.lower_to_loops(every_tensor_printed(m))
    ex = Executor(lm)
    with monkeypatch.context() as p:
        p.setattr(executor, "format_print", lambda *args: "")
        report = ex.run(ExecMode.SPECIALIZED, repeats=1)
    assert report.mults == {idx: op.mults for idx, op in products(lm).items()}
    return check_facts(lm, ex)


# Fill values in place of a generated program's: signs, fractions, a -0.0,
# and 2**24 + 1, which f32 rounds to 2**24.
SIGNED_FILLS = [-4.0, -3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 0.5,
                -2.5, 16777217.0]


def test_facts_hold_on_generated_programs(monkeypatch):
    """1,500 generated programs, every second one with its fills drawn from
    SIGNED_FILLS (the grammar has no negative fill), run in specialized mode:
    every exact product passes the oracle on its operands' buffers, and
    every known interval holds every entry of its buffer."""
    rng = random.Random(default_seed() ^ 0xFAC7)
    exact = known = 0
    for n in range(1500):
        m = optimize_text(random_program(rng)).module
        if n % 2:
            for op in m.ops:
                if isinstance(op, ir.Fill):
                    op.value = rng.choice(SIGNED_FILLS)
        try:
            e, k = run_checked(monkeypatch, m)
        except NonFiniteValue:
            continue  # a signed fill overflowed f32; that run has no buffers
        exact += e
        known += k
    assert exact > 1000 and known > 5000, (exact, known)


@pytest.mark.parametrize("workload", ["chain-dp", "kernels", "many-stmts"])
def test_facts_hold_on_the_benchmark_workloads(monkeypatch, workload):
    """Every timed and untimed program of a perfbench workload at seeds 1-3,
    in specialized mode."""
    programs = load_programs()
    for seed in (1, 2, 3):
        _, progs = programs.generate(workload, seed)
        for p in progs:
            run_checked(monkeypatch, optimize_text(p.text).module)


def test_dense_runs_count_the_whole_rectangle():
    """In dense mode the report gives each product rows * inner * cols,
    whatever lowering's count of its stored mults: 300 generated programs,
    whose structured products count fewer in specialized mode."""
    rng = random.Random(default_seed() ^ 0xDE)
    fewer = 0
    for _ in range(300):
        lm = loops.lower_to_loops(optimize_text(random_program(rng)).module)
        report = Executor(lm).run(ExecMode.DENSE, repeats=1)
        whole = {idx: lm.tensors[op.a].rows * lm.tensors[op.a].cols
                 * lm.tensors[op.b].cols for idx, op in products(lm).items()}
        assert report.mults == whole
        fewer += sum(op.mults < whole[idx] for idx, op in products(lm).items())
    assert fewer > 100, fewer


# Each triangular formula of the cost model, as `chain.py` spells it.
TRIANGULAR_FORMULAS = ["rows * (rows + 1) // 2",
                       "k * (k + 1) * (k + 2) // 6",
                       "k * k + k * (k - 1) * (2 * k - 1) // 6"]


@pytest.mark.parametrize("formula", TRIANGULAR_FORMULAS)
def test_a_cost_model_off_by_one_fails_the_count_check(monkeypatch, formula):
    """Lowering with a copy of `chain.pattern_cost` in which one triangular
    formula counts one mult too many: the oracle check of the generated
    programs fails on a product of that formula."""
    source = inspect.getsource(chain)
    assert source.count(f"return {formula}") == 1, formula
    mutant = type(chain)("momc.chain_mutant")
    mutant.__package__ = "momc"
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(f"return {formula}", f"return {formula} + 1"),
                 "chain_mutant.py", "exec"), mutant.__dict__)
    monkeypatch.setattr(loops, "pattern_cost", mutant.pattern_cost)
    rng = random.Random(default_seed() ^ 0xFAC7)
    with pytest.raises(AssertionError, match=r"^\('matmul "):
        for _ in range(1500):
            run_checked(monkeypatch, optimize_text(random_program(rng)).module)


def test_the_kernels_programs_take_the_exact_tiles_as_before(monkeypatch):
    """The products that run as BLAS tiles on each `kernels` program, the
    count the run-time proof gave at every seed: chain4's first two, the
    1000^2 lower x lower product and the four structured products."""
    programs = load_programs()
    calls = []
    real = executor._exact_tiles
    monkeypatch.setattr(executor, "_exact_tiles",
                        lambda *args: calls.append(1) or real(*args))
    for seed in (1, 2, 3):
        mode, progs = programs.generate("kernels", seed)
        counts = {}
        for p in progs:
            del calls[:]
            executor.execute(loops.lower_to_loops(optimize_text(p.text).module),
                             ExecMode(mode), repeats=1)
            counts[p.name] = len(calls)
        assert counts == {"chain4-f32": 2, "lower2-f64": 1, "structured-f32": 4}, seed


def facts_of(text: str, **fills: float) -> dict[str, object]:
    """The interval of each `print(X)` by X, and whether the product that
    `X = ...` lowers to is exact, by `X*`. `fills` sets the fill values of
    named inputs on the IR, where they may be negative."""
    m = optimize_text(text).module
    inputs = [line.split()[1].split("(")[0] for line in text.splitlines()
              if line.startswith(("Matrix", "Identity"))]
    inits = [op.result for op in m.ops if isinstance(op, ir.Init)]
    by_value = dict(zip(inits, inputs))  # inputs are initialized in order
    for op in m.ops:
        if isinstance(op, ir.Fill) and by_value.get(op.operand) in fills:
            op.value = fills[by_value[op.operand]]
    lm = loops.lower_to_loops(m)
    printed = re.findall(r"^print\((\w+)\)$", text, re.M)
    products = [t + "*" for t in re.findall(r"^(\w+) = .*\*", text, re.M)]
    return {**dict(zip(printed, [op.interval for op in lm.ops
                                 if isinstance(op, loops.Print)], strict=True)),
            **dict(zip(products, [op.exact for op in lm.ops
                                  if isinstance(op, loops.MatMul)], strict=True))}


def test_fill_intervals():
    text = ("Matrix A(3, 3) <> = 5\nMatrix L(3, 3) <LowerTriangular> = 5\n"
            "Matrix D(3, 3) <Diagonal> = 5\nMatrix H(3, 3) <> = 0.5\n"
            "Matrix R(3, 3) <> = 16777217\nMatrix S(3, 3) <> : f64 = 16777217\n"
            "Matrix T(3, 3) <> = 8388608.5\nMatrix E(3, 3) <> : f64 = 8388608.5\n"
            "Matrix B(3, 3) <> : f64 = 9007199254740994\n"
            "Matrix O(3, 3) <> = 1" + "0" * 41 + "\nIdentity I(3)\n"
            + "".join(f"print({x})\n" for x in "ALDHRSTEBOI"))
    assert facts_of(text) == {
        "A": (5, 5), "L": (0, 5), "D": (0, 5),
        "H": None,                     # not an integer
        "R": (F32_EXACT, F32_EXACT),   # f32 rounds 2**24 + 1 to 2**24
        "S": (F32_EXACT + 1, F32_EXACT + 1),
        "T": (8388608, 8388608),       # f32 rounds the half to even
        "E": None,
        "B": None,                     # 2**53 + 2: past f64's exact integers
        "O": None,                     # 1e41 is inf in f32
        "I": (0, 1),
    }
    # Negative fills, set on the IR: a pattern's zeros widen the interval.
    assert facts_of(text, A=-3.0, L=-3.0, D=-0.0) == {
        **facts_of(text), "A": (-3, -3), "L": (-3, 0), "D": (0, 0)}


def test_views_sums_and_products():
    text = ("Matrix A(4, 4) <> = 3\nMatrix L(4, 4) <LowerTriangular> = 2\n"
            "Matrix H(4, 4) <> = 0.5\n"
            "P = A * L\nQ = transpose(L)\nS = A + L\nT = A + H\nU = H * A\n"
            "print(P)\nprint(Q)\nprint(S)\nprint(T)\nprint(U)\n")
    got = facts_of(text)
    assert got["P"] == (0, 4 * 6) and got["Q"] == (0, 2) and got["S"] == (3, 5)
    assert got["T"] is got["U"] is None
    assert got["P*"] is True and got["U*"] is False
    # A in [-3, -3] and L in [-2, 0]: every product is 0 or 6.
    got = facts_of(text, A=-3.0, L=-2.0)
    assert (got["P"], got["Q"], got["S"]) == ((0, 24), (-2, 0), (-5, -3))
    # A in [3, 3] and L in [-2, 0]: every product is -6 or 0.
    assert facts_of(text, L=-2.0)["P"] == (-24, 0)


@pytest.mark.parametrize("elem,limit", [("f32", F32_EXACT), ("f64", F64_EXACT)])
def test_the_exactness_bound(elem, limit):
    """At max|a| * max|b| * k == 2**p a product is exact; one past it, not;
    and a sum that passes 2**p is unknown, since it may round."""
    q = (limit.bit_length() - 1 - 2) // 2  # 4 * 2**q * 2**(p - 2 - q) == 2**p
    # 2**24 + 1 == 97 * 257 * 673 and 2**53 + 1 == 3 * 107 * 28059810762433
    k, x, y = (97, 257, 673) if elem == "f32" else (3, 107, 28059810762433)
    assert k * x * y == limit + 1
    text = (f"Matrix A(2, 4) <> : {elem} = {2 ** q}\n"
            f"Matrix B(4, 2) <> : {elem} = {limit // 4 // 2 ** q}\n"
            f"Matrix C(2, {k}) <> : {elem} = {x}\nMatrix D({k}, 2) <> : {elem} = {y}\n"
            f"Matrix E(2, 2) <> : {elem} = {limit}\nMatrix F(2, 2) <> : {elem} = 1\n"
            f"Matrix G(2, 2) <> : {elem} = {limit - 1}\n"
            "P = A * B\nQ = C * D\nS = E + F\nT = G + F\n"
            "print(P)\nprint(Q)\nprint(S)\nprint(T)\n")
    got = facts_of(text)
    assert got["P*"] is True and got["P"] == (0, limit)
    assert got["Q*"] is False and got["Q"] is None
    assert got["S"] is None and got["T"] == (limit, limit)


def test_every_product_with_known_operands_is_exact_iff_the_oracle_bound_holds():
    """The static rule is the oracle's rule applied to the intervals: on
    constant operands within 2**p, which reach their intervals' ends, it
    agrees with the oracle."""
    rng = np.random.default_rng(default_seed() ^ 0xB0)
    seen = set()
    for _ in range(200):
        elem = str(rng.choice(["f32", "f64"]))
        k = int(rng.integers(1, 6))
        shift = 21 if elem == "f32" else 27  # |v| < 9 * 2**20 < 2**24, or 2**53
        va, vb = (int(v) * 2 ** int(rng.integers(0, shift))
                  for v in rng.integers(-9, 10, 2))
        text = (f"Matrix A(2, {k}) <> : {elem} = 1\nMatrix B({k}, 2) <> : {elem} = 1\n"
                "P = A * B\nprint(P)\n")
        got = facts_of(text, A=float(va), B=float(vb))
        dtype = np.float32 if elem == "f32" else np.float64
        a, b = np.full((2, k), va, dtype), np.full((k, 2), vb, dtype)
        assert got["P*"] is is_exact_product(a, b), (elem, k, va, vb)
        seen.add((elem, got["P*"]))
    assert len(seen) == 4


def importers_of(module):
    """The src/momc files that import `module` or a submodule of it."""
    importers = []
    for path in sorted((ROOT / "src" / "momc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(n == module or n.startswith(module + ".") for n in names):
                importers.append(path.name)
    return importers


def test_only_the_executor_and_the_chain_dps_numpy_scan_import_numpy():
    """The facts pass and the rest of the compiler run on Python ints: in
    src/momc, only executor.py imports numpy, and chain.py inside
    `_numpy_scan`, the chain DP's scan for long chains, which runs only when
    numpy is already loaded and its costs fit in int64."""
    assert importers_of("numpy") == ["chain.py", "executor.py"]
    tree = ast.parse((ROOT / "src" / "momc" / "chain.py").read_text(encoding="utf-8"))
    scans = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and any(isinstance(inner, ast.Import) for inner in ast.walk(node))]
    assert [scan.name for scan in scans] == ["_numpy_scan"]
    assert [a.name for node in ast.walk(scans[0]) if isinstance(node, ast.Import)
            for a in node.names] == ["numpy"]


def test_no_module_imports_dataclasses():
    """Records are written out on `record.Record`: `dataclasses`, with the
    `inspect` it loads and the methods it generates for each class at import,
    would add to the start of every process."""
    assert importers_of("dataclasses") == []


def test_no_module_imports_the_executor_at_import_time():
    """numpy loads with the executor on first use: no src/momc module
    imports `executor` outside a function, so `import momc` and a
    compile-only run leave numpy out."""
    def import_time(tree):
        todo = list(tree.body)
        while todo:
            node = todo.pop()
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node
                todo.extend(ast.iter_child_nodes(node))

    importers = []
    for path in sorted((ROOT / "src" / "momc").glob("*.py")):
        for node in import_time(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [f"{node.module or ''}.{a.name}" for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            if any("executor" in n.split(".") for n in names):
                importers.append(path.name)
    assert importers == []


def test_exec_mode_lives_in_loops():
    assert executor.ExecMode is loops.ExecMode
