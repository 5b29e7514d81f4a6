"""CLI driver: flags, exit codes, stage dumps, reports."""

import ast
import glob
import importlib.util
import json
import os
import random
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from momc import chain, executor
from momc.__main__ import BLAS_THREAD_VARS
from momc.cli import EMIT_STAGES, BenchReport, main, parse_config
from momc.errors import ParseError
from momc.executor import ExecMode
from momc.frontend import MAX_CHAIN_OPERANDS, MAX_NESTING, parse_source
from momc.ir import build_ir, print_ir

import gen
from util import optimize_text

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
LISTING1 = os.path.join(EXAMPLES, "listing1.mom")
CHAIN4 = os.path.join(EXAMPLES, "chain4.mom")
IDENTITY = os.path.join(EXAMPLES, "identity.mom")
SAME_OUTPUT = os.path.join(os.path.dirname(__file__), "..", "tools", "same_output.py")


def chain_program(k):
    """`tools/same_output.py`'s k-operand f64 chain program."""
    spec = importlib.util.spec_from_file_location("same_output", SAME_OUTPUT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.chain_program(k)


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """A program whose one product is long enough for the numpy scan."""
    path = tmp_path_factory.mktemp("chain") / "chain90.mom"
    path.write_text(chain_program(90), encoding="utf-8")
    assert 90 >= chain.NUMPY_MIN_LENGTH
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_programs_exist_and_compile(capsys):
    for path in (LISTING1, CHAIN4, IDENTITY):
        assert os.path.isfile(path), f"example program missing: {path}"
        code, _, err = run_cli(capsys, path, "--emit=ir")
        assert code == 0, f"{path} does not compile: {err}"


def test_emit_ir_succeeds_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, LISTING1, "--emit=ir")
    code2, out2, _ = run_cli(capsys, LISTING1, "--emit=ir")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "%2 = equation {" in out1
    assert "matrix<5x5xf32,[lowerTri]>" in out1


def test_missing_file_reports_and_exits_1(capsys):
    code, out, err = run_cli(capsys, os.path.join(EXAMPLES, "missing.mom"))
    assert code == 1
    assert out == ""
    assert "missing.mom" in err


def test_parse_error_exits_1_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.mom"
    bad.write_text("Matrix A(2, 2) <>\nB = A @ A\n")
    code, _, err = run_cli(capsys, str(bad))
    assert code == 1
    assert "2:7" in err and "'@'" in err


@pytest.mark.parametrize("text,col", [
    ("Matrix \u00e9(2, 2) <>\n", 8),     # a Latin letter outside ASCII
    ("Matrix A(2, \u00b2) <>\n", 13),    # superscript two
    ("n = \u0663\n", 5),                 # Arabic-Indic digit three
])
def test_non_ascii_letters_and_digits_are_lex_errors(tmp_path, capsys, text, col):
    prog = tmp_path / "u.mom"
    prog.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, str(prog))
    char = text[col - 1]
    assert (code, out) == (1, "")
    assert err == f"{prog}:1:{col}: error: unexpected character {char!r}\n"


@pytest.mark.parametrize("data,where", [
    (b"Matrix A(2, 2) <>\n\xff\n", "2:1: error: invalid UTF-8 byte 0xff"),
    # columns count characters, as the lexer's do; an encoded surrogate
    # is invalid UTF-8 from its first byte
    (b"Matrix A(2, 2) <>\r\n \xc3\xa9\xed\xa0\x80\n",
     "2:3: error: invalid UTF-8 byte 0xed"),
])
def test_invalid_utf8_is_a_located_diagnostic(tmp_path, capsys, data, where):
    prog = tmp_path / "bad.mom"
    prog.write_bytes(data)
    code, out, err = run_cli(capsys, str(prog))
    assert (code, out, err) == (1, "", f"{prog}:{where}\n")


@pytest.mark.parametrize("data,where", [
    # A lone carriage return is a blank, not a line break.
    (b"Matrix A(2, 2) <>\rprint(B)\n",
     "1:19: error: expected newline, found 'print'"),
    # The carriage return of a CRLF takes a column of its line.
    (b"Matrix A(2, 2\r\nprint(A)\r\n", "1:15: error: expected ')', found '\\n'"),
    # A property list may not have an empty entry.
    (b"Matrix A(2, 2) <LowerTriangular, >\n",
     "1:34: error: expected identifier, found '>'"),
    (b"Matrix A(2, 2) <LowerTriangular,,>\n",
     "1:33: error: expected identifier, found ','"),
])
def test_the_cli_reports_what_parse_source_reports(tmp_path, capsys, data, where):
    prog = tmp_path / "p.mom"
    prog.write_bytes(data)
    with pytest.raises(ParseError) as info:
        parse_source(data.decode())
    assert str(info.value) == where
    code, out, err = run_cli(capsys, str(prog))
    assert (code, out, err) == (1, "", f"{prog}:{where}\n")


def test_closed_stdout_exits_1_without_a_traceback():
    r, w = os.pipe()
    os.close(r)  # the pipe has no reader before the child writes anything
    try:
        done = subprocess.run(
            [sys.executable, "-m", "momc", CHAIN4, "--run", "--scale=10",
             "--emit=loops"], stdout=w, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (1, b"")


# A `sitecustomize` that writes, as the process exits, whether numpy was
# loaded and the BLAS thread variables it ended with.
SHOW_THREADS = f"""\
import atexit, os, sys
atexit.register(lambda: sys.stderr.write(repr(
    ("numpy" in sys.modules, [os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]))))
"""


def threads_at_exit(tmp_path, entry, **env):
    """(numpy loaded, the BLAS thread variables) at the exit of a fresh
    process that runs chain4 with `--run` through `entry`, started with
    none of those variables set but those in `env`."""
    (tmp_path / "sitecustomize.py").write_text(SHOW_THREADS)
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), child_env["PYTHONPATH"]])
    done = subprocess.run([sys.executable, *entry, CHAIN4, "--run", "--scale=10"],
                          env={**child_env, **env}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stderr)


@pytest.mark.parametrize("entry", [
    ["-m", "momc"],
    # what the `momc` script of `[project.scripts]` calls
    ["-c", "import sys; from momc.__main__ import main; sys.exit(main())"],
])
def test_the_cli_process_runs_one_blas_thread(tmp_path, entry):
    assert threads_at_exit(tmp_path, entry) == (True, ["1", "1", "1"])
    assert threads_at_exit(tmp_path, entry, OPENBLAS_NUM_THREADS="2") == (
        True, ["2", "1", "1"])


def test_cli_main_sets_no_thread_variable(capsys):
    before = dict(os.environ)
    code, _, _ = run_cli(capsys, CHAIN4, "--run", "--scale=10")
    assert code == 0
    assert dict(os.environ) == before


def test_the_momc_script_is_the_process_entry_point():
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")) as f:
        assert '\nmomc = "momc.__main__:main"\n' in f.read()


# Runs `cli.main` once per argument list of the JSON in argv[1], each run's
# output after a marker line, and exits with the largest exit code.
RUN_ALL = """\
import json, sys
from momc.cli import main
codes = [0]
for i, argv in enumerate(json.loads(sys.argv[1])):
    print(f"== run {i}", flush=True)
    codes.append(main(argv))
sys.exit(max(codes))
"""


def test_no_output_depends_on_the_hash_seed(tmp_path):
    """Strings hash by the seed and `ElemKind`, `StoredPattern` and
    `PropertySet` by identity, so hashes differ from one interpreter to the
    next; what the compiler prints must not."""
    prog = tmp_path / "random.mom"
    prog.write_text(gen.random_program(random.Random(5)))
    paths = sorted(glob.glob(os.path.join(EXAMPLES, "*.mom"))) + [str(prog)]
    outputs = []
    for seed in ("0", "1"):
        reports = [tmp_path / f"seed{seed}-{i}.kv" for i in range(len(paths))]
        runs = [[p, f"--emit={stage}"] for p in paths
                for stage in ("ir-opt", "loops", "chain")]
        runs += [[p, "--run", "--mode=specialized", f"--report={r}"]
                 for p, r in zip(paths, reports)]
        done = subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(runs)],
                              env=dict(os.environ, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        mults = [line for r in reports for line in r.read_text().splitlines()
                 if ".mults=" in line]
        outputs.append((done.stdout, mults))
    assert "optimal: " in outputs[0][0]  # the random program has a chain
    assert outputs[0] == outputs[1]


def test_semantic_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.mom"
    bad.write_text("B = A\n")
    code, _, err = run_cli(capsys, str(bad))
    assert code == 1
    assert "'A'" in err


@pytest.mark.parametrize("text,message", [
    ("Matrix A(3, 3) <>\nprint((A + A) * Identity(4))\n",
     "2:1: error: inner dims disagree, 3 vs 4"),
    ("Matrix A(3, 5) <>\nIdentity I(4)\nB = transpose(I) * A\nprint(B)\n",
     "3:1: error: inner dims disagree, 4 vs 3"),
    ("Matrix A(3, 3) <>\nIdentity I(3) : f64\nB = A * I\nprint(B)\n",
     "3:1: error: operands mix f32 and f64"),
])
@pytest.mark.parametrize("flags", [[], ["--no-opt"]])
def test_identities_are_type_checked_before_they_are_dropped(
        tmp_path, capsys, text, message, flags):
    prog = tmp_path / "id.mom"
    prog.write_text(text)
    code, out, err = run_cli(capsys, str(prog), "--run", *flags)
    assert (code, out, err) == (1, "", f"{prog}:{message}\n")


def test_verifier_diagnostics_are_located(tmp_path, capsys):
    prog = tmp_path / "d.mom"
    with open(CHAIN4, encoding="utf-8") as f:
        prog.write_text(f.read().replace("A1(800, 1100)", "A1(800, 100)"))
    code, out, err = run_cli(capsys, str(prog), "--emit=loops")
    assert (code, out) == (1, "")
    assert err == f"{prog}:5:1: error: inner dims disagree, 100 vs 1100\n"


def test_resolution_errors_are_located(tmp_path, capsys):
    # The verifier cannot see the dims of an earlier result; resolution can.
    prog = tmp_path / "r.mom"
    prog.write_text("Matrix A(2, 3) <>\nMatrix B(2, 2) <>\nX = A + A\n"
                    "\nprint(B * X * B)\n")
    code, _, err = run_cli(capsys, str(prog), "--emit=loops")
    assert code == 1
    assert err == f"{prog}:5:1: error: inner dims disagree, 3 vs 2\n"
    prog.write_text("Matrix A(2, 3) <>\nMatrix C(9, 9) <>\nC = A * transpose(A)\n")
    code, _, err = run_cli(capsys, str(prog), "--emit=loops")
    assert code == 1
    assert err == (f"{prog}:3:1: error: equation result is 2x2 but the target "
                   "was declared 9x9\n")


# Type diagnostics: resolution is the one checker of an equation's types, so
# a run reports the first ill-typed statement, once, in one text whether an
# operand is an input or an earlier result (docs/grammar.md, "Diagnostics
# order").
SUM_DIMS = "Matrix A(2, 3) <>\nMatrix B(3, 2) <>\nX = B\n"
SUM_ELEMS = "Matrix A(2, 3) <>\nMatrix B(2, 3) <> : f64\nX = B\n"


@pytest.mark.parametrize("text,message", [
    ("Matrix A(2, 3) <>\nMatrix B(2, 2) <>\nX = A + A\nprint(B * X * B)\n"
     "print(A * A)\n", "4:1: error: inner dims disagree, 3 vs 2"),
    ("Matrix A(2, 3) <>\nX = A * A\nY = A * A\n",
     "2:1: error: inner dims disagree, 3 vs 2"),
    (SUM_DIMS + "print(A + B)\n", "4:1: error: addition operands must share dims"),
    (SUM_DIMS + "print(A + X)\n", "4:1: error: addition operands must share dims"),
    (SUM_ELEMS + "print(A + B)\n", "4:1: error: operands mix f32 and f64"),
    (SUM_ELEMS + "print(A + X)\n", "4:1: error: operands mix f32 and f64"),
    # An assigned target's declaration is checked like an input's.
    ("Matrix A(2, 2) <>\nMatrix C(2, 3) <LowerTriangular>\nC = A\nprint(C)\n",
     "2:1: error: property lowerTri requires a square matrix, got 2x3"),
])
@pytest.mark.parametrize("flags", [[], ["--no-opt"]])
def test_type_diagnostics(tmp_path, capsys, text, message, flags):
    prog = tmp_path / "t.mom"
    prog.write_text(text)
    code, out, err = run_cli(capsys, str(prog), "--run", *flags)
    assert (code, out, err) == (1, "", f"{prog}:{message}\n")


def test_emit_ir_of_an_ill_typed_program_dumps_then_fails(tmp_path, capsys):
    text = "Matrix A(2, 3) <>\nX = A * A\n"
    prog = tmp_path / "t.mom"
    prog.write_text(text)
    code, out, err = run_cli(capsys, str(prog), "--emit=ir")
    assert (code, out, err) == (
        1, print_ir(build_ir(parse_source(text))),
        f"{prog}:2:1: error: inner dims disagree, 3 vs 2\n")


def test_invalid_flag_exits_2(capsys):
    for args, message in ((["--emit=everything"], "invalid choice"),
                          (["--repeats", "0"], "--repeats must be at least 1"),
                          (["--scale", "0"], "--scale must be at least 1"),
                          (["--report=r.kv"], "--report needs --run or --bench"),
                          (["--emit=ir", "--report=r.kv"],
                           "--report needs --run or --bench")):
        with pytest.raises(SystemExit) as exc:
            main([LISTING1, *args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_bench_conflicts_with_emit_and_run(capsys):
    for combo in (["--bench", "--emit=ir"], ["--bench", "--run"],
                  ["--bench", "--no-opt"]):
        with pytest.raises(SystemExit) as exc:
            main([CHAIN4] + combo)
        assert exc.value.code == 2


def test_parse_config_defaults():
    cfg = parse_config([LISTING1])
    assert cfg.mode is ExecMode.DENSE
    assert cfg.repeats == 5 and cfg.opt and cfg.scale == 1
    assert cfg.emit == "none" and not cfg.run and not cfg.bench


def fresh_interpreter(code):
    """stdout of `code` run by a new Python process, which must exit 0."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("flags,loads", [
    ([f"--emit={stage}"], False) for stage in EMIT_STAGES] + [
    (["--run"], True), (["--run", "--emit=loops"], True), (["--bench"], True)])
def test_numpy_loads_only_when_something_runs(long_chain, flags, loads):
    """A compile-only run also leaves out `dataclasses` and `inspect`
    (numpy loads `inspect` itself). The first program's 90-operand chain
    is long enough for the chain DP's numpy scan."""
    out = fresh_interpreter(
        "import sys\nfrom momc.cli import main\n"
        f"assert main({[long_chain, *flags]!r}) == 0\n"
        f"assert main({[LISTING1, *flags]!r}) == 0\n"
        "print('numpy' in sys.modules)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    numpy, slow = out.splitlines()[-2:]
    assert numpy == str(loads)
    assert loads or slow == "[]"


def test_chain_dumps_do_not_depend_on_whether_numpy_is_loaded(
        long_chain, capsys, monkeypatch):
    """A 90-operand chain's `--emit=chain` dump: a fresh interpreter, which
    never loads numpy and so takes the Python scan, prints what this
    process prints with numpy loaded, through the numpy scan."""
    fresh = fresh_interpreter(
        "import sys\nfrom momc.cli import main\n"
        f"assert main({[long_chain, '--emit=chain']!r}) == 0\n"
        "assert 'numpy' not in sys.modules\n")
    scanned = []

    def numpy_scan(c, _real=chain._numpy_scan):
        scanned.append(len(c))
        return _real(c)

    monkeypatch.setattr(chain, "_numpy_scan", numpy_scan)
    code, out, err = run_cli(capsys, long_chain, "--emit=chain")
    assert (code, err) == (0, "")
    assert scanned == [90]
    assert out == fresh


def test_a_compile_through_the_driver_loads_no_numpy():
    out = fresh_interpreter(
        "import sys\nfrom momc.pipeline import stages\n"
        f"text = open({LISTING1!r}, encoding='utf-8').read()\n"
        "print([stage for stage, _, _ in stages(text)])\n"
        "print('numpy' in sys.modules)")
    assert out.splitlines() == [
        "['tokenize', 'parse', 'build_ir', 'verify', 'optimize', 'lower']", "False"]


def test_a_bare_import_leaves_numpy_out_and_reaches_every_public_name():
    """`dataclasses`, `inspect` and the compile driver stay out too."""
    out = fresh_interpreter(
        "import sys, momc\n"
        "print(sorted({'numpy', 'dataclasses', 'inspect', 'momc.pipeline'}"
        " & set(sys.modules)))\n"
        "print(sorted({'executor', 'execute', 'Executor', 'ExecutionReport'}"
        " - set(dir(momc))))\n"
        "print(momc.executor.__name__, 'numpy' in sys.modules)\n"
        "names = {}\nexec('from momc import *', names)\n"
        "print(sorted(set(momc.__all__) - set(names)))")
    assert out.splitlines() == ["[]", "[]", "momc.executor True", "[]"]


def test_the_package_serves_the_executors_own_names():
    import momc
    from momc import ExecMode, ExecutionReport, Executor, execute
    got = (momc.executor, execute, Executor, ExecutionReport, ExecMode)
    want = (executor, executor.execute, executor.Executor,
            executor.ExecutionReport, executor.ExecMode)
    assert all(a is b for a, b in zip(got, want))


def test_an_unknown_package_name_is_the_standard_attribute_error():
    import momc
    with pytest.raises(AttributeError,
                       match=r"^module 'momc' has no attribute 'nope'$"):
        momc.nope


def test_run_prints_tensors_in_program_order(capsys):
    code, out, _ = run_cli(capsys, IDENTITY, "--run", "--mode=specialized",
                           "--repeats=1")
    assert code == 0
    blocks = out.strip().split("\n4x4 f32\n")
    assert len(blocks) == 2
    # First print is A*I == A (lower triangular of 2s), second is I*I == I.
    assert out.startswith("4x4 f32\n2 0 0 0\n")
    assert out.rstrip().endswith("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1")


def test_run_report_file_keys(tmp_path, capsys):
    path = tmp_path / "report.kv"
    code, _, _ = run_cli(capsys, LISTING1, "--run", "--repeats=2",
                         f"--report={path}")
    assert code == 0
    text = path.read_text()
    assert "op5.mults=125\n" in text  # dense mode full iteration
    assert "total.mults=125\n" in text
    assert "total.min_ns=" in text


@pytest.mark.parametrize("report,runs", [(False, 1), (True, 3)])
def test_run_repeats_only_for_a_report(tmp_path, capsys, monkeypatch,
                                       report, runs):
    calls = []
    real = executor.run_matmul
    monkeypatch.setattr(executor, "run_matmul",
                        lambda *a: calls.append(a[6]) or real(*a))
    args = [LISTING1, "--run", "--repeats=3"]
    if report:
        args.append(f"--report={tmp_path / 'r.kv'}")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and out.startswith("5x5 f32\n")
    assert calls == [125] * runs  # listing1 has one 5^3 product, in dense mode


def test_bench_report_speedup_without_a_timing():
    assert BenchReport(8, 4, 10, 0).speedup == 1.0


def test_bench_report_file_keys(tmp_path, capsys):
    path = tmp_path / "bench.kv"
    code, out, _ = run_cli(capsys, CHAIN4, "--bench", "--scale=4",
                           "--repeats=1", f"--report={path}")
    assert code == 0
    text = path.read_text()
    assert "baseline.total.mults=" in text
    assert "optimized.total.mults=" in text
    assert "mult_ratio=1752/295\n" in text
    assert "speedup: " in out


@pytest.mark.parametrize("flag", ["--run", "--bench"])
def test_unwritable_report_exits_1(tmp_path, capsys, flag):
    path = tmp_path / "no" / "such" / "dir" / "r.kv"
    code, _, err = run_cli(capsys, LISTING1, flag, "--repeats=1",
                           f"--report={path}")
    assert code == 1
    assert err == f"momc: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("mode", ["dense", "specialized"])
@pytest.mark.parametrize("text,message", [
    ("".join(f"Matrix {m}(3, 3) <{p}> = 100000000000000000000\n"
             for m, p in (("A", ""), ("B", ""), ("L", "LowerTriangular")))
     + "C = A * B * L\nprint(C)\n",
     "error: op 7 (matmul %0[], %1[] -> %3[] : 3x3xf32): "
     "overflow encountered in multiply"),
    # Each product fits f32 and their sum does not: the one-shot path's
    # accumulate overflows, and its rerun one step at a time names the add.
    ("Matrix A(2, 2) <> = 15000000000000000000\nC = A * A\nprint(C)\n",
     "error: op 3 (matmul %0[], %0[] -> %1[] : 2x2xf32): "
     "overflow encountered in add"),
    ("Matrix A(2, 2) <> = 1" + "0" * 39 + "\nprint(A)\n",
     "error: op 1 (fill %0, 1e+39 : pattern=full): overflow encountered in cast"),
    ("Matrix L(2, 2) <LowerTriangular> = 1" + "0" * 39 + "\nprint(L)\n",
     "error: op 1 (fill %0, 1e+39 : pattern=lowerIncl): "
     "overflow encountered in cast"),
    # A literal past the f64 range reads as inf.
    ("Matrix A(2, 2) <> : f64 = 1" + "0" * 400 + "\nprint(A)\n",
     "error: op 1 (fill %0, inf : pattern=full): fill value inf is not finite"),
])
def test_non_finite_value_exits_1_without_output(tmp_path, capsys, recwarn,
                                                 mode, text, message):
    prog = tmp_path / "big.mom"
    prog.write_text(text)
    code, out, err = run_cli(capsys, str(prog), "--run", "--no-opt",
                             f"--mode={mode}")
    assert (code, out) == (1, "")
    assert err == f"{prog}: {message}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("mode", ["dense", "specialized"])
@pytest.mark.parametrize("fills,message", [
    (("1" + "0" * 20,) * 2, "overflow encountered in multiply"),  # products 1e40
    # Each product is 1e37, and the sums pass the f32 range.
    (("1" + "0" * 19, "1" + "0" * 18), "overflow encountered in add"),
])
def test_overflow_in_row_bands_exits_1_with_the_loops_message(
        tmp_path, capsys, monkeypatch, mode, fills, message):
    """A 300^3 f32 product runs in 2 row bands of the loop. When it
    overflows, the CLI reports the sequential loop's message, prints nothing
    and warns nothing; a failed run and a good one leave no thread behind.
    The rerun that names the error runs in the calling thread, no band."""
    monkeypatch.setattr(executor, "_CPUS", 2)
    bands = []
    real = executor._in_bands
    monkeypatch.setattr(executor, "_in_bands",
                        lambda band, n: bands.append(n) or real(band, n))
    text = "n = 300\nMatrix A(n, n) <> = {}\nMatrix B(n, n) <> = {}\nprint(A * B)\n"
    bad, good = tmp_path / "bad.mom", tmp_path / "good.mom"
    bad.write_text(text.format(*fills))
    good.write_text(text.format(0.1, 0.3))
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, str(bad), "--run", "--repeats=1",
                                 f"--mode={mode}")
        assert (code, out) == (1, "")
        assert err == (f"{bad}: error: op 5 (matmul %0[], %1[] -> %2[] : "
                       f"300x300xf32): {message}\n")
        assert threading.active_count() == threads
        assert bands == [2]
        code, out, _ = run_cli(capsys, str(good), "--run", "--repeats=1",
                               f"--mode={mode}")
        assert code == 0 and out.startswith("300x300 f32\n")
        assert threading.active_count() == threads
        assert bands == [2, 2]


@pytest.mark.parametrize("mode", ["dense", "specialized"])
def test_a_product_overflow_einsum_hides_exits_1_with_the_multiply(
        tmp_path, capsys, monkeypatch, mode):
    """A 20^3 f32 product, past SMALL_MAX_MULTS and in one band, whose 1e40
    products overflow and whose sums add nothing finite: the loop's einsum
    writes the products as inf without raising, and the run still stops
    with numpy's multiply overflow as a NonFiniteValue, printing nothing."""
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    prog = tmp_path / "products.mom"
    prog.write_text("n = 20\nMatrix A(n, n) <> = 1" + "0" * 20
                    + "\nMatrix B(n, n) <> = 1" + "0" * 20 + "\nprint(A * B)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, str(prog), "--run", "--repeats=1",
                                 f"--mode={mode}")
    assert (code, out) == (1, "")
    assert err == (f"{prog}: error: op 5 (matmul %0[], %1[] -> %2[] : "
                   "20x20xf32): overflow encountered in multiply\n")
    assert calls


def test_broken_stored_pattern_exits_1_without_a_traceback(tmp_path, capsys,
                                                          monkeypatch):
    """A kernel that writes outside its pattern (here a fill that ignores it)
    is caught at the print, which names itself; nothing is printed."""
    monkeypatch.setattr(executor, "run_fill",
                        lambda buf, scalar, pattern: buf.fill(scalar))
    prog = tmp_path / "broken.mom"
    prog.write_text("Matrix U(2, 2) <UpperTriangular> = 5\nprint(U)\n")
    code, out, err = run_cli(capsys, str(prog), "--run", "--mode=specialized")
    assert (code, out) == (1, "")
    assert err == (f"{prog}: error: op 2 (print %0): entry (1, 0) is 5, "
                   "outside the stored pattern upperIncl\n")


# Dims past the int64 range only: numpy rejects the shape before allocating.
@pytest.mark.parametrize("args", [["--run"], ["--run", "--mode=specialized"],
                                  ["--run", "--no-opt"], ["--bench"]])
@pytest.mark.parametrize("text,tensor", [
    ("x = 99999999999999999999999\nMatrix A(x, 1) <>\nMatrix B(1, 1) <>\n"
     "C = A * B\nprint(C)\n", "%0 : matrix<99999999999999999999999x1xf32,[]>"),
    ("Matrix A(2, 2) <>\nIdentity I(" + "9" * 30 + ") : f64\n"
     "C = A * A\nprint(C)\n", f"%1 : identity<{'9' * 30}xf64>"),
])
def test_oversize_tensor_exits_1_without_output(tmp_path, capsys, args, text,
                                                tensor):
    prog = tmp_path / "huge.mom"
    prog.write_text(text)
    code, out, err = run_cli(capsys, str(prog), *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"{prog}: error: cannot allocate {tensor}: ")


def test_nesting_past_the_limit_is_a_located_parse_error(tmp_path, capsys):
    prog = tmp_path / "deep.mom"
    deep = MAX_NESTING + 300
    prog.write_text("Matrix A(2, 2) <>\nB = " + "(" * deep + "A" + ")" * deep
                    + "\nprint(B)\n")
    code, out, err = run_cli(capsys, str(prog), "--run")
    assert code == 1
    assert out == ""
    col = len("B = ") + MAX_NESTING + 1  # the first group past the limit
    assert f"deep.mom:2:{col}: error: expected at most {MAX_NESTING} nested" \
        in err


def test_nesting_at_the_limit_compiles_and_runs(tmp_path, capsys):
    # Alternating products, sums and transposes keep every level in the AST,
    # so each later expression walk recurses MAX_NESTING deep as well.
    expr = "A"
    for level in range(MAX_NESTING):
        expr = f"(A + A * {expr})" if level % 2 else f"transpose(I * {expr})"
    prog = tmp_path / "deep.mom"
    prog.write_text("Matrix A(2, 2) <LowerTriangular> = 0\nIdentity I(2)\n"
                    f"B = {expr}\nprint(B)\n")
    assert run_cli(capsys, str(prog), "--run") == (0, "2x2 f32\n0 0\n0 0\n", "")
    for args in (["--run", "--no-opt"], ["--emit=ast"], ["--emit=chain"],
                 ["--emit=loops"]):
        code, _, err = run_cli(capsys, str(prog), *args)
        assert (code, err) == (0, ""), args


def test_product_at_the_operand_limit_compiles(tmp_path, capsys):
    prog = tmp_path / "long.mom"
    prog.write_text("Matrix A(2, 2) <> = 1\nB = "
                    + " * ".join(["A"] * MAX_CHAIN_OPERANDS) + "\nprint(B)\n")
    code, out, err = run_cli(capsys, str(prog), "--emit=loops")
    assert (code, err) == (0, "")
    assert out.count("\nmatmul ") == MAX_CHAIN_OPERANDS - 1


@pytest.mark.parametrize("before,last,found", [
    (MAX_CHAIN_OPERANDS, "A", "'A'"),
    # A group of a product splices its operands in; a transpose is one.
    (MAX_CHAIN_OPERANDS - 1, "(A * A)", "'('"),
    (MAX_CHAIN_OPERANDS, "transpose(A * A)", "'transpose'"),
])
def test_product_past_the_operand_limit_is_a_located_parse_error(
        tmp_path, capsys, before, last, found):
    head = "B = " + "A * " * before
    text = f"Matrix A(2, 2) <> = 1\n{head}{last}\nprint(B)\n"
    prog = tmp_path / "long.mom"
    prog.write_text(text)
    message = (f"expected at most {MAX_CHAIN_OPERANDS} operands in one "
               f"product, found {found}")
    col = len(head) + 1
    for args in (["--run"], ["--run", "--no-opt"]):
        code, out, err = run_cli(capsys, str(prog), *args)
        assert (code, out, err) == (1, "", f"{prog}:2:{col}: error: {message}\n")
    with pytest.raises(ParseError) as info:
        parse_source(text)
    assert (info.value.line, info.value.col) == (2, col)
    assert str(info.value) == f"2:{col}: error: {message}"


def test_bench_requires_a_multiplication(tmp_path, capsys):
    prog = tmp_path / "nomul.mom"
    prog.write_text("Matrix A(2, 2) <>\nprint(A)\n")
    code, _, err = run_cli(capsys, str(prog), "--bench")
    assert code == 1
    assert "nothing to benchmark" in err


def test_bench_eliminates_identities_from_the_baseline_too(tmp_path, capsys):
    # With the identity gone from both variants there is nothing to reorder,
    # so the count ratio must be exactly 1.
    prog = tmp_path / "withid.mom"
    prog.write_text("n = 8\nMatrix A(n, n) <>\nIdentity I(n)\n"
                    "Matrix B(n, n) <>\nC = A * I * B\nprint(C)\n")
    code, out, _ = run_cli(capsys, str(prog), "--bench", "--repeats=1")
    assert code == 0
    assert "mult ratio: 1/1 = 1.0000" in out


def test_emit_chain_scaled(capsys):
    code, out, _ = run_cli(capsys, CHAIN4, "--emit=chain", "--scale=4")
    assert code == 0
    assert "A1[200x275,[]]" in out
    assert "optimal: (A1*(A2*(A3*A4)))" in out


def test_emit_chain_no_opt_reports_the_optimizing_run(capsys):
    """The `--no-opt` run keeps `I` in the chains of `C = A * I` and
    `D = I * I`; the optimizing run drops it and has no chain to report."""
    with open(IDENTITY, encoding="utf-8") as f:
        assert any("I" in rep.operand_names
                   for rep in optimize_text(f.read(), opt=False).chains)
    _, want, _ = run_cli(capsys, IDENTITY, "--emit=chain")
    assert run_cli(capsys, IDENTITY, "--emit=chain", "--no-opt") == (0, want, "")


def test_emit_ast_shows_resolved_dims(capsys):
    code, out, _ = run_cli(capsys, LISTING1, "--emit=ast")
    assert code == 0
    assert "Matrix A(5, 5) <LowerTriangular>" in out


def test_no_opt_run_matches_opt_run(capsys):
    _, with_opt, _ = run_cli(capsys, LISTING1, "--run", "--repeats=1")
    _, without, _ = run_cli(capsys, LISTING1, "--run", "--repeats=1",
                            "--no-opt")
    assert with_opt == without


def test_emit_loops_shows_annotations(capsys):
    code, out, _ = run_cli(capsys, LISTING1, "--emit=loops")
    assert code == 0
    assert "matmul %0[lowerTri], %1[lowerTri] -> %2[lowerTri] : 5x5xf32" in out


def test_momc_seed_env_controls_generator_default(monkeypatch):
    monkeypatch.setenv("MOMC_SEED", "12345")
    assert gen.default_seed() == 12345
    monkeypatch.delenv("MOMC_SEED")
    assert gen.default_seed() == 20260810
