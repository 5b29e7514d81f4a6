#!/usr/bin/env python3
"""momc benchmark: compile, run and set-up cost on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload chain-dp --seed 1 --seconds 30 --trace 0

The load is a closed loop: this one process compiles and runs one generated
program at a time through momc's public functions, pass after pass over the
workload's programs, until `--seconds` have passed. Every pass checks every
printed matrix against an independent numpy reference (reference.py) and, in
specialized mode, the counted multiplications against the chain solver's
prediction. Compile and run times are also reported scaled to the speed
of a fixed calibration loop run between programs (`*_norm_s`), which
cancels the host's speed changes. `--trace 0` reports the end-to-end
metrics; `--trace 1` rotates untraced passes, passes that record spans and
passes that count calls, reports the per-layer metrics and the tracing
overhead, and writes a Chrome trace under perfbench/out/. The last line of
output is one JSON object; the lines above it are for people.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
# One BLAS/OpenMP thread, set before numpy loads: momc's kernels gain
# nothing from a second one, and on a shared host a thread pool as wide as
# the vCPUs makes timings follow the scheduler rather than the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import programs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 15  # fresh interpreters per run, spread over the measuring time
CAL_REF_S = 0.0025  # calibration loop time on the reference machine (README)
MIN_PASSES = 6  # measured passes even when one pass outlasts --seconds
ITEMSIZE = {"f32": 4, "f64": 8}


def import_momc():
    sys.path.insert(0, str(SRC))
    try:
        import momc
    except ImportError as e:
        sys.exit(f"perfbench: cannot import momc from {SRC}: {e}")
    if Path(momc.__file__).resolve().parent != SRC / "momc":
        sys.exit(f"perfbench: imported momc from {momc.__file__}, not {SRC}")
    return momc


def no_span(name: str) -> nullcontext:
    return nullcontext()


def compile_and_run(m, text: str, mode, region) -> tuple[float, float, dict]:
    """Compile source text to a LoopModule and execute it once.

    Returns (compile seconds, run seconds, artifacts). `region` opens a
    tracing span, or does nothing in an untraced pass.
    """
    t0 = time.perf_counter()
    with region("compile"):
        tokens = m.frontend.tokenize(text)
        ast = m.frontend.resolve_constants(m.frontend.parse(tokens))
        module = m.ir.build_ir(ast)
        diags = m.ir.verify(module)
        if diags:
            raise RuntimeError(f"verifier: {diags[0]}")
        opt = m.equation_opt.optimize_and_rematerialize(module)
        lm = m.loops.lower_to_loops(opt.module)
    t1 = time.perf_counter()
    with region("run"):
        report = m.executor.execute(lm, mode, repeats=1)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, dict(tokens=tokens, module=module, opt=opt,
                                  lm=lm, report=report)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop that makes small objects, fills
    a dict and a list and sorts, with the cyclic collector off so momc's
    heap does not enter it. It does not touch momc: it measures how fast
    this machine runs Python code right now."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table: dict[str, _Cell] = {}
    acc: list[int] = []
    for i in range(4000):
        cell = _Cell(str(i), i)
        table[cell.key] = cell
        acc.append(cell.value * 3 % 7)
    sorted(table)
    t = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t


def counts_of(a: dict) -> dict[str, int]:
    """Exact per-program counts; they must repeat across passes and runs."""
    chains = a["opt"].chains
    ks = [len(c.operands) for c in chains]
    return {
        "mults": a["report"].total_mults,
        "frontend.tokens": len(a["tokens"]),
        "ir.ops": sum(1 for _ in a["module"].walk()),
        "equation_opt.chains": len(chains),
        "equation_opt.chain_operands": sum(ks),
        "equation_opt.ops_out": len(a["opt"].module.ops),
        "chain.split_evals": sum((k ** 3 - k) // 6 for k in ks),
        "chain.baseline_cost": sum(c.baseline_cost for c in chains),
        "chain.optimal_cost": sum(c.solution.total_cost for c in chains),
        "loops.ops": len(a["lm"].ops),
        "loops.alloc_bytes": sum(t.rows * t.cols * ITEMSIZE[str(t.elem)]
                                 for t in a["lm"].tensors.values()),
    }


class Checker:
    """Compares each pass's output with the reference (computed once per
    program) and, in specialized mode, counted with predicted mults."""

    def __init__(self, specialized: bool) -> None:
        self.specialized = specialized
        self.refs: dict[str, list] = {}
        self.verified: dict[str, tuple[str, ...]] = {}

    def problem(self, p: programs.Program, a: dict) -> str | None:
        counted = a["report"].total_mults
        predicted = sum(c.solution.total_cost for c in a["opt"].chains)
        if self.specialized and counted != predicted:
            return f"counted mults {counted} != predicted {predicted}"
        printed = a["report"].printed
        if self.verified.get(p.name) == printed:
            return None
        if p.name not in self.refs:
            self.refs[p.name] = reference.evaluate(p)
        refs = self.refs[p.name]
        if len(printed) != len(refs):
            return f"{len(printed)} prints, expected {len(refs)}"
        for i, (text, (ref, elem)) in enumerate(zip(printed, refs)):
            why = reference.check_print(text, ref, elem, p.exact)
            if why:
                return f"print {i}: {why}"
        if p.name in self.verified:
            return "printed output changed between passes"
        self.verified[p.name] = printed
        return None


class Run:
    def __init__(self, m, progs: list[programs.Program], mode) -> None:
        self.m = m
        self.progs = progs
        self.mode = mode
        self.checker = Checker(mode is m.executor.ExecMode.SPECIALIZED)
        self.attempted = 0
        self.failures: Counter[tuple[str, str]] = Counter()
        self.wrong = False  # some program printed a wrong result
        self.nondeterministic: list[str] = []
        self.fingerprint: dict[str, dict[str, int]] = {}

    def attempt(self, p: programs.Program, region) -> tuple[float, float, dict] | None:
        self.attempted += 1
        try:
            result = compile_and_run(self.m, p.text, self.mode, region)
        except Exception as e:  # a program that raises is a failed attempt
            self.failures[p.name, f"{type(e).__name__}: {e}"] += 1
            return None
        why = self.checker.problem(p, result[2])
        if why:
            self.failures[p.name, why] += 1
            self.wrong = True
            return None
        return result

    def one_pass(self, tracer: tracing.Tracer | None = None,
                 pass_no: int = 0, counting: bool = False) -> dict:
        """Compile and run every program once; sums over the timed ones.

        The calibration loop runs before the first timed program and after
        each one. A program's `*_norm_s` time is its wall time scaled by
        CAL_REF_S over the mean of the two calibration times around it, so
        the host's speed changes, which move both alike, cancel out."""
        total: dict = {"compile_s": 0.0, "run_s": 0.0, "compile_norm_s": 0.0,
                       "run_norm_s": 0.0, "pass_no": pass_no,
                       "complete": True, "counts": Counter()}
        region = tracer.span if tracer and not counting else no_span
        if tracer:
            tracer.pass_no = pass_no
            tracer.install(counting)
        try:
            cal = calibration_s()
            for p in self.progs:
                if not p.timed:
                    continue
                if tracer:
                    tracer.program = p.name
                result = self.attempt(p, region)
                cal_before, cal = cal, calibration_s()
                if result is None:
                    total["complete"] = False
                    continue
                scale = CAL_REF_S / ((cal_before + cal) / 2)
                total["compile_s"] += result[0]
                total["run_s"] += result[1]
                total["compile_norm_s"] += result[0] * scale
                total["run_norm_s"] += result[1] * scale
                c = counts_of(result[2])
                total["counts"].update(c)
                first = self.fingerprint.setdefault(p.name, c)
                if first != c:
                    self.nondeterministic.append(f"{p.name} pass {pass_no}")
        finally:
            if tracer:
                tracer.uninstall()
        for p in self.progs:
            if not p.timed:
                self.attempt(p, no_span)
        return total

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def sources_digest(progs: list[programs.Program]) -> str:
    h = hashlib.sha256()
    for p in progs:
        h.update(p.name.encode() + b"\0" + p.text.encode() + b"\0")
    return h.hexdigest()


def setup_seconds() -> float:
    """Wall time from starting a fresh interpreter until it has finished
    `import momc`. The child reports the clock itself, so the time it takes
    to exit and be reaped is left out."""
    code = ("import sys, time; "
            f"sys.path.insert(0, {str(SRC)!r}); import momc; print(time.time())")
    t0 = time.time()
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout) - t0


def probe(args) -> None:
    """Child process: one pass over the timed programs, then peak RSS."""
    m = import_momc()
    mode_name, progs = programs.generate(args.workload, args.seed)
    mode = m.executor.ExecMode(mode_name)
    fingerprint = {}
    for p in progs:
        if p.timed:
            fingerprint[p.name] = counts_of(
                compile_and_run(m, p.text, mode, no_span)[2])
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sources": sources_digest(progs), "fingerprint": fingerprint}))


def peak_rss_probe(args) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--probe"],
        check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            v = sorted(values)[math.ceil(pct / 100 * n) - 1]
            return f"p{pct} {v:.6g} (n={n})"
    return f"no percentile has 10 samples beyond it (n={n})"


def layer_metrics(tracer: tracing.Tracer, traced: list[dict],
                  counted: list[dict], untraced: list[dict]) -> dict[str, list[float]]:
    """Per-layer values of every traced or counting pass, by metric name."""
    layers = tracer.pass_layers()
    out: dict[str, list[float]] = {}

    def add(name: str, v: float) -> None:
        out.setdefault(name, []).append(v)

    for t in traced:
        L, c = layers[t["pass_no"]], t["counts"]
        fe_s = L["frontend.tokenize"] + L["frontend.parse"] + L["frontend.resolve"]
        for name, span in (("frontend.tokenize_s", "frontend.tokenize"),
                           ("frontend.parse_s", "frontend.parse"),
                           ("frontend.resolve_s", "frontend.resolve"),
                           ("ir.build_s", "ir.build"),
                           ("ir.verify_s", "ir.verify"),
                           ("equation_opt.self_s", "equation_opt.optimize.self"),
                           ("chain.dp_s", "chain.dp"),
                           ("chain.baseline_cost_s", "chain.baseline_cost"),
                           ("loops.lower_s", "loops.lower"),
                           ("executor.self_s", "executor.execute.self"),
                           ("executor.matmul_s", "executor.matmul"),
                           ("executor.fill_s", "executor.fill"),
                           ("executor.add_s", "executor.add"),
                           ("executor.transpose_s", "executor.transpose"),
                           ("executor.print_s", "executor.print")):
            add(name, L.get(span, 0.0))
        for name in ("frontend.tokens", "ir.ops", "equation_opt.chains",
                     "equation_opt.chain_operands", "equation_opt.ops_out",
                     "chain.split_evals", "loops.ops", "loops.alloc_bytes"):
            add(name, c[name])
        add("frontend.tokens_per_s", c["frontend.tokens"] / fe_s)
        add("chain.mult_ratio", c["chain.baseline_cost"] / c["chain.optimal_cost"])
        add("executor.gmults_per_s", c["mults"] / L["executor.matmul"] / 1e9)
        add("executor.compute_ops", int(sum(L.get(f"executor.{k}.n", 0)
                                            for k in ("matmul", "add", "transpose"))))
    for t in counted:
        for name in ("properties.stored_pattern_calls", "properties.infer_calls"):
            add(name, layers[t["pass_no"]][name])
    for key, name in (("compile_s", "trace.compile_overhead_s"),
                      ("run_s", "trace.run_overhead_s")):
        out[name] = [statistics.median(t[key] for t in traced)
                     - statistics.median(u[key] for u in untraced)]
    return out


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={NPROC} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(programs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: one pass in this process, print peak RSS")
    args = ap.parse_args()
    if args.probe:
        probe(args)
        return 0

    m = import_momc()
    mode_name, progs = programs.generate(args.workload, args.seed)
    digest = sources_digest(progs)
    notes: list[str] = []
    if sources_digest(programs.generate(args.workload, args.seed)[1]) != digest:
        notes.append("the same seed generated different sources")
    run = Run(m, progs, m.executor.ExecMode(mode_name))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} mode={mode_name}")
    print(f"machine: {machine()}")
    print("programs: " + ", ".join(
        f"{p.name}({len(p.text.splitlines())} lines"
        f"{'' if p.timed else ', untimed'})" for p in progs)
        + f"; sources sha256 {digest[:16]}")

    setup: list[float] = []
    rss = {}
    if not args.trace:
        rss = peak_rss_probe(args)
        if rss["sources"] != digest:
            notes.append("a fresh process generated different sources")

    gc.collect()
    run.one_pass(pass_no=-1)  # warm-up: fills caches, computes references
    tracer = tracing.Tracer(m) if args.trace else None
    untraced: list[dict] = []
    traced: list[dict] = []
    counted: list[dict] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() < deadline:
        # Set-up samples are taken between passes, spread over the run.
        while not args.trace and len(setup) < SETUP_RUNS and (
                time.perf_counter() - start >= len(setup) * args.seconds / SETUP_RUNS):
            setup.append(setup_seconds())
        gc.collect()
        kind = i % 3 if tracer else 0
        if kind == 0:
            untraced.append(run.one_pass(pass_no=i))
        else:
            (traced if kind == 1 else counted).append(
                run.one_pass(tracer, i, counting=kind == 2))
        i += 1
    while not args.trace and len(setup) < SETUP_RUNS:
        setup.append(setup_seconds())

    if rss and rss["fingerprint"] != run.fingerprint:
        notes.append("a fresh process counted different mults or op counts")
    if run.nondeterministic:
        notes.append("counts changed between passes: "
                     + ", ".join(run.nondeterministic[:3]))
    complete = all(t["complete"] for t in untraced + traced + counted)
    if not complete:
        notes.append("a timed program failed, so timings miss it")

    values: dict[str, list[float]] = {
        name: [t[name] for t in untraced]
        for name in ("compile_s", "run_s", "compile_norm_s", "run_norm_s")}
    values["mults"] = [untraced[0]["counts"]["mults"]]
    if setup:
        values["setup_s"] = setup
        values["peak_rss_mb"] = [rss["peak_rss_mb"]]
    if tracer:
        values.update(layer_metrics(tracer, traced, counted, untraced))
        if any(len(set(values[name])) > 1 for name in
               ("properties.stored_pattern_calls", "properties.infer_calls")):
            notes.append("call counts changed between counting passes")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(str(trace_path))
        print(f"trace: {trace_path.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans, {len(traced)} traced passes)")

    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}
    units.update(compile_s="s", run_s="s")  # wall times, printed for people
    print(f"{'metric':34} {'median':>14}  unit     tail")
    for name, vs in values.items():
        spread = tail(vs) if units.get(name) == "s" and len(vs) > 1 else ""
        print(f"{name:34} {statistics.median(vs):14.6g}  "
              f"{units.get(name, ''):8} {spread}")
    print(f"{'failed_frac':34} {run.failed / run.attempted:14.6g}  "
          f"{'ratio':8} {run.failed}/{run.attempted} programs")
    for (name, why), n in sorted(run.failures.items()):
        print(f"failed: {name} x{n}: {why}")
    for note in notes:
        print(f"check failed: {note}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [x["name"] for x in wanted if x["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no value for {', '.join(missing)}")
    print(json.dumps({
        "correct": not run.wrong and complete and not notes,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {x["name"]: {"value": statistics.median(values[x["name"]]),
                                "unit": x["unit"]} for x in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
