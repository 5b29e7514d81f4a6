"""Time each compile and run stage of a perfbench workload in process.

    python tools/stage_times.py ROOT [--workload W] [--seed S] [--rounds N]
                                [--ops K]

ROOT is a momc checkout: momc is imported from ROOT/src and the workload's
programs come from ROOT/perfbench/programs.py, which is only read (no
bytecode is written next to it). After one warm-up round, each round
compiles and runs every timed program once through the same calls as
perfbench (`tokenize`, `parse`, `build_ir`, `verify`,
`optimize_and_rematerialize`, `lower_to_loops`, then `execute` once), with
the cyclic collector on. The script prints, per stage, the median over the
rounds of the stage's time summed over the programs, the median time the
collector spent inside it, measured from `gc.callbacks`, and for each
generation (0, 1 and 2, the last a full collection) the median time and
number of that generation's collections inside it; the `compile` row sums
the six compile stages. Then it prints the stage time and collector time
for the executor's kernels inside `execute` (matmul, print, fill, alloc
and add), timed by wrapping `run_matmul`, `format_print`, `run_fill`,
`_zeros` and `run_add` for the round, and the median number of collections
per generation in one round. Since the compile stages pause the collector
and collect generation 0 at most once on their exit, a checkout with that
pause shows few collections in them and no gen-1 or full one. With
`--ops K` it then lists the K slowest kernel calls of `execute`, by the
median of each call's time over the rounds (a round makes the same calls in
the same order), each as its program, kernel, shape, dtype, stored patterns
and, for a matmul, lowering's `exact` and the path and band count that the
executor's own rule (`executor.matmul_path`) gives it on this host; a
checkout without that rule shows neither. The path is `blas` (one BLAS
call: an exact product whose result fits one `EXACT_TILE` square), `tiles`
(a larger exact one), `small` or `loop`; the patterns, `exact` and the
count the rule reads are the arguments `run_matmul` receives (an older
checkout's `run_matmul` returned the count), so a dense product shows FULL
twice and its own `exact`, and is banded by its whole rectangle's mults, as
`Executor.run` passes. Each program's calls are described once its
`execute` has returned, so `--ops` leaves the `execute` row as it reads
without it.

The figures are raw wall times. To compare two checkouts, run the script on
each in turn, a few times alternately, and compare medians.

A few milliseconds between two checkouts here need not come from their
code. A variant of the one-loop print read `kernels` execute at 53-55 ms
against its parent's 49-50, with matmul and fills slower too though no
matmul code had changed, while both loaded in one process and perfbench's
alternating pairs read the same for the two. Confirm such a difference
with perfbench pairs before acting on it.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, as perfbench does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

STAGES = ("tokenize", "parse", "build_ir", "verify", "optimize", "lower", "execute")
COMPILE = STAGES[:-1]
# The executor functions whose calls make up most of `execute`, by kernel.
KERNELS = {"matmul": "run_matmul", "print": "format_print", "fill": "run_fill",
           "alloc": "_zeros", "add": "run_add"}


class StageClock:
    """Wall time and collector time per stage of one round."""

    def __init__(self, ops: bool, matmul_path) -> None:
        self.wall = dict.fromkeys([*STAGES, *KERNELS], 0.0)
        self.gc = dict.fromkeys([*STAGES, *KERNELS], 0.0)
        # per stage, the collector's seconds and collections by generation
        self.gen_s = {stage: [0.0, 0.0, 0.0] for stage in STAGES}
        self.gen_n = {stage: [0, 0, 0] for stage in STAGES}
        self.collections = [0, 0, 0]
        self.stage = STAGES[0]
        self.kernel = None
        self.gc_start = 0.0
        self.program = 0
        # (description, seconds) of each kernel call, in call order
        self.calls: list[tuple[str, float]] | None = [] if ops else None
        # (kernel, arguments, result, seconds) of the calls not yet described
        self.pending: list[tuple] = []
        self.matmul_path = matmul_path

    def on_gc(self, phase: str, info: dict) -> None:
        if self.stage is None:  # describing calls belongs to no stage
            return
        if phase == "start":
            self.gc_start = time.perf_counter()
        else:
            dt = time.perf_counter() - self.gc_start
            gen = info["generation"]
            self.gc[self.stage] += dt
            self.gen_s[self.stage][gen] += dt
            self.gen_n[self.stage][gen] += 1
            if self.kernel is not None:
                self.gc[self.kernel] += dt
            self.collections[gen] += 1

    def wrap(self, kernel: str, fn):
        """fn, adding its wall time to `kernel`'s."""
        def timed(*args):
            self.kernel = kernel
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                dt = time.perf_counter() - t0
                self.wall[kernel] += dt
                self.kernel = None
            if self.calls is not None:
                self.pending.append((kernel, args, result, dt))
            return result
        return timed

    def describe_calls(self) -> None:
        """Describe the calls of the program just executed. This runs after
        its `execute` has returned, so describing is not timed, and drops
        the arguments, so no buffer outlives its program."""
        self.stage = None
        self.calls.extend(
            (f"#{self.program} {describe(kernel, args, result, self.matmul_path)}",
             dt) for kernel, args, result, dt in self.pending)
        self.pending.clear()

    def time(self, stage: str, fn, *args):
        self.stage = stage
        t0 = time.perf_counter()
        out = fn(*args)
        self.wall[stage] += time.perf_counter() - t0
        return out


def describe(kernel: str, args: tuple, result, matmul_path) -> str:
    """Kernel, shape, dtype and stored patterns of one call, from the
    arguments `Executor.run` passes; for a matmul also its `exact`, and the
    path and bands `matmul_path` (if not None) gives it for its count: the
    last argument, or what `run_matmul` returned in a checkout whose
    executor counted the mults itself."""
    if kernel == "alloc":
        return f"alloc {args[1]}"
    a = args[0]
    shape = "x".join(map(str, a.shape))
    if kernel == "matmul":
        b, pa, pb, exact, *count = args[1], *args[3:]
        count = count[0] if count else result
        text = (f"matmul {shape}x{b.shape[1]} {a.dtype} {pa.value} x {pb.value} "
                f"exact={exact}")
        if matmul_path is None:
            return text
        path, bands = matmul_path(*a.shape, b.shape[1], count, exact)
        return f"{text} path={path} bands={bands}"
    if kernel == "add":
        return f"add {shape} {a.dtype}"
    pattern = args[2] if kernel == "fill" else args[1]  # run_fill, format_print
    return f"{kernel} {shape} {a.dtype} {pattern.value}"


def one_round(m, texts: list[str], mode, ops: bool) -> StageClock:
    clock = StageClock(ops, getattr(m.executor, "matmul_path", None))
    real = {name: getattr(m.executor, name) for name in KERNELS.values()}
    for kernel, name in KERNELS.items():
        setattr(m.executor, name, clock.wrap(kernel, real[name]))
    gc.callbacks.append(clock.on_gc)
    try:
        for clock.program, text in enumerate(texts):
            tokens = clock.time("tokenize", m.frontend.tokenize, text)
            ast = clock.time("parse", m.frontend.parse, tokens)
            module = clock.time("build_ir", m.ir.build_ir, ast)
            diags = clock.time("verify", m.ir.verify, module)
            if diags:
                raise SystemExit(f"stage_times: verifier: {diags[0]}")
            opt = clock.time("optimize", m.equation_opt.optimize_and_rematerialize,
                             module)
            lm = clock.time("lower", m.loops.lower_to_loops, opt.module)
            clock.time("execute", m.executor.execute, lm, mode, 1)
            if ops:
                clock.describe_calls()
    finally:
        gc.callbacks.remove(clock.on_gc)
        for name, fn in real.items():
            setattr(m.executor, name, fn)
    return clock


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", help="a momc checkout")
    ap.add_argument("--workload", default="many-stmts")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--ops", type=int, default=0, metavar="K",
                    help="also list the K slowest kernel calls of execute")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.ops < 0:
        ap.error("--ops must not be negative")

    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import momc
    import programs

    mode_name, progs = programs.generate(args.workload, args.seed)
    mode = momc.executor.ExecMode(mode_name)
    texts = [p.text for p in progs if p.timed]
    ops = args.ops > 0
    one_round(momc, texts, mode, ops)  # warm-up
    rounds = [one_round(momc, texts, mode, ops) for _ in range(args.rounds)]

    def ms(values) -> str:
        return f"{statistics.median(values) * 1e3:9.2f}"

    def row(name: str, stages) -> str:
        """A stage row: wall and collector ms, then ms and collections by
        generation, each summed over `stages` within a round."""
        text = (f"{name:<10}{ms([sum(r.wall[s] for s in stages) for r in rounds])}"
                f"{ms([sum(r.gc[s] for s in stages) for r in rounds])}")
        for g in range(3):
            n = statistics.median(sum(r.gen_n[s][g] for s in stages) for r in rounds)
            text += f"{ms([sum(r.gen_s[s][g] for s in stages) for r in rounds])}{n:6g}"
        return text

    print(f"momc from {os.path.dirname(momc.__file__)}")
    print(f"{args.workload} seed {args.seed}: {len(texts)} timed programs, "
          f"{mode_name} mode, median of {args.rounds} rounds")
    print(f"{'stage':<10}{'ms':>9}{'gc ms':>9}"
          + "".join(f"{f'gen{g} ms':>9}{'n':>6}" for g in range(3)))
    for stage in STAGES:
        print(row(stage, (stage,)))
    print(row("compile", COMPILE))
    print("execute by kernel:")
    for kernel in KERNELS:
        print(f"  {kernel:<8}{ms([r.wall[kernel] for r in rounds])}"
              f"{ms([r.gc[kernel] for r in rounds])}")
    counts = [statistics.median(r.collections[g] for r in rounds) for g in range(3)]
    print("collections per round (gen 0/1/2): " + " / ".join(f"{c:g}" for c in counts))
    if ops:
        calls = [(statistics.median(r.calls[i][1] for r in rounds), name)
                 for i, (name, _) in enumerate(rounds[0].calls)]
        print(f"the {args.ops} slowest kernel calls of execute (ms, #program):")
        for t, name in sorted(calls, reverse=True)[:args.ops]:
            print(f"{t * 1e3:9.2f}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
