"""Time each compile and run stage of a perfbench workload in process.

    python tools/stage_times.py ROOT [--workload W] [--seed S] [--rounds N]
                                [--ops K]

ROOT is a momc checkout: momc is imported from ROOT/src and the workload's
programs come from ROOT/perfbench/programs.py, which is only read (no
bytecode is written next to it). After one warm-up round, each round
compiles every timed program once through the compile driver
(`momc.pipeline.stages`) and runs it with `execute` once, with the cyclic
collector on. Each stage's time is the ns the driver yields for it, and
each collection, seen through `gc.callbacks`, is charged to the stage whose
yield comes next, or to `execute`; so the stages and their order are the
driver's. The script prints, per stage, the median over the rounds of the
stage's time summed over the programs, the median time the collector spent
inside it, and for each generation (0, 1 and 2, the last a full
collection) the median time and number of that generation's collections
inside it; the `compile` row sums the stages before `execute`. Then it
prints the stage time and collector time for the executor's kernels inside
`execute` (matmul, print, fill, alloc and add), timed by wrapping
`run_matmul`, `format_print`, `run_fill`, `_zeros` and `run_add` for the
round, and the median number of collections per generation in one round.
Since the compile stages pause the collector and collect generation 0 at
most once on their exit, they show few collections and no gen-1 or full
one. With `--ops K` it then lists the K slowest kernel calls of `execute`,
by the median of each call's time over the rounds (a round makes the same
calls in the same order), each as its program, kernel, shape, dtype, stored
patterns and, for a matmul, lowering's `exact` and the path and band count
that the executor's own rule (`executor.matmul_path`) gives it on this
host. The path is `blas` (one BLAS call: an exact product whose result fits
one `EXACT_TILE` square), `tiles` (a larger exact one), `small` or `loop`;
the patterns, `exact` and the count the rule reads are the arguments
`run_matmul` receives, so a dense product shows FULL twice and its own
`exact`, and is banded by its whole rectangle's mults, as `Executor.run`
passes. Each program's calls are described once its `execute` has
returned, so `--ops` leaves the `execute` row as it reads without it.

A checkout older than the driver, without `momc.pipeline`, is timed with
the copy of this script in its own `tools/`.

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

# The executor functions whose calls make up most of `execute`, by kernel.
KERNELS = {"matmul": "run_matmul", "print": "format_print", "fill": "run_fill",
           "alloc": "_zeros", "add": "run_add"}


class StageClock:
    """Wall time and collector time per stage and kernel of one round."""

    def __init__(self, ops: bool) -> None:
        # per stage, in the order first charged: seconds, and the
        # (generation, seconds) of each collection charged to it
        self.wall: dict[str, float] = {}
        self.collected: dict[str, list[tuple[int, float]]] = {}
        self.kernel_wall = dict.fromkeys(KERNELS, 0.0)
        self.kernel_gc = dict.fromkeys(KERNELS, 0.0)
        # (generation, seconds) of the collections since the last charge
        self.unclaimed: list[tuple[int, float]] = []
        self.kernel = None
        self.gc_start = 0.0
        self.program = 0
        # (description, seconds) of each kernel call, in call order
        self.calls: list[tuple[str, float]] | None = [] if ops else None
        # (kernel, arguments, seconds) of the calls not yet described
        self.pending: list[tuple] = []

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_start = time.perf_counter()
            return
        dt = time.perf_counter() - self.gc_start
        self.unclaimed.append((info["generation"], dt))
        if self.kernel is not None:
            self.kernel_gc[self.kernel] += dt

    def charge(self, stage: str, seconds: float) -> None:
        """Add `seconds` to `stage`'s time, and to its collector time the
        collections since the last charge."""
        self.wall[stage] = self.wall.get(stage, 0.0) + seconds
        self.collected.setdefault(stage, []).extend(self.unclaimed)
        self.unclaimed.clear()

    def wrap(self, kernel: str, fn):
        """fn, adding its wall time to `kernel`'s."""
        def timed(*args):
            self.kernel = kernel
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                dt = time.perf_counter() - t0
                self.kernel_wall[kernel] += dt
                self.kernel = None
            if self.calls is not None:
                self.pending.append((kernel, args, dt))
            return result
        return timed

    def describe_calls(self, matmul_path) -> None:
        """Describe the calls of the program just executed. This runs after
        its `execute` has returned, so describing is not timed and its
        collections are charged to no stage, and drops the arguments, so no
        buffer outlives its program."""
        before = len(self.unclaimed)
        self.calls.extend(
            (f"#{self.program} {describe(kernel, args, matmul_path)}", dt)
            for kernel, args, dt in self.pending)
        self.pending.clear()
        del self.unclaimed[before:]


def describe(kernel: str, args: tuple, matmul_path) -> str:
    """Kernel, shape, dtype and stored patterns of one call, from the
    arguments `Executor.run` passes; for a matmul also its `exact`, and the
    path and bands `matmul_path` gives it for its count, the last argument."""
    if kernel == "alloc":
        return f"alloc {args[1]}"
    a = args[0]
    shape = "x".join(map(str, a.shape))
    if kernel == "matmul":
        b, pa, pb, exact, count = args[1], *args[3:]
        path, bands = matmul_path(*a.shape, b.shape[1], count, exact)
        return (f"matmul {shape}x{b.shape[1]} {a.dtype} {pa.value} x {pb.value} "
                f"exact={exact} path={path} bands={bands}")
    if kernel == "add":
        return f"add {shape} {a.dtype}"
    pattern = args[2] if kernel == "fill" else args[1]  # run_fill, format_print
    return f"{kernel} {shape} {a.dtype} {pattern.value}"


def one_round(m, texts: list[str], mode, ops: bool) -> StageClock:
    clock = StageClock(ops)
    real = {name: getattr(m.executor, name) for name in KERNELS.values()}
    for kernel, name in KERNELS.items():
        setattr(m.executor, name, clock.wrap(kernel, real[name]))
    gc.callbacks.append(clock.on_gc)
    try:
        for clock.program, text in enumerate(texts):
            for stage, lm, ns in m.pipeline.stages(text):
                clock.charge(stage, ns / 1e9)
            t0 = time.perf_counter()
            m.executor.execute(lm, mode, 1)  # the last stage's result
            clock.charge("execute", time.perf_counter() - t0)
            if ops:
                clock.describe_calls(m.executor.matmul_path)
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
    import momc.pipeline
    import programs

    mode_name, progs = programs.generate(args.workload, args.seed)
    mode = momc.executor.ExecMode(mode_name)
    texts = [p.text for p in progs if p.timed]
    ops = args.ops > 0
    one_round(momc, texts, mode, ops)  # warm-up
    rounds = [one_round(momc, texts, mode, ops) for _ in range(args.rounds)]

    def ms(values) -> str:
        return f"{statistics.median(values) * 1e3:9.2f}"

    def collections(r: StageClock, stages, gens=(0, 1, 2)) -> list[float]:
        """The seconds of each of round r's collections of generations
        `gens` charged to `stages`."""
        return [dt for s in stages for g, dt in r.collected[s] if g in gens]

    def row(name: str, stages) -> str:
        """A stage row: wall and collector ms, then ms and collections by
        generation, each summed over `stages` within a round."""
        text = (f"{name:<10}{ms([sum(r.wall[s] for s in stages) for r in rounds])}"
                f"{ms([sum(collections(r, stages)) for r in rounds])}")
        for g in range(3):
            n = statistics.median(len(collections(r, stages, (g,))) for r in rounds)
            text += f"{ms([sum(collections(r, stages, (g,))) for r in rounds])}{n:6g}"
        return text

    stages = list(rounds[0].wall)  # the driver's, then execute
    print(f"momc from {os.path.dirname(momc.__file__)}")
    print(f"{args.workload} seed {args.seed}: {len(texts)} timed programs, "
          f"{mode_name} mode, median of {args.rounds} rounds")
    print(f"{'stage':<10}{'ms':>9}{'gc ms':>9}"
          + "".join(f"{f'gen{g} ms':>9}{'n':>6}" for g in range(3)))
    for stage in stages:
        print(row(stage, (stage,)))
    print(row("compile", stages[:-1]))
    print("execute by kernel:")
    for kernel in KERNELS:
        print(f"  {kernel:<8}{ms([r.kernel_wall[kernel] for r in rounds])}"
              f"{ms([r.kernel_gc[kernel] for r in rounds])}")
    counts = [statistics.median(len(collections(r, stages, (g,))) for r in rounds)
              for g in range(3)]
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
