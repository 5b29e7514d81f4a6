"""Command-line driver: parse -> IR -> optimize -> lower -> execute/benchmark.

Exit codes: 0 on success, 1 on any frontend/verifier/runtime diagnostic,
2 on invalid flags (argparse's convention). All stage dumps go to stdout and
are byte-deterministic for a given input and flag set.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import equation_opt, frontend, ir, loops
from .chain import ChainSolution, tree_string
from .equation_opt import ChainReport, OptOptions
from .errors import CompileError
from .record import Record

EMIT_STAGES = ("ast", "ir", "ir-opt", "chain", "loops", "none")


class BenchReport(Record):
    """Baseline (source parenthesization) vs chain-reordered execution."""

    __slots__ = ("baseline_mults", "optimized_mults", "baseline_min_ns",
                 "optimized_min_ns")

    def __init__(self, baseline_mults: int, optimized_mults: int, baseline_min_ns: int,
                 optimized_min_ns: int) -> None:
        self.baseline_mults = baseline_mults
        self.optimized_mults = optimized_mults
        self.baseline_min_ns = baseline_min_ns
        self.optimized_min_ns = optimized_min_ns

    @property
    def mult_ratio(self) -> Fraction:
        return Fraction(self.baseline_mults, self.optimized_mults)

    @property
    def speedup(self) -> float:
        if self.optimized_min_ns == 0:
            return 1.0
        return self.baseline_min_ns / self.optimized_min_ns

    def render(self) -> str:
        ratio = self.mult_ratio
        return "\n".join([
            f"baseline: total mults {self.baseline_mults}, "
            f"min total time {self.baseline_min_ns / 1e6:.3f} ms",
            f"optimized: total mults {self.optimized_mults}, "
            f"min total time {self.optimized_min_ns / 1e6:.3f} ms",
            f"mult ratio: {ratio.numerator}/{ratio.denominator} = "
            f"{float(ratio):.4f}",
            f"speedup: {self.speedup:.2f}x",
        ]) + "\n"

    def to_kv(self) -> str:
        ratio = self.mult_ratio
        return "\n".join([
            f"baseline.total.mults={self.baseline_mults}",
            f"baseline.total.min_ns={self.baseline_min_ns}",
            f"optimized.total.mults={self.optimized_mults}",
            f"optimized.total.min_ns={self.optimized_min_ns}",
            f"mult_ratio={ratio.numerator}/{ratio.denominator}",
            f"speedup={self.speedup:.4f}",
        ]) + "\n"


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="momc",
        description="Mini compiler for dense matrix programs (.mom files).")
    p.add_argument("input", help="program file (UTF-8, .mom)")
    p.add_argument("--emit", choices=EMIT_STAGES, default="none",
                   help="dump one pipeline stage to stdout")
    p.add_argument("--run", action="store_true",
                   help="execute the program and print its tensors")
    p.add_argument("--bench", action="store_true",
                   help="time the baseline vs chain-reordered program")
    p.add_argument("--mode", choices=[m.value for m in loops.ExecMode],
                   default="dense", help="kernel iteration mode")
    p.add_argument("--repeats", type=int, default=5, metavar="N",
                   help="timed runs for --report and per --bench variant "
                        "(minimum is reported)")
    p.add_argument("--report", metavar="PATH",
                   help="write a key=value execution report to PATH")
    p.add_argument("--no-opt", dest="opt", action="store_false",
                   help="disable identity simplification and chain reordering")
    p.add_argument("--scale", type=int, default=1, metavar="D",
                   help="divide every dimension by D (for fast runs)")
    return p


def parse_config(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed flags, with `mode` as a `loops.ExecMode`."""
    p = build_arg_parser()
    ns = p.parse_args(argv)
    if ns.bench and ns.emit != "none":
        p.error("--bench cannot be combined with --emit")
    if ns.bench and ns.run:
        p.error("--bench cannot be combined with --run")
    if ns.bench and not ns.opt:
        p.error("--bench cannot be combined with --no-opt")
    if ns.report and not (ns.run or ns.bench):
        p.error("--report needs --run or --bench")
    if ns.repeats < 1:
        p.error("--repeats must be at least 1")
    if ns.scale < 1:
        p.error("--scale must be at least 1")
    ns.mode = loops.ExecMode(ns.mode)
    return ns


def render_chain_report(rep: ChainReport) -> str:
    """Cost table, chosen splits, and the bracketed parenthesizations."""
    sol: ChainSolution = rep.solution
    k = len(rep.operands)
    lines = [f"{rep.label}: chain of {k}"]
    shapes = " ".join(
        f"{name}[{o.rows}x{o.cols},{o.props.render()}]"
        for name, o in zip(rep.operand_names, rep.operands))
    lines.append(f"  operands: {shapes}")
    for i in range(k):
        for j in range(i + 1, k):
            lines.append(f"  m[{i}][{j}]={sol.cost[i][j]} split={sol.split[i][j]}")
    lines.append(f"  baseline: {tree_string(rep.baseline_tree, rep.operand_names)}"
                 f" cost {rep.baseline_cost}")
    lines.append(f"  optimal: {tree_string(sol.tree, rep.operand_names)}"
                 f" cost {sol.total_cost}")
    return "\n".join(lines) + "\n"


def bench(module: ir.IRModule, mode: loops.ExecMode,
          repeats: int) -> BenchReport:
    """Execute the source-order and the chain-reordered variants.

    The baseline keeps identity simplification on, so the comparison isolates
    the effect of re-parenthesization.
    """
    from . import executor  # loads numpy; a compile-only run never does
    base = equation_opt.optimize_and_rematerialize(
        module, OptOptions(simplify_identities=True, reorder_chains=False))
    opt = equation_opt.optimize_and_rematerialize(
        module, OptOptions(simplify_identities=True, reorder_chains=True))
    base_lm = loops.lower_to_loops(base.module)
    opt_lm = loops.lower_to_loops(opt.module)
    if not any(isinstance(op, loops.MatMul) for op in base_lm.ops):
        raise CompileError("nothing to benchmark: the program performs no "
                           "multiplication")
    base_rep = executor.execute(base_lm, mode, repeats)
    opt_rep = executor.execute(opt_lm, mode, repeats)
    return BenchReport(base_rep.total_mults, opt_rep.total_mults,
                       base_rep.total_min_ns, opt_rep.total_min_ns)


def _check_utf8(text: str) -> None:
    """Report the first byte that is not UTF-8, which reading with
    errors="surrogateescape" left as a lone surrogate U+DC80..U+DCFF."""
    bad = re.search("[\udc80-\udcff]", text)
    if bad:
        at = bad.start()
        raise CompileError(f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xdc00:02x}",
                           line=text.count("\n", 0, at) + 1,
                           col=at - text.rfind("\n", 0, at))


def _write_report(path: str, text: str) -> bool:
    """Write a --report file; on failure say so on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        print(f"momc: cannot write {path}: {e.strerror}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone. Point stdout at devnull so that the
        # interpreter's flush at exit does not fail again (see the SIGPIPE
        # note in Python's `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv: list[str] | None) -> int:
    cfg = parse_config(argv)
    try:
        with open(cfg.input, encoding="utf-8", errors="surrogateescape",
                  newline="") as f:
            text = f.read()
    except OSError as e:
        print(f"momc: cannot read {cfg.input}: {e.strerror}", file=sys.stderr)
        return 1

    try:
        _check_utf8(text)
        ast = frontend.parse_source(text, cfg.scale)
        if cfg.emit == "ast":
            sys.stdout.write(frontend.pretty(ast))
        module = ir.build_ir(ast)
        errors = ir.verify(module)
        if errors:
            raise errors[0]
        if cfg.emit == "ir":
            sys.stdout.write(ir.print_ir(module))

        if cfg.bench:
            report = bench(module, cfg.mode, cfg.repeats)
            sys.stdout.write(report.render())
            if cfg.report and not _write_report(cfg.report, report.to_kv()):
                return 1
            return 0

        options = OptOptions(simplify_identities=cfg.opt, reorder_chains=cfg.opt)
        chosen = None
        if cfg.emit == "chain":
            # The chain report shows the optimizing run, even under --no-opt.
            chosen = equation_opt.optimize_and_rematerialize(module, OptOptions())
            for rep in chosen.chains:
                sys.stdout.write(render_chain_report(rep))
        if chosen is None or not cfg.opt:
            chosen = equation_opt.optimize_and_rematerialize(module, options)
        if cfg.emit == "ir-opt":
            sys.stdout.write(ir.print_ir(chosen.module))
        lm = loops.lower_to_loops(chosen.module)
        if cfg.emit == "loops":
            sys.stdout.write(loops.print_loops(lm))

        if cfg.run:
            from . import executor
            # Only the report's timings need more than one run.
            repeats = cfg.repeats if cfg.report else 1
            run_report = executor.execute(lm, cfg.mode, repeats)
            for block in run_report.printed:
                sys.stdout.write(block + "\n")
            if cfg.report and not _write_report(cfg.report, run_report.to_kv()):
                return 1
    except CompileError as e:
        if e.origin is None:
            e.origin = cfg.input
        print(str(e), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
