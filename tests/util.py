"""Pipeline helpers shared by the tests."""

from __future__ import annotations

import importlib.util
import sys
from functools import partial
from pathlib import Path

from momc import executor, pipeline
from momc.equation_opt import OptOptions
from momc.properties import StoredPattern


def load_programs():
    """perfbench/programs.py as a module, read from its file (its
    dataclasses need the module in `sys.modules`)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_programs", Path(__file__).resolve().parent.parent / "perfbench"
        / "programs.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def pattern_contains(pattern: StoredPattern, i: int, j: int) -> bool:
    """Whether entry (i, j) lies in the stored region of a pattern."""
    if pattern is StoredPattern.FULL:
        return True
    if pattern is StoredPattern.LOWER_INCL:
        return i >= j
    if pattern is StoredPattern.UPPER_INCL:
        return i <= j
    return i == j


def stage_result(stage: str, text: str, opt: bool = True):
    """What the driver's `stage` yields for `text`, optimized or not."""
    options = OptOptions(simplify_identities=opt, reorder_chains=opt)
    return next(result for name, result, _ in pipeline.stages(text, options=options)
                if name == stage)


compile_text = partial(stage_result, "verify")  # the verified ir.IRModule
optimize_text = partial(stage_result, "optimize")  # (text, opt=True) -> OptResult
lower_text = partial(stage_result, "lower")  # (text, opt=True) -> LoopModule


def run_text(text: str, mode: executor.ExecMode = executor.ExecMode.DENSE,
             opt: bool = True, repeats: int = 1) -> executor.ExecutionReport:
    return executor.execute(lower_text(text, opt), mode, repeats)
