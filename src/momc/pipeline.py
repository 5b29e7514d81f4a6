"""The compile driver: the one place that runs the six stages in order.

`stages` runs `frontend.tokenize`, `frontend.parse`, `ir.build_ir`,
`ir.verify`, `equation_opt.optimize_and_rematerialize` and
`loops.lower_to_loops`, and yields `(stage, result, ns)` after each, as
MLIR's pass manager calls `runAfterPass`: the caller's loop body is the
hook. A caller that needs no later stage returns from its loop, and the
later stages never run. The `verify` stage yields the verified module, or
raises its first diagnostic. Each stage is looked up on its module when it
is called, so a wrapper put there (perfbench's tracer) sees every compile.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Iterator

from . import equation_opt, frontend, ir, loops
from .equation_opt import OptOptions


def _timed(stage: Callable, *args) -> tuple[Any, int]:
    start = perf_counter_ns()
    return stage(*args), perf_counter_ns() - start


def stages(text: str, scale: int = 1, options: OptOptions | None = None
           ) -> Iterator[tuple[str, Any, int]]:
    """Compile `text` with its dimensions divided by `scale` and the
    optimizer's `options` (by default `OptOptions()`), yielding each stage's
    name, its result and its wall time in ns."""
    tokens, ns = _timed(frontend.tokenize, text)
    yield "tokenize", tokens, ns
    ast, ns = _timed(frontend.parse, tokens, scale)
    yield "parse", ast, ns
    module, ns = _timed(ir.build_ir, ast)
    yield "build_ir", module, ns
    diags, ns = _timed(ir.verify, module)
    if diags:
        raise diags[0]
    yield "verify", module, ns
    opt, ns = _timed(equation_opt.optimize_and_rematerialize, module,
                     OptOptions() if options is None else options)
    yield "optimize", opt, ns
    lm, ns = _timed(loops.lower_to_loops, opt.module)
    yield "lower", lm, ns
