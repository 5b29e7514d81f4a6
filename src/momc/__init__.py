"""momc: a mini compiler for dense matrix programs.

Pipeline: a small textual DSL is parsed into a property-typed matrix IR,
equations are simplified (identity elimination), intermediate types are
inferred from operand structure, variadic multiplications are re-grouped by
a structure-aware matrix-chain solver, and the result lowers to a loop-level
IR executed by instrumented dense or pattern-specialized kernels.

The executor, and numpy with it, loads on first use: `import momc` and a
compile-only run import no numpy, and `momc.executor`, `momc.execute`,
`momc.Executor` and `momc.ExecutionReport` import it when first reached.
"""

import importlib

from .chain import ChainSolution, optimal_parenthesization
from .equation_opt import OptOptions, optimize_and_rematerialize
from .errors import CompileError
from .frontend import Ast, parse, parse_source, tokenize
from .ir import IRModule, build_ir, print_ir, verify
from .loops import ExecMode, LoopModule, lower_to_loops, print_loops
from .properties import (
    ElemKind,
    Property,
    PropertySet,
    StoredPattern,
    canonicalize,
    infer_add,
    infer_mul,
    infer_transpose,
    stored_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "Ast",
    "ChainSolution",
    "CompileError",
    "ElemKind",
    "ExecMode",
    "ExecutionReport",
    "Executor",
    "IRModule",
    "LoopModule",
    "OptOptions",
    "Property",
    "PropertySet",
    "StoredPattern",
    "build_ir",
    "canonicalize",
    "execute",
    "infer_add",
    "infer_mul",
    "infer_transpose",
    "lower_to_loops",
    "optimal_parenthesization",
    "optimize_and_rematerialize",
    "parse",
    "parse_source",
    "print_ir",
    "print_loops",
    "stored_pattern",
    "tokenize",
    "verify",
]

_LAZY = frozenset({"executor", "execute", "Executor", "ExecutionReport"})


def __getattr__(name):
    # PEP 562. Not `from . import executor`: its fromlist handling asks
    # `hasattr(momc, "executor")` first, which lands here again.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    executor = importlib.import_module(".executor", __name__)
    return executor if name == "executor" else getattr(executor, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
