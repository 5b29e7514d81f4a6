"""Spans and call counts recorded around momc's public functions.

The tracer replaces module attributes of momc with wrappers while it is
installed, during a pass that records spans or during one that counts
calls. A function is wrapped in the namespace it is called from: the
optimizer reaches the chain solver through names imported into
`momc.equation_opt`, so those are the names wrapped, and the chain module's
own recursive calls stay unwrapped. Spans are kept in memory and written at
the end as Chrome trace-event JSON (open it in Perfetto or chrome://tracing).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (module, attribute, span name). Layers are named by momc's modules.
SPANS = (
    ("frontend", "tokenize", "frontend.tokenize"),
    ("frontend", "parse", "frontend.parse"),
    ("frontend", "resolve_constants", "frontend.resolve"),
    ("ir", "build_ir", "ir.build"),
    ("ir", "verify", "ir.verify"),
    ("equation_opt", "optimize_and_rematerialize", "equation_opt.optimize"),
    ("equation_opt", "optimal_parenthesization", "chain.dp"),
    ("equation_opt", "tree_cost", "chain.baseline_cost"),
    ("loops", "lower_to_loops", "loops.lower"),
    ("executor", "execute", "executor.execute"),
    ("executor", "run_fill", "executor.fill"),
    ("executor", "run_matmul", "executor.matmul"),
    ("executor", "run_add", "executor.add"),
    ("executor", "run_transpose", "executor.transpose"),
    ("executor", "format_print", "executor.print"),
)

# Called too often for a span each: counted only.
COUNTED = (
    ("chain", "stored_pattern", "properties.stored_pattern_calls"),
    ("loops", "stored_pattern", "properties.stored_pattern_calls"),
    ("executor", "stored_pattern", "properties.stored_pattern_calls"),
    ("chain", "infer_mul", "properties.infer_calls"),
    ("equation_opt", "infer_mul", "properties.infer_calls"),
    ("equation_opt", "infer_add", "properties.infer_calls"),
    ("equation_opt", "infer_transpose", "properties.infer_calls"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "program", "pass_no")

    def __init__(self, name: str, parent: int, program: str | None,
                 pass_no: int) -> None:
        self.name = name
        self.start = time.perf_counter_ns()
        self.end = self.start
        self.parent = parent
        self.program = program
        self.pass_no = pass_no


class Tracer:
    """Records spans (name, start, end, parent, program) and call counts."""

    def __init__(self, package: Any) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter[tuple[int, str]] = Counter()  # (pass, name)
        self.program: str | None = None
        self.pass_no = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, parent, self.program, self.pass_no)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield
        finally:
            s.end = time.perf_counter_ns()
            self._stack.pop()

    def _spanned(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[self.pass_no, name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, counting: bool) -> None:
        """Wrap the SPANS functions, or with `counting` the COUNTED ones;
        counting wrappers would inflate the spans around them."""
        table, wrap = (COUNTED, self._counted) if counting else (SPANS, self._spanned)
        for mod_name, attr, name in table:
            mod = getattr(self.package, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def pass_layers(self) -> dict[int, dict[str, float]]:
        """Per pass: total seconds (`<name>`), self seconds (`<name>.self`),
        span count (`<name>.n`) by span name, and the call counts."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            layers = out[s.pass_no]
            dur = s.end - s.start
            layers[s.name] += dur / 1e9
            layers[s.name + ".self"] += (dur - child_ns[i]) / 1e9
            layers[s.name + ".n"] += 1
        for (pass_no, name), n in self.counts.items():
            out[pass_no][name] = n
        return out

    def write_chrome(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0
        events = [{
            "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
            "ts": (s.start - t0) / 1e3, "dur": (s.end - s.start) / 1e3,
            "pid": 1, "tid": 1,
            "args": {"program": s.program, "pass": s.pass_no,
                     "parent": s.parent, "id": i},
        } for i, s in enumerate(self.spans)]
        last: dict[int, float] = {}
        for s in self.spans:
            last[s.pass_no] = (s.end - t0) / 1e3
        by_pass: dict[int, dict[str, int]] = defaultdict(dict)
        for (pass_no, name), n in self.counts.items():
            by_pass[pass_no][name] = n
        events += [{"name": "calls", "ph": "C", "ts": last.get(p, 0.0),
                    "pid": 1, "args": c} for p, c in sorted(by_pass.items())]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
