"""The frontend's answer to a fixed corpus, pinned in
`tests/golden/frontend_outcomes.txt`, one line per program.

The corpus is `examples/*.mom`, 100 `gen.random_program` programs and 2,000
seeded mutants (`test_mutations.mutate`, 1-3 char or token edits drawn from
its `VOCABULARY` and `ALPHABET`) of the examples and of generated programs.
Each program goes through `frontend.parse_source` in process, so a `\\r`
reaches the lexer as written, as it does through the CLI, which reads the
file with `newline=""`. Its line is the `CompileError`'s class and
text with its location, or `ok` and two sha256 prefixes: of `pretty(ast)`,
which is what `--emit=ast` prints, and of `repr(ast)`, which also holds
each statement's and declaration's location and each declaration's element
kind and fill; a name operand is the bare identifier and carries none.

A change that means to alter a diagnostic or an AST regenerates the file:

    PYTHONPATH=src:tests python tests/test_frontend_outcomes.py \\
        > tests/golden/frontend_outcomes.txt
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

from momc.errors import CompileError
from momc.frontend import parse_source, pretty

from gen import random_program
from test_mutations import ALPHABET, SOURCES, VOCABULARY, mutate

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "frontend_outcomes.txt")
EXAMPLE_NAMES = sorted(name for name in os.listdir(
    os.path.join(os.path.dirname(__file__), "..", "examples")) if name.endswith(".mom"))
GENERATED = 100
MUTANTS = 2000


def random_edits(rng: random.Random) -> list[tuple]:
    """1-3 edits of the kinds `test_mutations` draws."""
    edits = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            edits.append(("char", rng.choice(["delete", "insert", "replace"]),
                          rng.randrange(10**6), rng.choice(ALPHABET)))
        else:
            edits.append(("token",
                          rng.choice(["delete", "duplicate", "swap", "replace"]),
                          rng.randrange(10**6), rng.choice(VOCABULARY)))
    return edits


def corpus() -> list[tuple[str, str]]:
    """(name, text) for the examples, the generated programs, then the
    mutants; every fourth mutant is of a generated program."""
    programs = list(zip(EXAMPLE_NAMES, SOURCES))
    programs += [(f"gen{i}", random_program(random.Random(i)))
                 for i in range(GENERATED)]
    for i in range(MUTANTS):
        rng = random.Random(i)
        if i % 4 == 3:
            text = random_program(random.Random(i))
        else:
            text = SOURCES[i % len(SOURCES)]
        programs.append((f"mut{i}", mutate(text, random_edits(rng))))
    return programs


def outcome(text: str) -> str:
    try:
        ast = parse_source(text)
    except CompileError as e:
        return f"{type(e).__name__}: {e}"
    shown, full = (hashlib.sha256(s.encode()).hexdigest()[:16]
                   for s in (pretty(ast), repr(ast)))
    return f"ok {shown} {full}"


def outcome_lines() -> list[str]:
    return [f"{name}\t{outcome(text)}" for name, text in corpus()]


def golden_lines() -> list[str]:
    with open(GOLDEN, encoding="utf-8") as f:
        return f.read().splitlines()


def test_frontend_outcomes_match_golden():
    want, got = golden_lines(), outcome_lines()
    assert len(got) == len(want) == len(EXAMPLE_NAMES) + GENERATED + MUTANTS
    diffs = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diffs, f"{len(diffs)} outcomes differ; the first: {diffs[0]}"


def test_corpus_reaches_every_outcome_kind():
    """The corpus still meets these diagnostics and carriage returns, so a
    change to any of them shows in the file."""
    kinds = {line.split("\t")[1].split(":")[0].split()[0] for line in golden_lines()}
    assert kinds >= {"ok", "LexError", "ParseError", "UndeclaredIdentifier",
                     "DuplicateDeclaration", "UnboundConstant", "UnknownProperty",
                     "NonPositiveDimension", "NonSquareStructuralProperty"}
    assert any("\r" in text for _, text in corpus())


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in outcome_lines()))
