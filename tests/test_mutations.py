"""Mutated programs: the compiler answers with exit code 0, or 1 and one
`error:` diagnostic line, never with an exception; and it answers the same
with and without `--no-opt`, since optimization must not change which
programs are accepted.

Each case applies a few character and token edits to one of
`examples/*.mom`, or changes one dimension of a `tests/gen.py`
program, and compiles it to loop IR (`--emit=loops`). Nothing is
executed, so a mutated dimension allocates nothing.
"""

import contextlib
import io
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momc.cli import main

from gen import random_program

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SOURCES = [open(os.path.join(EXAMPLES, name), encoding="utf-8").read()
           for name in sorted(os.listdir(EXAMPLES)) if name.endswith(".mom")]

# Tokens of the grammar, near misses and numbers at the edges of the types.
VOCABULARY = ["Matrix", "Identity", "print", "transpose", "(", ")", "<", ">",
              ",", "=", "*", "+", ":", "f32", "f64", "f16", "LowerTriangular",
              "UpperTriangular", "Symmetric", "Diagonal", "Lower", "n", "A",
              "I", "0", "1", "-1", "1.5", ".", "1" + "0" * 40, "1" + "0" * 400,
              "\n", " ", "#", "@", "é", "\t", "\r\n", "\r"]
# The characters a char edit inserts or puts in place of another.
ALPHABET = sorted(set("".join(VOCABULARY) + "0123456789_;\"'\\"))
CHARS = st.sampled_from(ALPHABET)
TOKEN = re.compile(r"\w+|\s+|\S")

char_edit = st.tuples(st.just("char"), st.sampled_from(["delete", "insert", "replace"]),
                      st.integers(0, 10**6), CHARS)
token_edit = st.tuples(st.just("token"),
                       st.sampled_from(["delete", "duplicate", "swap", "replace"]),
                       st.integers(0, 10**6), st.sampled_from(VOCABULARY))


def mutate(text: str, edits) -> str:
    for unit, how, at, new in edits:
        if unit == "char":
            i = at % (len(text) + 1)
            if how == "insert":
                text = text[:i] + new + text[i:]
            else:
                text = text[:i] + (new if how == "replace" else "") + text[i + 1:]
            continue
        toks = TOKEN.findall(text)
        if not toks:
            toks = [""]
        i = at % len(toks)
        if how == "delete":
            del toks[i]
        elif how == "duplicate":
            toks.insert(i, toks[i])
        elif how == "swap" and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif how == "replace":
            toks[i] = new
        text = "".join(toks)
    return text


@pytest.fixture(scope="module")
def program_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutations") / "mutated.mom")


def assert_one_answer(path: str, text: str) -> None:
    """Compile `text` with and without `--no-opt`: exit 0, or 1 with one
    diagnostic line, the same both times."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    answers = []
    for flags in ([], ["--no-opt"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path, "--emit=loops", *flags])
        answers.append((code, err.getvalue()))
    code, message = answers[0]
    assert code in (0, 1)
    assert (code == 1) == bool(message), message
    assert code == 0 or ("error:" in message and message.count("\n") == 1), message
    assert answers[1] == answers[0]


@given(source=st.sampled_from(SOURCES),
       edits=st.lists(st.one_of(char_edit, token_edit), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_mutated_examples_exit_0_or_1_with_a_diagnostic(program_path, source, edits):
    assert_one_answer(program_path, mutate(source, edits))


# A dimension of a declaration or of an `Identity(n)` literal.
DIM = re.compile(r"[(,] ?([0-9]+)")


@given(seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 13)),
                      min_size=1, max_size=2))
@settings(max_examples=200, deadline=None)
def test_dim_broken_programs_exit_0_or_1_with_a_diagnostic(program_path, seed,
                                                           edits):
    text = random_program(random.Random(seed))
    for at, new in edits:
        dims = [m.span(1) for m in DIM.finditer(text)]
        start, end = dims[at % len(dims)]
        if text[start:end] == str(new):
            new += 1
        text = f"{text[:start]}{new}{text[end:]}"
    assert_one_answer(program_path, text)
