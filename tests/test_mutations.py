"""Mutated example programs: the compiler answers with exit code 0, or 1 and
an `error:` diagnostic, never with an exception; and it answers the same
with and without `--no-opt`, since optimization must not change which
programs are accepted.

Each case applies a few character and token edits to one of
`examples/*.mom` and compiles it to loop IR (`--emit=loops`). Nothing is
executed, so a mutated dimension allocates nothing.
"""

import contextlib
import io
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momc.cli import main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SOURCES = [open(os.path.join(EXAMPLES, name), encoding="utf-8").read()
           for name in sorted(os.listdir(EXAMPLES)) if name.endswith(".mom")]

# Tokens of the grammar, near misses and numbers at the edges of the types.
VOCABULARY = ["Matrix", "Identity", "print", "transpose", "(", ")", "<", ">",
              ",", "=", "*", "+", ":", "f32", "f64", "f16", "LowerTriangular",
              "UpperTriangular", "Symmetric", "Diagonal", "Lower", "n", "A",
              "I", "0", "1", "-1", "1.5", ".", "1" + "0" * 40, "1" + "0" * 400,
              "\n", " ", "#", "@", "é", "\t"]
CHARS = st.sampled_from(sorted(set("".join(VOCABULARY) + "0123456789_;\"'\\")))
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


@given(source=st.sampled_from(SOURCES),
       edits=st.lists(st.one_of(char_edit, token_edit), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_mutated_examples_exit_0_or_1_with_a_diagnostic(program_path, source, edits):
    with open(program_path, "w", encoding="utf-8") as f:
        f.write(mutate(source, edits))
    answers = []
    for flags in ([], ["--no-opt"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([program_path, "--emit=loops", *flags])
        answers.append((code, err.getvalue()))
    code, message = answers[0]
    assert code in (0, 1)
    assert (code == 1) == bool(message), message
    assert code == 0 or "error:" in message, message
    assert answers[1] == answers[0]
