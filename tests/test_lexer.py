"""`frontend.tokenize` against the character loop it replaced
(`lex_reference.py`): the same (kind, text, line, col) tokens, or the same
`LexError` text, on every input."""

import gc
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import default_seed, random_program
from lex_reference import tokenize_reference
from momc.errors import LexError
from momc.frontend import tokenize

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")

# The grammar's alphabet, the blanks it accepts and the ones it does not,
# letters and digits of other scripts, and the number shapes at its edges.
PIECES = (list("AZaz_09=()<>,*+:#.\n \t\r\f\v") +
          ["\r\n", "é", "²", "٣", "1.", "1.2.3", "12.50",
           "Matrix", "Identity", "print", "transpose", "# note", "  \t "])


def lexed(lex, text):
    try:
        return lex(text)
    except LexError as e:
        return str(e)


@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@settings(max_examples=1500, deadline=None)
def test_tokenize_matches_reference(text):
    assert lexed(tokenize, text) == lexed(tokenize_reference, text)


def test_tokens_are_plain_tuples_the_collector_untracks():
    with open(os.path.join(EXAMPLES, "listing1.mom"), encoding="utf-8") as f:
        tokens = tokenize(f.read())
    gc.collect()
    for tok in tokens:
        assert type(tok) is tuple
        assert [type(x) for x in tok] == [str, str, int, int]
        assert not gc.is_tracked(tok)


def test_tokenize_matches_reference_on_examples_and_programs():
    texts = [open(os.path.join(EXAMPLES, name), encoding="utf-8").read()
             for name in sorted(os.listdir(EXAMPLES)) if name.endswith(".mom")]
    assert len(texts) == 3
    rng = random.Random(default_seed() ^ 0x1E)
    texts += [random_program(rng) for _ in range(300)]
    for text in texts:
        want = lexed(tokenize_reference, text)
        assert isinstance(want, list)
        assert lexed(tokenize, text) == want
