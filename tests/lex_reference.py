"""Reference lexer for the tests: the character-at-a-time loop that
`frontend.tokenize` replaced. `tokenize` must give the same tokens, or the
same `LexError`, on every input."""

from __future__ import annotations

import string

from momc.errors import LexError
from momc.frontend import Token, TokenKind

# The grammar's identifiers and numbers are ASCII; `str.isalpha` and
# `str.isdigit` would also accept letters and digits of other scripts.
_DIGITS = frozenset(string.digits)
_WORD_START = frozenset(string.ascii_letters + "_")
_WORD = _WORD_START | _DIGITS

_KEYWORDS = {
    "Matrix": TokenKind.KW_MATRIX,
    "Identity": TokenKind.KW_IDENTITY,
    "print": TokenKind.KW_PRINT,
    "transpose": TokenKind.KW_TRANSPOSE,
}

_PUNCT = {
    "=": TokenKind.EQUALS,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    ",": TokenKind.COMMA,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    ":": TokenKind.COLON,
}


def tokenize_reference(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            tokens.append((TokenKind.NEWLINE, "\n", line, col))
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
        elif c in _WORD_START:
            start, startcol = i, col
            while i < n and text[i] in _WORD:
                i += 1
                col += 1
            word = text[start:i]
            tokens.append((_KEYWORDS.get(word, TokenKind.IDENT), word, line,
                           startcol))
        elif c in _DIGITS:
            start, startcol = i, col
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            kind = TokenKind.INT
            if i + 1 < n and text[i] == "." and text[i + 1] in _DIGITS:
                kind = TokenKind.FLOAT
                i += 1
                col += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
                    col += 1
            tokens.append((kind, text[start:i], line, startcol))
        elif c in _PUNCT:
            tokens.append((_PUNCT[c], c, line, col))
            i += 1
            col += 1
        else:
            raise LexError(line, col, c)
    tokens.append((TokenKind.EOF, "", line, col))
    return tokens
