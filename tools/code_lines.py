"""Count the code lines of Python files.

    python tools/code_lines.py PATH...

A code line is a line that holds part of a token other than a comment: a
blank line, a line with only a comment and each line of a docstring (the
string that opens a module, class or function body) do not count, and a
statement written over three lines counts three. The script prints each
file's count and then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", metavar="PATH")
    total = 0
    for path in ap.parse_args().paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        print(f"{n:7d} {path}")
        total += n
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
