"""Independent reference evaluator and output checks.

The evaluator walks the generator's own expression tree with numpy in
float64, in source order (products fold left), and never touches momc's IR.
A program's printed output is then compared value by value:

- exact programs (integer fills bounded so every result is an integer below
  2**22 in f32 or 2**51 in f64) must match bit for bit;
- other programs must match within RTOL of the element kind. momc prints six
  significant digits, which alone costs up to 5e-6 relative; f32 adds the
  rounding of sums of up to 1200 products.
"""

from __future__ import annotations

import numpy as np

from programs import F32, Expr, Program

RTOL = {F32: 1e-3, "f64": 2e-5}


def _stored(props: tuple[str, ...], rows: int, cols: int) -> np.ndarray:
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    if "Diagonal" in props or {"LowerTriangular", "UpperTriangular"} <= set(props):
        return i == j
    if "LowerTriangular" in props:
        return i >= j
    if "UpperTriangular" in props:
        return i <= j
    return np.ones((rows, cols), dtype=bool)


def evaluate(p: Program) -> list[tuple[np.ndarray, str]]:
    """(value, element kind) of every print statement, in source order."""
    env: dict[str, tuple[np.ndarray, str]] = {}
    for s in p.stmts:
        if s[0] == "mat":
            m = s[1]
            a = np.zeros((m.rows, m.cols))
            a[_stored(m.props, m.rows, m.cols)] = m.fill
            env[m.name] = (a, m.elem)
        elif s[0] == "ident":
            env[s[1].name] = (np.eye(s[1].order), s[1].elem)

    def ev(e: Expr) -> tuple[np.ndarray, str]:
        tag = e[0]
        if tag in ("in", "ref"):
            return env[e[1]]
        if tag == "id":
            return np.eye(e[1]), F32
        if tag == "t":
            a, elem = ev(e[1])
            return a.T, elem
        parts = [ev(c) for c in e[1]]
        acc = parts[0][0]
        for a, _ in parts[1:]:
            acc = acc @ a if tag == "mul" else acc + a
        return acc, parts[0][1]

    out = []
    for s in p.stmts:
        if s[0] == "assign":
            env[s[1]] = ev(s[2])
        elif s[0] == "print":
            out.append(ev(s[1]))
    return out


def check_print(text: str, ref: np.ndarray, elem: str, exact: bool) -> str | None:
    """None if one printed block matches the reference, else the reason."""
    header, _, body = text.partition("\n")
    want = f"{ref.shape[0]}x{ref.shape[1]} {elem}"
    if header != want:
        return f"header {header!r}, expected {want!r}"
    try:
        got = np.array(body.split(), dtype=np.float64)
    except ValueError:
        return "unparseable entries"
    if got.size != ref.size:
        return f"{got.size} entries, expected {ref.size}"
    want_v = ref.reshape(-1)
    if exact:
        bad = np.flatnonzero(got != want_v)
    else:
        bad = np.flatnonzero(np.abs(got - want_v) > RTOL[elem] * np.abs(want_v))
    if bad.size:
        k = int(bad[0])
        return (f"{bad.size} entries differ, first at {divmod(k, ref.shape[1])}: "
                f"{got[k]!r} vs {want_v[k]!r}")
    return None
