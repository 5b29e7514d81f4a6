"""Time fresh `python -m momc` processes of two checkouts, alternating.

    python tools/cli_times.py OLD_ROOT NEW_ROOT [-n N]

The first row times `python -c "import momc"`, the start-up every run pays.
The programs are written once to a temporary directory: `examples/listing1.mom`,
`examples/chain4.mom` and `stmts660.mom`, perfbench's largest timed
`many-stmts` program at seed 1 (about 3,000 lines), all taken from the
checkout this script sits in. Each runs with `--emit=loops` and with `--run`.
For the import and every (program, flags) pair the script starts N
(default 15) fresh interpreters per checkout, alternating the sides and which
of them goes first, with PYTHONPATH set to ROOT/src and
PYTHONDONTWRITEBYTECODE=1, and times each from start to exit. It prints, per row, the exit code, each
side's median wall time, their ratio and the number of rounds in which the
new side was faster; then whether each checkout's `src/momc` holds bytecode,
since bytecode on one side only skews the comparison. It exits 1 if any run's
stdout or exit code differs from the old side's first run.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAGS = (["--emit=loops"], ["--run"])


def write_programs(directory: str) -> list[str]:
    """The program files, written to `directory`."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import programs

    texts = {}
    for name in ("listing1.mom", "chain4.mom"):
        with open(os.path.join(REPO, "examples", name), encoding="utf-8") as f:
            texts[name] = f.read()
    _, progs = programs.generate("many-stmts", 1)
    texts["stmts660.mom"] = next(p.text for p in progs if p.name == "stmts660")
    paths = []
    for name, text in texts.items():
        paths.append(os.path.join(directory, name))
        with open(paths[-1], "w", encoding="utf-8", newline="") as f:
            f.write(text)
    return paths


def run(root: str, argv: list[str]) -> tuple[float, int, bytes]:
    """(wall seconds, exit code, stdout) of one fresh `python *argv`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=600)
    return time.perf_counter() - t0, done.returncode, done.stdout


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_root")
    p.add_argument("new_root")
    p.add_argument("-n", type=int, default=15, help="runs per checkout")
    args = p.parse_args()
    if args.n < 1:
        p.error("-n must be at least 1")
    roots = [os.path.abspath(args.old_root), os.path.abspath(args.new_root)]

    differ = []
    print(f"old {roots[0]}\nnew {roots[1]}\nmedian wall ms of {args.n} fresh "
          "processes per side")
    print(f"{'program':<14}{'flags':<14}{'exit':>5}{'old':>9}{'new':>9}"
          f"{'new/old':>9}  new faster")
    with tempfile.TemporaryDirectory(prefix="cli_times_") as directory:
        rows = [("import momc", "", ["-c", "import momc"])] + [
            (os.path.basename(path), " ".join(flags), ["-m", "momc", path, *flags])
            for path in write_programs(directory) for flags in FLAGS]
        for name, flags, argv in rows:
            times: list[list[float]] = [[], []]
            want = None
            for i in range(args.n):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    dt, code, out = run(roots[side], argv)
                    times[side].append(dt)
                    if want is None:
                        want = (code, out)
                    elif (code, out) != want:
                        differ.append((name, flags, side))
            old, new = (statistics.median(t) for t in times)
            faster = sum(b < a for a, b in zip(*times))
            print(f"{name:<14}{flags:<14}"
                  f"{want[0]:>5}{old * 1e3:9.1f}{new * 1e3:9.1f}"
                  f"{new / old:9.3f}  {faster}/{args.n}", flush=True)
    for side, root in zip(("old", "new"), roots):
        cache = os.path.isdir(os.path.join(root, "src", "momc", "__pycache__"))
        print(f"{side} src/momc/__pycache__: {'present' if cache else 'absent'}")
    for name, flags, side in sorted(set(differ)):
        print(f"differs: {name} {flags} ({('old', 'new')[side]} side)")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
