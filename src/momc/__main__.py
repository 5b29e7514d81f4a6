"""The process entry point: `python -m momc` and the `momc` script.

Before numpy loads, `main` asks BLAS and OpenMP for one thread wherever the
user has not set a count. An exact product past one tile runs in momc's own
row bands and a BLAS-path product fits one tile, so a second BLAS thread
mostly spin-waits beside them; a BLAS-path product with a long inner
dimension can run faster on two. The library sets nothing, since a host
process owns its threads, and neither does `cli.main`, which tests call in
process.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:  # once loaded, BLAS has read its count
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
