"""Run-time proofs that lowering's value facts (`momc.loops`) replace.

The executor once scanned a product's operands with `is_exact_product` to
decide whether BLAS gives the rank-1 loop's bits. Lowering now decides that
from integer intervals, and the tests check every `exact` it gives against
this scan on the run's own buffers.
"""

import math

import numpy as np


def all_integral(x: np.ndarray) -> bool:
    """`trunc(x) == x` everywhere, checked rows of 2**16 entries at a time."""
    step = max(1, (1 << 16) // x.shape[1])
    return all(bool((np.trunc(x[r:r + step]) == x[r:r + step]).all())
               for r in range(0, x.shape[0], step))


def is_exact_product(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a @ b never rounds, in any order: both operands are finite and
    integral and max|a| * max|b| * inner <= 2**p (p = 24 for f32, 53 for
    f64), so every product and partial sum is an integer the type holds."""
    ma, mb = (max(-float(x.min()), float(x.max())) for x in (a, b))
    return (math.isfinite(ma) and math.isfinite(mb)
            and int(ma) * int(mb) * a.shape[1] <= 2 ** (np.finfo(a.dtype).nmant + 1)
            and all_integral(a) and all_integral(b))
