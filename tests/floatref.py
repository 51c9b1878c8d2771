"""Float references shared by the tests of the unrolled kernels: the loops
`cholesky_flat`, `forward3`, `kl_gaussian` and the sepset messages unroll.

Every sum here adds its terms left to right from 0, as `sum()` did before
Python 3.12. From 3.12 on, `sum()` of floats compensates its rounding, so a
sum of three or more terms can differ in the last bit from the plain `+` of
the kernels it is checked against.
"""

import math
from functools import reduce
from operator import add


def add_up(terms) -> float:
    """The terms added left to right from 0, on every Python version."""
    return reduce(add, terms, 0)


def cholesky_small(o: list, idx, rtol: float = 0.0) -> list | None:
    """Lower Cholesky factor of the block o[idx][idx] of a nested-list matrix,
    as rows [[l00], [l10, l11], ...], by the unblocked step in Python floats;
    None unless positive definite with every pivot above rtol times its
    diagonal entry. The loop that `cholesky_flat` unrolls, correct for any n."""
    lower = []
    for r in idx:
        row = []
        for c, prev in zip(idx, lower):
            x = o[r][c]
            for a, b in zip(row, prev):
                x -= a * b
            row.append(x / prev[-1])
        s = o[r][r]
        for a in row:
            s -= a * a
        if not s > 0.0 or s <= rtol * o[r][r]:
            return None
        row.append(math.sqrt(s))
        lower.append(row)
    return lower


def forward_small(lower: list, v) -> list:
    """Solve lower @ t = v for a factor from `cholesky_small`: the loop that
    `forward3`, `kl_gaussian` and the sepset messages unroll."""
    t = []
    for row, x in zip(lower, v):
        for a, b in zip(row, t):
            x -= a * b
        t.append(x / row[-1])
    return t


def same_bits(a, b) -> bool:
    """Equal float sequences, signed zeros included; NaN matches NaN."""
    return len(a) == len(b) and all(
        (x != x and y != y) or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
        for x, y in zip(a, b))
