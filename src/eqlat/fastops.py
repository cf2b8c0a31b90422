"""numpy-backed exact integer matrix products.

The rest of the library is exact; numpy is only an accelerator.  Every call
first checks an a-priori bound on the largest possible entry of the product,
uses int64 when that bound stays below 2**62, and otherwise multiplies
object arrays of Python integers, so overflow cannot silently occur.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_SAFE = 2**62
_BLOCK = 4096


def _max_abs(m: np.ndarray) -> int:
    # Python ints, so the negation is exact even at -2**63
    return max(int(m.max(initial=0)), -int(m.min(initial=0)))


def int_array(a) -> np.ndarray:
    """a as an int64 array, or as an object array of Python integers when an
    entry does not fit; an integer array is kept as it is."""
    if isinstance(a, np.ndarray):
        return a
    try:
        return np.array(a, dtype=np.int64)
    except OverflowError:
        return np.array(a, dtype=object)


def imatmul_array(a, b: Sequence[Sequence[int]]) -> np.ndarray:
    """The exact product of a and b (2-d, b nonempty): an int64 array,
    computed _BLOCK rows of a at a time, when the bound proves that int64
    holds it, else an object array of Python integers.  a may be an integer
    array already."""
    na, nb = int_array(a), int_array(b)
    if _max_abs(na) * _max_abs(nb) * len(nb) >= _SAFE:
        return na.astype(object) @ nb.astype(object)
    nb = nb.astype(np.int64, copy=False)
    out = np.empty((len(na), nb.shape[1]), dtype=np.int64)
    for i in range(0, len(na), _BLOCK):
        np.matmul(na[i:i + _BLOCK].astype(np.int64, copy=False), nb, out=out[i:i + _BLOCK])
    return out


def imatmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact integer product of two row-major matrices."""
    if len(b) == 0 or not a or not b[0]:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    return imatmul_array(a, b).tolist()


def row_norms(a: Sequence[Sequence[int]], g: Sequence[Sequence[int]]) -> np.ndarray:
    """The exact a_i g a_i^T of every row a_i of a (2-d, g nonempty), _BLOCK
    rows at a time: imatmul_array's product, then the row sums in int64
    when the bound proves that int64 holds them, else in Python integers."""
    out = [np.empty(0, np.int64)]
    for i in range(0, len(a), _BLOCK):
        block = int_array(a[i:i + _BLOCK])
        y = imatmul_array(block, g)
        if _max_abs(y) * _max_abs(block) * len(g) >= _SAFE:
            y, block = y.astype(object), block.astype(object)
        out.append((y * block).sum(axis=1))
    return np.concatenate(out)


def gram_array(rows, g: Sequence[Sequence[int]] | None = None) -> np.ndarray:
    """rows @ g @ rows^T, or rows @ rows^T when g is None, exact, as
    imatmul_array's array (rows 2-d)."""
    b = int_array(rows)
    return imatmul_array(b if g is None else imatmul_array(b, g), b.T)


def gram_product(
    rows: Sequence[Sequence[int]], g: Sequence[Sequence[int]] | None = None
) -> list[list[int]]:
    """gram_array as lists of Python integers; [] for no rows."""
    return gram_array(rows, g).tolist() if len(rows) else []
