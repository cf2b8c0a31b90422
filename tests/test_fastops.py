"""The int64 accelerator must agree with Python integers on every input."""

import random

import numpy as np
import pytest

from eqlat import fastops
from eqlat.fastops import gram_array, gram_product, imatmul, imatmul_array, row_norms


def ref_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("a, b", [
    ([[2**70, 1], [3, -2**64]], [[1, 2], [5, 7]]),          # beyond int64
    ([[-2**63, 0], [1, 1]], [[-1, 0], [0, 1]]),             # -2**63 * -1 = 2**63
    ([[2**31] * 4], [[2**31]] * 4),                         # bound 2**64 > 2**62
    ([[2**30, -2**30]], [[2**30], [2**30 - 1]]),            # bound 2**61: int64
    # seeded 7x5 by 5x3 matrices with entries up to 2**bits
    *[([[rng.randint(-2**bits, 2**bits) for _ in range(5)] for _ in range(7)],
       [[rng.randint(-2**bits, 2**bits) for _ in range(3)] for _ in range(5)])
      for rng in [random.Random(83)] for bits in (8, 30, 31, 62, 63, 64, 80)],
])
def test_imatmul_matches_python_integers(a, b):
    got = imatmul(a, b)
    assert got == ref_product(a, b)
    assert all(type(v) is int for row in got for v in row)


def test_gram_product():
    rows = [[1, 2, 0], [0, -1, 3]]
    g = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    cols = [list(c) for c in zip(*rows)]
    assert gram_product(rows, g) == ref_product(ref_product(rows, g), cols)
    assert gram_product(rows) == ref_product(rows, cols)
    assert gram_product([]) == []
    # one int8 array in, exact int64 or Python integers out
    small = gram_array(np.array(rows, dtype=np.int8), g)
    assert small.dtype == np.int64 and small.tolist() == gram_product(rows, g)
    big = [[2**40, 1], [3, -2**40]]
    assert gram_array(big).tolist() == ref_product(big, list(zip(*big)))
    assert gram_array(np.zeros((0, 3), np.int64), g).shape == (0, 0)


def test_imatmul_array():
    got = imatmul_array([[2**31] * 4], [[2**31]] * 4)  # bound 2**64
    assert got.dtype == object and got.tolist() == [[2**64]]
    got = imatmul_array([[2**64]], [[1]])  # not an int64
    assert got.dtype == object and got.tolist() == [[2**64]]
    rows = np.arange(6 * fastops._BLOCK + 6).reshape(-1, 2) % 200 - 100
    a = rows.astype(np.int8)  # more than one block, narrow entries
    b = [[3, -1, 0], [-7, 2, 5]]
    got = imatmul_array(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == ref_product(a.tolist(), b)


def test_row_norms():
    """int64 while the bound allows, Python integers past it, over blocks."""
    g = [[2, -1], [-1, 2]]

    def norm(a, b):
        return 2 * a * a - 2 * a * b + 2 * b * b

    rows = [[i % 7 - 3, i % 5 - 2] for i in range(2 * fastops._BLOCK + 3)]
    got = row_norms(rows, g)
    assert got.dtype == np.int64 and got.tolist() == [norm(*r) for r in rows]
    for big in ([2**31, 0], [2**64, 1]):  # a bound past 2**62, an entry past int64
        got = row_norms([big], g)
        assert got.dtype == object and got.tolist() == [norm(*big)]
    assert row_norms([], g).tolist() == []
