"""Benchmark inputs built from closed forms and a seed, without eqlat.

Everything here is plain Python integers (plus `random.Random(seed)`), so
the inputs, and the checkers that compare outputs against them, share no
code with the program under test.

- The extended binary Golay code comes from the quadratic residues mod 23
  (a different construction from the program's cyclic generator); its
  octads through coordinate 0 give the 276 Witt-design lines
  y = x0 - 2x on Z^24 with Gram I/8, x0 = (5, 1^23).
- The 28 lines are the permutations of (3, 3, -1^6) on Z^8 with Gram I.
- Copies apply a seeded signed coordinate permutation, an automorphism of
  Z^n with a scalar Gram, which also switches which vector of each line is
  the canonical representative.
- Seidel matrices are switched (D P S P^T D) by a seeded sign diagonal D
  and permutation P.
- Skewed bases use a seeded unimodular U = L R (dense unit triangular
  factors); the Gram becomes U G U^T and coordinates become c U^{-1}.
"""

from __future__ import annotations

import itertools
import random

QR23 = sorted({(i * i) % 23 for i in range(1, 23)})


def _gf2_span(rows: list[int]) -> list[int]:
    """All codewords spanned by bitmask rows."""
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    return sorted(set(words))


def _bits(word: int, n: int) -> list[int]:
    return [(word >> i) & 1 for i in range(n)]


def golay_words() -> list[list[int]]:
    """All 4096 words of the extended Golay code, as 0/1 lists of length 24.

    The [23, 12, 7] quadratic-residue code is spanned by the cyclic shifts
    of the indicator of the quadratic residues mod 23; coordinate 23 is the overall
    parity.  The weight distribution 1, 759, 2576, 759, 1 is asserted.
    """
    base = QR23
    shifts = []
    for s in range(23):
        word = 0
        for i in base:
            word |= 1 << ((i + s) % 23)
        shifts.append(word)
    words = []
    for w in _gf2_span(_basis(shifts)):
        bits = _bits(w, 23)
        words.append(bits + [sum(bits) % 2])
    weights = sorted(sum(w) for w in words)
    dist = {k: weights.count(k) for k in set(weights)}
    if dist != {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
        raise AssertionError(f"not the extended Golay code: {dist}")
    return words


def _basis(rows: list[int]) -> list[int]:
    """A GF(2) basis of the span of bitmask rows (Gaussian elimination)."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return basis


def witt_lines() -> tuple[list[int], list[list[int]]]:
    """x0 = (5, 1^23) and the 276 vectors y = x0 - 2x on Z^24 (Gram I/8).

    x runs over (4, 4 e_i) for i = 1..23 and 2 * 1_O for the 253 octads O
    containing coordinate 0: exactly the norm-4 Leech vectors with
    x0 . x = 3 in the sqrt(8) coordinates.
    """
    x0 = [5] + [1] * 23
    xs = []
    for i in range(1, 24):
        x = [0] * 24
        x[0], x[i] = 4, 4
        xs.append(x)
    octads = [w for w in golay_words() if sum(w) == 8 and w[0] == 1]
    xs.extend([2 * b for b in w] for w in octads)
    return x0, [[a - 2 * b for a, b in zip(x0, x)] for x in xs]


def lines28() -> list[list[int]]:
    """The 28 vectors (3, 3, -1^6) of Z^8 (Gram I), norm 24, products +-8."""
    out = []
    for i, j in itertools.combinations(range(8), 2):
        v = [-1] * 8
        v[i] = v[j] = 3
        out.append(v)
    return out


def signed_permutation(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((-1, 1)) for _ in range(n)]


def apply_signed_permutation(vectors, perm, signs) -> list[list[int]]:
    """Coordinate map v -> (s_k v[perm[k]])_k: an isometry of Z^n, Gram cI."""
    return [[signs[k] * v[perm[k]] for k in range(len(perm))] for v in vectors]


def seidel_of(vectors) -> list[list[int]]:
    """Sign matrix of the pairwise products of vectors (Gram a multiple of I)."""
    t = len(vectors)
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            d = sum(a * b for a, b in zip(vectors[i], vectors[j]))
            rows[i][j] = rows[j][i] = (d > 0) - (d < 0)
    return rows


def switch(rows, perm, signs) -> list[list[int]]:
    """D P S P^T D: the same two-graph, so the same spectrum."""
    n = len(rows)
    return [[signs[i] * signs[j] * rows[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


def random_seidel(rng: random.Random, t: int) -> list[list[int]]:
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            rows[i][j] = rows[j][i] = rng.choice((-1, 1))
    return rows


def unimodular(rng: random.Random, n: int, coeffs=(-1, 0, 1)
               ) -> tuple[list[list[int]], list[list[int]]]:
    """A seeded unimodular U = L R and its exact inverse.

    L is unit lower triangular and R unit upper triangular, each with every
    off-diagonal entry drawn from coeffs, so every entry of U is a sum of
    many draws and the skew is much the same from seed to seed.
    U U^{-1} = I is asserted.
    """
    low = [[1 if i == j else (rng.choice(coeffs) if j < i else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice(coeffs) if j > i else 0)
           for j in range(n)] for i in range(n)]
    u = matmul(low, up)
    uinv = matmul(_unit_upper_inverse(up), transpose(_unit_upper_inverse(transpose(low))))
    if matmul(u, uinv) != identity(n):
        raise AssertionError("U U^-1 != I")
    return u, uinv


def _unit_upper_inverse(t) -> list[list[int]]:
    """Inverse of a unit upper triangular integer matrix, by back substitution."""
    n = len(t)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            inv[i][j] = -sum(t[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return inv


def matmul(a, b) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a) -> list[list[int]]:
    return [list(c) for c in zip(*a)]
