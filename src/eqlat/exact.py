"""Exact linear algebra over the integers and rationals.

Everything in this module computes with Python ints and fractions.Fraction;
no floating point is used anywhere, and integer matrix products go through
fastops.imatmul, which uses int64 only behind a proven bound.  Matrices are
immutable frozen dataclasses: IntMatrix wraps a tuple of integer row tuples,
RatMatrix stores an integer numerator matrix together with a single positive
denominator in lowest terms, so both hash and compare by value.

The routines are the ones the rest of the library leans on: Hermite normal
form with a unimodular transform, fraction-free rank/determinant and the
leading minors of a Gram matrix (Bareiss), saturated integer kernels,
integer solving on the HNF, the characteristic polynomial (a multimodular
Hessenberg reduction in numpy int64, lifted by CRT past Hadamard's bound),
and root location for real-rooted polynomials by Budan-Fourier counts.
Matrix entries must be integers: an entry v with int(v) != v, such as 5/2,
2.7 or the string '1', raises NotIntegral instead of being truncated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadParameter, DimensionMismatch, NotIntegral, NotPositiveDefinite
from .fastops import gram_product, imatmul, int_array

__all__ = [
    "IntMatrix",
    "RatMatrix",
    "hnf",
    "rank_det",
    "row_rank",
    "kernel_basis",
    "leading_minors",
    "solve_left",
    "charpoly",
    "poly_eval",
    "poly_deriv",
    "poly_mul",
    "poly_divmod",
    "poly_lcm",
    "poly_linear_sub",
    "poly_linear_power",
    "squarefree_part",
    "root_multiplicity",
    "roots_above",
    "least_root",
]


def _int_row(row: Iterable[int]) -> tuple[int, ...]:
    """row as a tuple of ints, raising NotIntegral unless int(v) == v for
    every entry v; a row of plain ints passes with its own objects."""
    try:
        row = tuple(row)
        out = tuple(map(int, row))
    except (TypeError, ValueError, OverflowError):  # 5, '1.5', None, inf
        out = ()  # no row that raised is ()
    if out != row:  # int() alone truncates 5/2 and 2.7 to 2
        raise NotIntegral(f"entries {row} are not all integers")
    return out


def _rational(v) -> Fraction:
    """v as an exact Fraction; a float only if integral, as 0.3 is 5404319552844595
    / 2**54.  Any other value, a string included, raises BadParameter; for a float
    it names the fraction of least denominator (to a factor 2) that rounds to it."""
    if isinstance(v, numbers.Rational):
        return Fraction(v)
    real = isinstance(v, numbers.Real) and math.isfinite(v)
    if real and v == int(v):
        return Fraction(int(v))
    d = 1
    while real and type(v)(near := Fraction(float(v)).limit_denominator(d)) != v:
        d *= 2
    hint = f": pass Fraction{near.as_integer_ratio()}" if real else ""
    raise BadParameter(f"{v!r} is not an exact rational number{hint}")


def _integer(v) -> int:
    """v as an int, read by _rational; a non-integer, a float too, raises BadParameter."""
    if isinstance(v, float | np.floating) and v % 1:  # no Fraction hint: 2.5 is no integer
        raise BadParameter(f"{v!r} is not an integer")
    q = _rational(v)
    if q.denominator != 1:
        raise BadParameter(f"{v!r} is not an integer")
    return int(q)


def _as_int_rows(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(rows)
    except TypeError:  # 5
        raise NotIntegral(f"{rows!r} is not a sequence of rows") from None
    out = tuple(map(_int_row, rows))
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatch("ragged rows")
    return out


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Immutable integer matrix (tuple of row tuples)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", _as_int_rows(self.rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        if isinstance(ij, tuple):
            return self.rows[ij[0]][ij[1]]
        return self.rows[ij]

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.rows)) if self.rows else IntMatrix([])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        return IntMatrix(imatmul(self.rows, other.rows))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-v for v in row] for row in self.rows])

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )


@dataclass(frozen=True, slots=True)
class RatMatrix:
    """Immutable rational matrix: integer numerators over one denominator.

    Normalised so den >= 1 and gcd(den, all numerators) == 1, which makes
    equality and hashing structural.
    """

    num: IntMatrix
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if not isinstance(num, IntMatrix):
            num = IntMatrix(num)
        if den == 0:
            raise ZeroDivisionError("denominator 0")
        if den < 0:
            num, den = -num, -den
        g = den
        for row in num.rows:
            for v in row:
                g = math.gcd(g, v)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            num = IntMatrix([[v // g for v in row] for row in num.rows])
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def nrows(self) -> int:
        return self.num.nrows

    @property
    def ncols(self) -> int:
        return self.num.ncols

    def __getitem__(self, ij) -> Fraction:
        if isinstance(ij, tuple):
            return Fraction(self.num[ij], self.den)
        return tuple(Fraction(v, self.den) for v in self.num[ij])

    def __repr__(self):
        return f"RatMatrix({self.num.to_lists()}, den={self.den})"

    def to_fractions(self) -> list[list[Fraction]]:
        return [[Fraction(v, self.den) for v in row] for row in self.num.rows]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.num.transpose(), self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(self.num @ other.num, self.den * other.den)

    def is_symmetric(self) -> bool:
        return self.num.is_symmetric()

    def is_integral(self) -> bool:
        return self.den == 1

    def scaled(self, c: Fraction | int) -> "RatMatrix":
        c = Fraction(c)
        num = IntMatrix([[v * c.numerator for v in row] for row in self.num.rows])
        return RatMatrix(num, self.den * c.denominator)

    def inverse(self) -> "RatMatrix":
        """Inverse as den * (d num^-1) / d, in integers.

        d = |det num| is the product of the pivots of H = hnf(num), and row
        i of d num^-1 solves c @ num = d e_i, integral by Cramer's rule.
        Raises ZeroDivisionError when singular.
        """
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        h, u = hnf(self.num)
        d = math.prod(h.rows[i][i] for i in range(n))
        if not d:
            raise ZeroDivisionError("singular matrix")
        rows = [_back_substitute(h, u, [d * (i == j) for j in range(n)])
                for i in range(n)]
        return RatMatrix([[self.den * v for v in row] for row in rows], d)


# ---------------------------------------------------------------------------
# Hermite normal form and friends


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (H, U) with H = U @ m, det U = +-1.

    H is upper echelon with positive pivots, entries above each pivot reduced
    into [0, pivot), and zero rows collected at the bottom.  The pivot choice
    (smallest absolute value, then lowest row index) makes the reduction
    deterministic; H itself is the canonical form of the row lattice.
    """
    h = [list(row) for row in m.rows]
    nr = len(h)
    nc = len(h[0]) if h else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        while True:
            live = [(abs(h[i][c]), i) for i in range(r, nr) if h[i][c] != 0]
            if not live:
                break
            _, p = min(live)
            if len(live) == 1:
                if p != r:
                    h[r], h[p] = h[p], h[r]
                    u[r], u[p] = u[p], u[r]
                break
            for _, i in live:
                if i == p:
                    continue
                q = h[i][c] // h[p][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[p])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[p])]
        if r < nr and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-v for v in h[r]]
                u[r] = [-v for v in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nr:
                break
    return IntMatrix(h), IntMatrix(u)


def rank_det(m: IntMatrix) -> tuple[int, int | None]:
    """Rank, and determinant when square, by fraction-free elimination.

    Bareiss one-step elimination keeps every intermediate entry an exact
    minor of m, so there is no coefficient blow-up beyond Hadamard's bound
    and no division error.  det is None for non-square input.
    """
    a = [list(row) for row in m.rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        for i in range(r + 1, nr):
            row_i, row_r = a[i], a[r]
            f = row_i[c]
            a[i] = [
                (row_r[c] * row_i[j] - f * row_r[j]) // prev for j in range(nc)
            ]
        prev = a[r][c]
        r += 1
    if nr != nc:
        return r, None
    return r, sign * prev if r == nr else 0


def row_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of the integer rows B, read off the n x n B^T B (rank B^T B = rank B over Q)."""
    return rank_det(IntMatrix(gram_product(list(zip(*rows)))))[0]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturated left kernel {x in Z^r : x @ m = 0}.

    The rows of U matching zero rows of H span the kernel; because U is
    unimodular they span it saturated (every integer kernel vector is an
    integer combination).  A final HNF pass canonicalises the basis.
    """
    h, u = hnf(m)
    ker = [u.rows[i] for i in range(m.nrows) if all(v == 0 for v in h.rows[i])]
    if not ker:
        return IntMatrix.zeros(0, m.nrows)
    kh, _ = hnf(IntMatrix(ker))
    return IntMatrix(kh.rows[: len(ker)])


def leading_minors(g: IntMatrix) -> tuple[list[int], list[list[int]]]:
    """Fraction-free elimination of a symmetric matrix, without pivoting.

    Returns (delta, sub): delta[k] is the k-th leading principal minor, with
    delta[0] = 1 and delta[n] = det g, and sub[k] is column k below the
    diagonal after k Bareiss steps.  Each step divides exactly by the
    previous minor, so every entry stays an integer minor of g.  A minor
    <= 0 raises NotPositiveDefinite; by Sylvester's criterion success
    certifies g > 0 exactly.
    """
    if not g.is_symmetric():
        raise DimensionMismatch("Gram matrix must be symmetric")
    n = g.nrows
    a = g.to_lists()
    delta = [1] * (n + 1)
    sub = []
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            raise NotPositiveDefinite(f"leading minor {piv} of order {k + 1}")
        delta[k + 1] = piv
        sub.append([a[i][k] for i in range(k + 1, n)])
        prev = delta[k]
        row_k = a[k]
        for i in range(k + 1, n):
            aik, row_i = a[i][k], a[i]
            for j in range(k + 1, n):
                row_i[j] = (piv * row_i[j] - aik * row_k[j]) // prev
    return delta, sub


def _back_substitute(h: IntMatrix, u: IntMatrix, x: Sequence[int]) -> tuple[int, ...] | None:
    """c with c @ b = x, given (h, u) = hnf(b); None when there is none.

    Each pivot row of h fixes one coordinate of c' (c' @ h = x) by exact
    division; a remainder, or anything left of x once the pivots are used,
    means x is outside the row lattice.  Then c = c' @ u.
    """
    rest = x
    cp = []
    for row in h.rows:
        p = next((j for j, v in enumerate(row) if v), None)
        if p is None:
            break
        q, r = divmod(rest[p], row[p])
        if r:
            return None
        rest = [a - q * v for a, v in zip(rest, row)]
        cp.append(q)
    if any(rest):
        return None
    return tuple(imatmul([cp], u.rows[: len(cp)])[0]) if cp else (0,) * u.nrows


def solve_left(b: IntMatrix, x: Sequence[int]) -> tuple[int, ...] | None:
    """Integer row vector c with c @ b = x; None if x is not in the row lattice.

    Back-substitution on the Hermite normal form of b.  When the rows of b
    are dependent any one solution is returned.  x is read as b's rows are:
    an entry with int(v) != v raises NotIntegral.
    """
    if len(x) != b.ncols:
        raise DimensionMismatch(f"vector length {len(x)} != {b.ncols}")
    return _back_substitute(*hnf(b), _int_row(x))


# ---------------------------------------------------------------------------
# Characteristic polynomial

def _is_prime(p: int) -> bool:
    """Miller-Rabin with bases 2, 7, 61: exact for odd p < 4,759,123,141."""
    if math.gcd(p, 3 * 5 * 7 * 11 * 13) > 1:  # a cheap sieve for most composites
        return p in (3, 5, 7, 11, 13)
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in (2, 7, 61):
        xs = [pow(a, (p - 1) >> i, p) for i in range(s, 0, -1)]  # a^(d 2^i), i < s
        if a % p and xs[0] != 1 and p - 1 not in xs:
            return False
    return True


def _charpoly_primes(n: int) -> Iterator[int]:
    """Primes p with n (p - 1)**2 < 2**63, descending: a dot product of n
    residues mod p is exact in int64, and p < 2**32 keeps _is_prime exact."""
    top = math.isqrt((2**63 - 1) // n) + 1
    return (p for p in range(top - 1 + top % 2, 2, -2) if _is_prime(p))


def charpoly(m: IntMatrix) -> list[int]:
    """Coefficients of det(x*I - m), ascending: [c0, c1, ..., 1].

    Multimodular, with no floats: the primes' product exceeds 2B + 1, where
    B = max_k C(n, k) R^k (R^2 >= every squared row norm) bounds each sum
    of k x k principal minors by Hadamard's inequality, so the symmetric
    CRT residues are the coefficients.  Mod all primes at once, in int64, a
    similarity transform brings m to upper Hessenberg form H, each prime
    pivoting on its own (it keeps the charpoly mod p, so no prime is bad).
    Then p_k = x p_{k-1} - sum_{i<k} H[i, k-1] s_i p_i, where s_i is the
    product of the H[j, j-1] for i < j < k, gives p_n (Cohen, Alg. 2.2.9).
    """
    rows = m.rows
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("charpoly needs a square matrix")
    if n == 0:
        return [1]
    sq = max(sum(v * v for v in row) for row in rows)
    r = math.isqrt(sq - 1) + 1 if sq else 0
    bound = 2 * max(math.comb(n, k) * r**k for k in range(n + 1)) + 1
    primes, mod = [], 1
    for p in _charpoly_primes(n):
        primes.append(p)
        mod *= p
        if mod > bound:
            break
    ps, pr = np.array(primes, dtype=np.int64)[:, None], np.arange(len(primes))
    h = (int_array(rows)[None] % ps[:, :, None]).astype(np.int64)
    for c in range(n - 2):
        # each prime swaps row and column c + 1 with those of its pivot;
        # a zero column gives piv = c + 1, a zero inverse and no step
        piv = (h[:, c + 1:, c] != 0).argmax(axis=1) + c + 1
        h[pr, c + 1], h[pr, piv] = h[pr, piv], h[pr, c + 1]
        h[pr, :, c + 1], h[pr, :, piv] = h[pr, :, piv], h[pr, :, c + 1]
        inv = [pow(t, -1, p) if t else 0 for t, p in zip(h[:, c + 1, c].tolist(), primes)]
        u = h[:, c + 2:, c] * np.array(inv, dtype=np.int64)[:, None] % ps
        h[:, c + 2:, c:] = (h[:, c + 2:, c:] - u[:, :, None] * h[:, c + 1:c + 2, c:]) % ps[:, :, None]
        h[:, :, c + 1] = (h[:, :, c + 1] + (h[:, :, c + 2:] @ u[:, :, None])[:, :, 0]) % ps
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)  # p_k, ascending
    polys[:, 0, 0] = 1
    s = np.ones((len(primes), n), dtype=np.int64)
    for k in range(1, n + 1):
        w = h[:, :k, k - 1] * s[:, :k] % ps
        polys[:, k, 1:k + 1] = polys[:, k - 1, :k]
        polys[:, k, :k] = (polys[:, k, :k] - (w[:, None, :] @ polys[:, :k, :k])[:, 0]) % ps
        if k < n:
            s[:, :k] = s[:, :k] * h[:, k, k - 1, None] % ps
    out = sum(res * (mod // p * pow(mod // p, -1, p))
              for p, res in zip(primes, polys[:, n].astype(object)))
    return [int(c) - mod if c > mod // 2 else int(c) for c in out % mod]


# ---------------------------------------------------------------------------
# Polynomials (ascending integer coefficient lists) and real roots


def _trim(p: Sequence) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p: Sequence, x):
    """Horner evaluation; exact for int or Fraction arguments."""
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def poly_deriv(p: Sequence) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of two coefficient lists; exact for int or Fraction entries."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_divmod(a: Sequence, b: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b over Q, by long division.

    Both come back as Fraction lists; the remainder is trimmed, so it is []
    exactly when b divides a.
    """
    b = _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in _trim(a)]
    db = len(b) - 1
    quo = [Fraction(0)] * max(len(r) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        f = r[k + db] / b[-1]
        quo[k] = f
        if f:
            for i, c in enumerate(b):
                r[k + i] -= f * c
    return quo, _trim(r[:db])


def _to_primitive_int(p: Sequence) -> list[int]:
    """Clear denominators and divide by the content, keeping the sign."""
    q = [Fraction(c) for c in _trim(p)]
    if not q:
        return []
    den = math.lcm(*(c.denominator for c in q))
    ints = [int(c * den) for c in q]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def poly_gcd(a: Sequence, b: Sequence) -> list[int]:
    """Primitive gcd over Z with positive leading coefficient."""
    a, b = _to_primitive_int(a), _to_primitive_int(b)
    while b:
        a, b = b, _to_primitive_int(poly_divmod(a, b)[1])
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def poly_lcm(a: Sequence, b: Sequence) -> list[int]:
    """Primitive lcm over Z of two nonzero polynomials, positive leading
    coefficient; monic when a and b are monic integer (Gauss's lemma)."""
    q = _to_primitive_int(poly_mul(poly_divmod(a, poly_gcd(a, b))[0], b))
    return q if q[-1] > 0 else [-c for c in q]


def poly_linear_sub(p: Sequence, a, b) -> list:
    """Coefficients of p(a*x + b), by Horner composition; exact for int or
    Fraction entries."""
    res = [p[-1]]
    for c in reversed(p[:-1]):
        res = poly_mul(res, [b, a])
        res[0] += c
    return res


def poly_linear_power(root, k: int) -> list:
    """Coefficients of (x - root)^k, ascending."""
    return [math.comb(k, i) * (-root) ** (k - i) for i in range(k + 1)]


def squarefree_part(p: Sequence) -> list[int]:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    q = _to_primitive_int(p)
    if len(q) <= 1:
        return [1] if q else []
    g = [1] if _coprime_mod(q, poly_deriv(q)) else poly_gcd(q, poly_deriv(q))
    res = _to_primitive_int(poly_divmod(q, g)[0]) if len(g) > 1 else q
    return res if res[-1] > 0 else [-c for c in res]


def root_multiplicity(p: Sequence, r: Fraction | int) -> int:
    """Multiplicity of r as a root of p (0 when p(r) != 0): the number of
    derivatives of p that vanish at r, read off one Taylor shift; r read by _rational."""
    r = _rational(r)
    c = _taylor_shift(_to_primitive_int(p), r.numerator, r.denominator)
    return next((j for j, v in enumerate(c) if v), 0)


_PRIME = 2**61 - 1


def _coprime_mod(a: list[int], b: list[int]) -> bool:
    """Proves a, b coprime over Q by gcd 1 modulo _PRIME, when the reduction
    keeps the degree of a and so of each factor of a; False: not proved."""
    m = _PRIME
    a, b = [c % m for c in a], _trim(c % m for c in b)
    if not a[-1]:
        return False
    while len(b) > 1:
        inv = pow(b[-1], -1, m)
        while len(a) >= len(b):
            f = a[-1] * inv
            a = _trim([(x - f * y) % m for x, y in zip(a, [0] * (len(a) - len(b)) + b)])
        a, b = b, a
    return len(b) == 1


def _taylor_shift(q: Sequence[int], a: int, b: int) -> list[int]:
    """Coefficients in y of b^n q((a + y)/b), for b > 0 and n = deg q: the
    y^j one is b^(n-j) q^(j)(a/b) / j!, of the sign of q's j-th derivative."""
    n = len(q) - 1
    c = [v * b ** (n - i) for i, v in enumerate(q)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _sign_changes(c: Iterable[int]) -> int:
    signs = [v > 0 for v in c if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sign_at(q: Sequence[int], a: int, b: int) -> int:
    """Sign of q(a/b) for b > 0, by homogeneous integer Horner."""
    acc, scale = 0, 1
    for c in reversed(q):
        acc, scale = acc * a + c * scale, scale * b
    return (acc > 0) - (acc < 0)


def roots_above(p: Sequence, x: Fraction | int) -> int:
    """Roots of p above x, with multiplicity, when every root of p is real:
    then the Budan-Fourier count, the sign changes of p(x), p'(x), ...,
    p^(n)(x) with zeros dropped, is exact; x is read by _rational."""
    x = _rational(x)
    return _sign_changes(_taylor_shift(_to_primitive_int(p), x.numerator, x.denominator))


DEFAULT_ROOT_WIDTH = Fraction(1, 2**50)


def least_root(p: Sequence, width: Fraction = DEFAULT_ROOT_WIDTH) -> tuple[Fraction, Fraction]:
    """Isolating interval (lo, hi] for the least root of p, every root of
    which must be real (as for the charpoly of a symmetric matrix).

    lo == hi for a root found exactly (always an integer one); else hi - lo
    <= width, only the least root lies inside, and the square-free part q
    changes sign across it.  Bisects (-C, C], C = floor(Cauchy bound of q)
    + 1, by roots_above counts on q until one root is left, then by the sign
    of q; no root lies outside [-e, e], e = floor(sqrt(sum of squares of
    the roots)) + 1.  ValueError on a constant, on a negative sum of squares
    and on two roots closer than Mahler's separation bound; BadParameter
    unless width, read by _rational, is positive."""
    width = _rational(width)
    if width <= 0:
        raise BadParameter(f"root width {width} is not positive")
    q = squarefree_part(p)
    n = len(q) - 1
    if n < 1:
        raise ValueError("constant polynomial has no roots")
    squares = q[n - 1] ** 2 - 2 * q[n - 2] * q[n] if n > 1 else q[0] ** 2
    if squares < 0:
        raise ValueError("polynomial is not real-rooted")
    e = math.isqrt(squares // q[n] ** 2) + 1
    norm2 = sum(c * c for c in q)  # distinct roots are > n^-(n+2)/2 |q|^(1-n) apart
    sep = Fraction(1, 2 ** (((n + 2) * n.bit_length() + (n - 1) * norm2.bit_length()) // 2 + 1))
    lo, vlo, vhi = Fraction(-2 - max(map(abs, q[:-1])) // q[n]), n, 0
    hi = -lo
    # (lo, hi] holds vlo - vhi roots; q > 0 above them all, so q(x) has the
    # sign (-1)^(roots above x)
    while hi - lo > width or vlo - vhi > 1:
        if vlo - vhi > 1 and hi - lo < sep:
            raise ValueError("polynomial is not real-rooted")
        if hi - lo <= 1:
            # At most one integer can sit inside; try it for an exact hit.
            k = math.floor(lo) + 1
            if k <= hi and not _sign_at(q, k, 1) and vlo - roots_above(q, k) == 1:
                return Fraction(k), Fraction(k)
        mid = (lo + hi) / 2
        if not -e < mid < e:
            vmid, hit = (n if mid < 0 else 0), False
        elif vlo - vhi == 1:
            s = _sign_at(q, mid.numerator, mid.denominator)
            vmid, hit = vlo - (s != (-1) ** vlo), not s
        else:
            c = _taylor_shift(q, mid.numerator, mid.denominator)
            vmid, hit = _sign_changes(c), not c[0]
        if hit and vlo - vmid == 1:
            return mid, mid
        if vlo - vmid >= 1:
            hi, vhi = mid, vmid
        else:
            lo, vlo = mid, vmid
    if not _sign_at(q, hi.numerator, hi.denominator):
        return hi, hi
    return lo, hi
