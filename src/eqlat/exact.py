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
integer solving on the HNF, the Berkowitz characteristic polynomial, and
Sturm-chain real root isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotPositiveDefinite
from .fastops import gram_product, imatmul

__all__ = [
    "IntMatrix",
    "RatMatrix",
    "hnf",
    "rank_det",
    "row_rank",
    "kernel_basis",
    "leading_minors",
    "solve_left",
    "berkowitz",
    "poly_eval",
    "poly_deriv",
    "poly_mul",
    "poly_divmod",
    "poly_lcm",
    "poly_linear_sub",
    "poly_linear_power",
    "squarefree_part",
    "sturm_chain",
    "count_roots_halfopen",
    "root_multiplicity",
    "smallest_real_root",
]


def _as_int_rows(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = tuple(tuple(int(v) for v in row) for row in rows)
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


def _back_substitute(h: IntMatrix, u: IntMatrix, x: list[int]) -> tuple[int, ...] | None:
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
    are dependent any one solution is returned.
    """
    if len(x) != b.ncols:
        raise DimensionMismatch(f"vector length {len(x)} != {b.ncols}")
    return _back_substitute(*hnf(b), [int(v) for v in x])


# ---------------------------------------------------------------------------
# Characteristic polynomial

def berkowitz(m: IntMatrix | RatMatrix) -> list:
    """Coefficients of det(x*I - m), ascending, by Berkowitz's algorithm.

    Division-free, so integer input gives integer coefficients and rational
    input stays exact.  Returns [c0, c1, ..., 1] of length n + 1.
    """
    if isinstance(m, RatMatrix):
        rows = m.to_fractions()
        one = Fraction(1)
    else:
        rows = m.to_lists()
        one = 1
    n = len(rows)
    if n == 0:
        return [one]
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("berkowitz needs a square matrix")
    # polys[k] holds det(x*I - leading k x k block), descending coefficients.
    poly = [one, -rows[0][0]]
    for k in range(1, n):
        akk = rows[k][k]
        row = rows[k][:k]
        col = [rows[i][k] for i in range(k)]
        block = [r[:k] for r in rows[:k]]
        # Toeplitz column: -a_kk, -(row @ col), -(row @ M col), ...
        toep = [one, -akk]
        vec = col
        for _ in range(k):
            toep.append(-sum(a * b for a, b in zip(row, vec)))
            vec = [sum(block[i][j] * vec[j] for j in range(k)) for i in range(k)]
        # Lower-triangular Toeplitz times the previous coefficient vector:
        # the first k + 2 entries of the convolution.
        poly = poly_mul(toep, poly)[: k + 2]
    return list(reversed(poly))


# ---------------------------------------------------------------------------
# Polynomials (ascending integer coefficient lists) and Sturm chains


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
    den = 1
    for c in q:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in q]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [v // g for v in ints]


def _rem_primitive(a: Sequence, b: Sequence) -> list[int]:
    """Primitive integer remainder of a by b (sign of the true remainder)."""
    return _to_primitive_int(poly_divmod(a, b)[1])


def poly_gcd(a: Sequence, b: Sequence) -> list[int]:
    """Primitive gcd over Z with positive leading coefficient."""
    a, b = _to_primitive_int(a), _to_primitive_int(b)
    while b:
        a, b = b, _rem_primitive(a, b)
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
    g = poly_gcd(q, poly_deriv(q))
    res = _to_primitive_int(poly_divmod(q, g)[0]) if len(g) > 1 else q
    return res if res[-1] > 0 else [-c for c in res]


def root_multiplicity(p: Sequence, r: Fraction | int) -> int:
    """Multiplicity of r as a root of p (0 when p(r) != 0)."""
    linear = [-Fraction(r), 1]
    q = _trim(p)
    mult = 0
    while len(q) > 1:
        quo, rem = poly_divmod(q, linear)
        if rem:
            break
        q = quo
        mult += 1
    return mult


def sturm_chain(p: Sequence) -> list[list[int]]:
    """Sturm chain of the squarefree part of p, primitive at every step."""
    s0 = squarefree_part(p)
    chain = [s0]
    if len(s0) > 1:
        chain.append(_to_primitive_int(poly_deriv(s0)))
        while len(chain[-1]) > 1:
            nxt = [-c for c in _rem_primitive(chain[-2], chain[-1])]
            if not nxt:
                break
            chain.append(nxt)
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b].  Requires chain[0](a) != 0.

    Zero-skipping sign variation handles an exact root at b correctly, so
    the bisection below may land on roots without special casing.
    """
    if poly_eval(chain[0], a) == 0:
        raise ValueError("left endpoint is a root")
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(p: Sequence) -> Fraction:
    """B with every real root of p inside (-B, B)."""
    q = _trim(p)
    if len(q) <= 1:
        return Fraction(1)
    lead = abs(q[-1])
    return 1 + max(abs(Fraction(c)) for c in q[:-1]) / lead


DEFAULT_ROOT_WIDTH = Fraction(1, 2**50)


def smallest_real_root(
    p: Sequence, width: Fraction = DEFAULT_ROOT_WIDTH
) -> tuple[Fraction, Fraction]:
    """Isolating interval (lo, hi] for the least real root of p.

    Returns lo == hi when the root is found exactly (always the case for
    integer roots).  Otherwise hi - lo <= width, the interval contains the
    least root of p and no other, and the squarefree part of p changes sign
    across it.  Raises ValueError when p has no real root.
    """
    chain = sturm_chain(p)
    q = chain[0]
    if len(q) <= 1:
        raise ValueError("constant polynomial has no roots")
    bound = cauchy_bound(q)
    lo = Fraction(-(bound.numerator // bound.denominator) - 1)
    hi = -lo
    if poly_eval(q, lo) == 0:
        raise ValueError("no real roots")
    # sign variations at lo and hi, carried from step to step: the number
    # of roots in (a, b] is v(a) - v(b)
    vlo, vhi = _variations(chain, lo), _variations(chain, hi)
    if vlo == vhi:
        raise ValueError("no real roots")
    while hi - lo > width or vlo - vhi > 1:
        if hi - lo <= 1:
            # At most one integer can sit inside; try it for an exact hit.
            k = Fraction(math.floor(lo) + 1)
            if (lo < k <= hi and poly_eval(q, k) == 0
                    and vlo - _variations(chain, k) == 1):
                return k, k
        mid = (lo + hi) / 2
        vmid = _variations(chain, mid)
        if vlo - vmid == 1 and poly_eval(q, mid) == 0:
            return mid, mid
        if vlo - vmid >= 1:
            hi, vhi = mid, vmid
        else:
            lo, vlo = mid, vmid
    if poly_eval(q, hi) == 0:
        return hi, hi
    return lo, hi
