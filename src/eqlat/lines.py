"""Equiangular line families and exact Seidel-matrix certificates.

A family of t lines through the origin, spanned by lattice vectors of one
common norm N, is equiangular when every two spanning vectors have the same
absolute inner product c with 0 < c < N.  The common angle is kept as the
exact rational alpha = c/N; nothing in this module touches floating point.

The Seidel matrix of a family records the signs of the pairwise inner
products of the chosen representatives.  Writing G for the Gram matrix of
the unit representatives, S = (G - I)/alpha entrywise, so G = I + alpha*S
is positive semidefinite of rank r and -1/alpha is the least eigenvalue of
S whenever t > r.  Switching (negating some representatives) conjugates S
by a sign diagonal and reordering permutes it, so the characteristic
polynomial is an invariant of the family itself.  It is computed exactly,
and root locations are certified by exact Budan-Fourier counts, never by numerics.

Bound checks: a family of rank r has t <= r(r+1)/2 unconditionally,
t <= r(1-alpha^2)/(1-r*alpha^2) when r*alpha^2 < 1, and 1/alpha must be an
odd integer as soon as t > 2r; a float alpha such as 1/3 raises (exact._rational).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import floor, gcd

import numpy as np

from .errors import (
    BadParameter,
    DegeneratePair,
    NotApplicable,
    NotEquiangular,
    VerificationError,
)
from .exact import (
    DEFAULT_ROOT_WIDTH,
    IntMatrix,
    _int_row,
    _integer,
    _rational,
    charpoly,
    least_root,
    poly_eval,
    poly_lcm,
    poly_linear_power,
    poly_linear_sub,
    poly_mul,
    root_multiplicity,
    roots_above,
    row_rank,
    solve_left,
)
from .fastops import _SAFE, _max_abs, gram_array, imatmul_array, int_array
from .lattice import GramLattice
from .shortvec import PairSet

__all__ = [
    "LineFamily",
    "SeidelMatrix",
    "line_family",
    "seidel",
    "seidel_charpoly",
    "family_charpoly",
    "least_eigenvalue",
    "absolute_bound",
    "relative_bound",
    "neumann_check",
    "asymptotic_count",
    "certify",
    "KNOWN_MAX_LINES",
    "LATTICE_LINES_KNOWN",
]

# Largest known numbers of equiangular lines by dimension, from published
# tables: exact values up to dimension 17, (low, high) where the maximum is
# open.  Annotation data only; nothing in this package asserts against it.
KNOWN_MAX_LINES = {
    2: 3, 3: 6, 4: 6, 5: 10, 6: 16,
    7: 28, 8: 28, 9: 28, 10: 28, 11: 28, 12: 28, 13: 28, 14: 28,
    15: 36, 16: 40, 17: 48,
    18: (57, 59), 19: (72, 74), 20: (90, 94),
    21: 126, 22: 176, 23: 276,
}

# Best published counts attained by minimal vectors of a lattice (lower
# bounds for the lattice-restricted maximum), dimensions 14..23.
LATTICE_LINES_KNOWN = {
    14: 28, 15: 36, 16: 38, 17: 48, 18: 56,
    19: 72, 20: 90, 21: 126, 22: 176, 23: 276,
}


@dataclass(frozen=True, slots=True, eq=False)
class LineFamily:
    """A verified equiangular set: +-pair representatives plus angle data.

    Fields: lattice, pairs (a PairSet of the representatives, one per line,
    all of one norm), t = number of lines, rank of their span, the common
    absolute inner product c, and alpha = c/norm.  Families with fewer than
    two lines are allowed but carry no angle (c and alpha are None).
    """

    lattice: GramLattice
    pairs: PairSet
    t: int
    rank: int
    c: Fraction | None
    alpha: Fraction | None

    def __len__(self) -> int:
        return self.t

    def __repr__(self):
        angle = "no angle" if self.alpha is None else f"alpha={self.alpha}"
        return f"{type(self).__name__}(t={self.t}, rank={self.rank}, {angle})"


def line_family(lat: GramLattice, vectors) -> LineFamily:
    """Validate vectors as an equiangular family on lat and package them.

    vectors may be a PairSet on lat, an integer array or an iterable of
    vectors; one representative per +-pair is kept, all of one norm.
    Every two distinct lines must realize the same absolute inner product
    c > 0; the first offending pair is reported otherwise.  More lines
    than Gerzon's bound r(r+1)/2 in rank r are rejected before any product
    is formed, since no such set is equiangular.
    """
    if isinstance(vectors, PairSet):
        if vectors.lattice != lat:
            raise BadParameter("pair set lives on a different lattice")
        pairs = vectors
    else:
        pairs = PairSet(lat, vectors)
    reps = pairs.reps
    t = len(reps)
    if t == 0:
        return LineFamily(lat, pairs, 0, 0, None, None)
    rank = row_rank(reps)
    if t == 1:
        return LineFamily(lat, pairs, 1, rank, None, None)
    if t > absolute_bound(rank):
        raise NotEquiangular(
            f"{t} lines exceed Gerzon's bound {absolute_bound(rank)} in rank {rank}"
        )
    prods, den = gram_array(reps, lat.gram.num.rows), lat.gram.den
    c_num = abs(int(prods[0, 1]))
    bad = np.triu((prods != c_num) & (prods != -c_num), 1)
    if bad.any():
        i, j = divmod(int(bad.argmax()), t)  # the first in row-major order
        raise NotEquiangular(f"pairs {reps[i]} and {reps[j]}: |inner| "
                             f"{Fraction(abs(int(prods[i, j])), den)} != {Fraction(c_num, den)}")
    c = Fraction(c_num, den)
    if c == 0:
        raise NotEquiangular("orthogonal lines: the common inner product is 0")
    if not c < pairs.norm:
        raise NotEquiangular(f"|inner| {c} not below the norm {pairs.norm}")
    return LineFamily(lat, pairs, t, rank, c, c / pairs.norm)


@dataclass(frozen=True, slots=True, eq=False)
class SeidelMatrix:
    """Symmetric matrix with zero diagonal and entries +-1 off it, kept as
    one read-only int8 array; rows (row tuples) is built on demand.  Entries
    must be integers (NotIntegral); the first fault of the row-by-row scan
    (length, diagonal, then per later column +-1 and symmetry) raises
    BadParameter."""

    array: np.ndarray

    def __post_init__(self):
        a = self.array
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu" and a.ndim == 2):
            try:
                a = [_int_row(row) for row in a]
            except TypeError:  # 5: _int_row reads each row itself
                raise BadParameter(f"{a!r} is not a sequence of rows") from None
        t = len(a)
        k = next((i for i, row in enumerate(a) if len(row) != t), t)  # rows scanned
        a = int_array(a if k == t else [tuple(r[:t]) + (0,) * (t - len(r)) for r in a])
        a = a.reshape(t, t)
        upper = np.triu(np.ones((k, t), bool), 1)
        pm = upper & (abs(a[:k]) != 1)
        bad = pm | upper & (a[:k] != a.T[:k]) | np.eye(k, t, dtype=bool) & (a[:k] != 0)
        if bad.any():
            i, j = divmod(int(bad.argmax()), t)  # the first in row-major order
            raise BadParameter(f"nonzero diagonal entry at {i}" if i == j else
                               f"entry ({i},{j}) = {a[i, j]} is not +-1" if pm[i, j] else
                               f"asymmetry at ({i},{j})")
        if k < t:
            raise BadParameter("matrix is not square")
        object.__setattr__(self, "array", a.astype(np.int8))
        self.array.flags.writeable = False

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other):
        return isinstance(other, SeidelMatrix) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.array.tobytes())

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self):
        return f"SeidelMatrix(t={len(self.array)})"


def seidel(fam: LineFamily) -> SeidelMatrix:
    """Sign matrix of the family's pairwise inner products.

    Entry (i, j) is the sign of x_i . x_j for the canonical representatives,
    so S = (G - I)/alpha holds entrywise for the unit Gram matrix G.
    Another choice of representatives conjugates the result by a sign
    diagonal and leaves all spectral data unchanged.
    """
    if fam.alpha is None:
        raise DegeneratePair(f"{fam.t} line(s) carry no angle")
    s = gram_array(fam.pairs.reps, fam.lattice.gram.num.rows)
    np.sign(s, out=s)
    np.fill_diagonal(s, 0)
    return SeidelMatrix(s.astype(np.int8))


# Above this size the minimal-polynomial route is tried first: it settles the
# structured t = 276 Witt matrix in about 10 ms, its one S^2 from sign-bit
# popcounts (_sign_square), where exact.charpoly takes seconds.
_MINPOLY_FIRST = 64
_MINPOLY_CAP = 24


def seidel_charpoly(s: SeidelMatrix) -> list[int]:
    """Coefficients of det(xI - S), ascending, exactly.

    Matrices up to _MINPOLY_FIRST rows go straight to the multimodular
    exact.charpoly.  Larger ones first try a verified minimal-polynomial
    route which handles the highly structured matrices produced by lattice
    families (an exact annihilation identity, whose first product S^2 is
    integer popcounts of the sign bits, plus trace equations pin the
    multiplicities); when the structure is absent they fall back to
    exact.charpoly, which is always correct.
    """
    if len(s) > _MINPOLY_FIRST:
        p = _charpoly_via_minpoly(s.array)
        if p is not None:
            return p
    return charpoly(IntMatrix(s.rows))


def _krylov_annihilator(rows, start) -> list[int]:
    """Monic least-degree p with p(rows) @ start = 0, or [] past _MINPOLY_CAP.

    Fraction-free elimination on the augmented rows [S^k start | e_k]: each
    new row is reduced against the integer echelon rows by cross-multiplying
    and divided by its content, so its tail carries the integer combination
    of Krylov steps that its head stands for.  The first row whose head
    vanishes gives the dependency.  The annihilator divides the monic integer
    charpoly of S, so by Gauss's lemma it lies in Z[x] and the combination
    divides exactly by its leading entry.
    """
    t, cap = len(rows), _MINPOLY_CAP
    basis = []  # (pivot index, echelon row)
    v = list(start)
    for k in range(cap + 1):
        row = v + [0] * k + [1] + [0] * (cap - k)
        for piv, b in basis:
            f, g = row[piv], b[piv]
            if f:
                row = [g * x - f * y for x, y in zip(row, b)]
        piv = next((i for i in range(t) if row[i]), None)
        if piv is None:
            return [c // row[t + k] for c in row[t:t + k + 1]]
        content = gcd(*row)
        basis.append((piv, [x // content for x in row]))
        v = imatmul_array([v], rows)[0].tolist()  # S v, as S is symmetric
    return []


def _charpoly_via_minpoly(rows) -> list[int] | None:
    """Charpoly of an integer symmetric matrix through its minimal polynomial.

    Returns None whenever the matrix is not split with small integer
    spectrum; the caller then falls back to a direct method.  When it does
    return, the answer is proved: the candidate annihilates the matrix as an
    exact identity, its roots are integers, and the multiplicities are the
    unique solution of the trace equations.
    """
    s = int_array(rows)
    t = len(s)
    bound = t * _max_abs(s)  # Gershgorin: every |eigenvalue| <= t max |entry|
    starts = [[1 + (k % 7) for k in range(t)]]
    starts += [[int(i == k) for i in range(t)] for k in range(min(4, t))]
    minpoly = [1]
    for start in starts:
        ann = _krylov_annihilator(s, start)
        if not ann:
            return None
        minpoly = poly_lcm(minpoly, ann)
        if len(minpoly) > _MINPOLY_CAP + 1:
            return None
        # the lcm divides the minimal polynomial, so roots missing here stay missing
        roots = _integer_roots(minpoly, bound)
        if roots is None:
            return None
        if _annihilates(s, minpoly):
            break
    else:
        return None
    d = len(roots)
    # traces of the first d powers pin the eigenvalue multiplicities
    traces, power = [t], s
    for k in range(1, d):
        if k > 1:
            power = imatmul_array(power, s)
        traces.append(int(np.trace(power, dtype=object)))
    vand = IntMatrix([[r**k for k in range(d)] for r in roots])
    mults = solve_left(vand, traces)
    if mults is None or min(mults) <= 0:
        return None
    # of degree t, as the first trace equation sums the multiplicities
    return reduce(poly_mul, map(poly_linear_power, roots, mults), [1])


def _annihilates(rows, p: list[int]) -> bool:
    """p(S) == 0, by Horner from p[-1] S: deg p - 1 products for deg p >= 1,
    the first, (p[-1] S + p[-2] I) S, from _sign_square when S is a Seidel
    matrix, the rest from imatmul_array.  acc is int64 (never int8) or Python
    integers.  An int64 acc has entries below 2**62, imatmul_array's bound,
    so adding c to its diagonal is exact in int64 while |c| < 2**62 too."""
    s, rest = int_array(rows), p[:-2]
    acc = _sign_square(s, p[-1], p[-2]) if rest else None
    if acc is None:
        rest = p[:-1]
        acc = s.astype(np.int64 if max(_max_abs(s), 1) * abs(p[-1]) < _SAFE else object) * p[-1]
    for k, c in enumerate(reversed(rest)):
        if k:
            acc = imatmul_array(acc, s)
        if abs(c) >= _SAFE:
            acc = acc.astype(object)
        acc.flat[::len(s) + 1] += c
    return not acc.any()


def _sign_square(s: np.ndarray, a: int, b: int) -> np.ndarray | None:
    """a S^2 + b S in int64, or None unless s is a Seidel matrix of a signed
    integer type and |a| (t - 1) + |b| < 2**62.  With B_i row i of S < 0
    packed in uint64 words, (S^2)_ij = t - 2 popcount(B_i ^ B_j) - 2 s_ij off
    the diagonal and t - 1 on it: popcounts, no product, in blocks of rows
    whose xor is no larger than the result, and every multiply in int64."""
    t = len(s)
    if s.dtype.kind != "i" or abs(a) * max(t - 1, 1) + abs(b) >= _SAFE or not (
            (abs(s) == ~np.eye(t, dtype=bool)).all() and (s == s.T).all()):
        return None
    bits = np.packbits(np.pad(s < 0, ((0, 0), (0, -t % 64))), axis=1).view(np.uint64)
    out, h = np.empty((t, t), np.int64), max(t // max(bits.shape[1], 1), 1)
    for i in range(0, t, h):
        pop = np.bitwise_count(bits[i:i + h, None] ^ bits).sum(2, dtype=np.int64)
        sq = t - 2 * (pop + s[i:i + h])
        np.fill_diagonal(sq[:, i:], t - 1)
        out[i:i + h] = sq * a + s[i:i + h] * np.int64(b)
    return out


def _integer_roots(p: list[int], bound: int) -> list[int] | None:
    """The roots of a monic integer polynomial, ascending, or None unless
    they are distinct integers in [-bound, bound]."""
    roots = [x for x in range(-bound, bound + 1) if not poly_eval(p, x)]
    return roots if len(roots) == len(p) - 1 else None


def least_eigenvalue(
    s: SeidelMatrix, width: Fraction = DEFAULT_ROOT_WIDTH
) -> tuple[Fraction, Fraction]:
    """Isolating interval (lo, hi] for the least eigenvalue of S.

    lo == hi when the eigenvalue is rational (always the case for integer
    spectra); otherwise hi - lo <= width and exact Budan-Fourier counts
    certify that the interval contains the least root and nothing lies
    below it.  S is symmetric, so its charpoly is real-rooted.
    """
    return least_root(seidel_charpoly(s), width)


def _factored_charpoly(fam: LineFamily) -> tuple[list[Fraction], Fraction, int]:
    """(q, root, k) with det(xI - S) = q(x) (x - root)^k.

    q is the monic degree-r factor that the characteristic polynomial of
    the n x n product of family_charpoly carries (by exact.charpoly), root
    = -1/alpha and k = t - r.  Raises VerificationError when the rank or
    the trace of S disagrees with it.
    """
    if fam.alpha is None:
        raise DegeneratePair(f"{fam.t} line(s) carry no angle")
    t, r, n = fam.t, fam.rank, fam.lattice.dim
    btb = gram_array(int_array(fam.pairs.reps).T)  # B^T B for B the reps
    p = charpoly(IntMatrix(imatmul_array(fam.lattice.gram.num.rows, btb)))
    if any(p[k] for k in range(n - r)) or not p[n - r]:
        raise VerificationError("spectral factor disagrees with the rank")
    # roots of g are den*N*(alpha*lambda + 1) over Seidel eigenvalues lambda
    scale = fam.lattice.gram.den * fam.pairs.norm
    q = poly_linear_sub(p[n - r:], scale * fam.alpha, scale)
    q = [c / q[-1] for c in q]  # q[-1] = (scale alpha)^r > 0
    root, k = -1 / fam.alpha, t - r
    if q[r - 1] != k * root:  # trace of a Seidel matrix is 0
        raise VerificationError("assembled spectrum fails the trace identity")
    return q, root, k


def family_charpoly(fam: LineFamily) -> list[Fraction]:
    """Characteristic polynomial of the family's Seidel matrix, monic
    ascending, computed without ever forming a t x t matrix.

    The nonzero eigenvalues of the t x t Gram matrix of the representatives
    agree with those of the n x n product (Gram)(B^T B), where B stacks the
    representatives.  Mapping each Gram eigenvalue mu to (mu/N - 1)/alpha
    and restoring the t - r zero eigenvalues as -1/alpha yields det(xI - S)
    for t in the hundreds at n x n cost.
    """
    q, root, k = _factored_charpoly(fam)
    return poly_mul(q, poly_linear_power(root, k))


def absolute_bound(n: int) -> int:
    """n(n+1)/2: the most equiangular lines any rank-n set can have."""
    n = _integer(n)
    if n < 1:
        raise BadParameter("rank must be positive")
    return n * (n + 1) // 2


def relative_bound(n: int, alpha) -> int:
    """floor of n(1 - alpha^2)/(1 - n*alpha^2); requires n*alpha^2 < 1."""
    n, alpha = _integer(n), _rational(alpha)
    if n < 1 or not 0 < alpha < 1:
        raise BadParameter("need n >= 1 and 0 < alpha < 1")
    if n * alpha**2 >= 1:
        raise NotApplicable(f"n*alpha^2 = {n * alpha**2} >= 1")
    return floor(n * (1 - alpha**2) / (1 - n * alpha**2))


def neumann_check(t: int, n: int, alpha) -> bool:
    """Parity test: t > 2n forces 1/alpha to be an odd integer.

    True when the constraint holds or does not apply (t <= 2n), False when
    t > 2n and 1/alpha is not an odd integer.
    """
    t, n, alpha = _integer(t), _integer(n), _rational(alpha)
    if not 0 < alpha < 1:
        raise BadParameter("need 0 < alpha < 1")
    if t <= 2 * n:
        return True
    inv = 1 / alpha
    return inv.denominator == 1 and inv.numerator % 2 == 1


def asymptotic_count(n: int, k: int) -> int:
    """floor(k(n-1)/(k-1)): the eventual maximum at alpha = 1/(2k-1).

    For every k >= 2 there is a dimension beyond which no equiangular
    family at angle arccos(1/(2k-1)) beats this count.
    """
    n, k = _integer(n), _integer(k)
    if k < 2 or n < 1:
        raise BadParameter("need k >= 2 and n >= 1")
    return k * (n - 1) // (k - 1)


def certify(fam: LineFamily, width: Fraction = DEFAULT_ROOT_WIDTH) -> dict:
    """Run every certificate on the family and report, never raise.

    Checks: rank consistency, the absolute bound, the rational bound at the
    family's angle (when its hypothesis applies), the parity test, and the
    certified location of the least Seidel eigenvalue: equal to -1/alpha
    with multiplicity exactly t - rank when t > rank, strictly above
    -1/alpha when t = rank.  Failures become entries with passed=False.
    Reference counts from published tables are attached as annotations and
    are never asserted.

    roots_above and least_root need q of _factored_charpoly real-rooted: it
    is, as Gram (B^T B) is similar to the symmetric Gram^1/2 B^T B Gram^1/2.
    """
    t, r, alpha = fam.t, fam.rank, fam.alpha
    report = {
        "t": t,
        "rank": r,
        "alpha": alpha,
        "norm": fam.pairs.norm,
        "checks": [],
        "annotations": {
            "known_max_at_rank": KNOWN_MAX_LINES.get(r),
            "lattice_known_at_rank": LATTICE_LINES_KNOWN.get(r),
        },
    }
    checks = report["checks"]
    if alpha is None:
        checks.append(
            {
                "check": "degenerate",
                "passed": True,
                "note": "fewer than two lines; nothing to certify",
            }
        )
        report["ok"] = True
        return report

    recount = row_rank(fam.pairs.reps)
    checks.append(
        {
            "check": "rank",
            "passed": recount == r and r <= min(t, fam.lattice.dim),
            "rank": r,
        }
    )

    ab = absolute_bound(r)
    checks.append(
        {
            "check": "absolute_bound",
            "passed": t <= ab,
            "bound": ab,
            "equality": t == ab,
        }
    )

    entry = {"check": "relative_bound", "applicable": True}
    try:
        rb = relative_bound(r, alpha)
        entry.update(passed=t <= rb, bound=rb, equality=t == rb)
    except NotApplicable as exc:
        entry.update(applicable=False, passed=True, note=str(exc))
        if t <= 1 / alpha**2:
            entry["note"] += (
                "; hypothesis conflict: t <= alpha^-2 holds yet"
                " rank*alpha^2 >= 1, so no bound value is reported"
            )
    checks.append(entry)

    checks.append(
        {
            "check": "neumann",
            "passed": neumann_check(t, r, alpha),
            "applicable": t > 2 * r,
            "inverse_alpha": 1 / alpha,
        }
    )

    try:
        q, target, k = _factored_charpoly(fam)
    except VerificationError as exc:  # rank or t disagrees with the vectors
        checks.append({"check": "least_eigenvalue", "passed": False, "note": str(exc)})
        report["ok"] = False
        return report
    mult = k + root_multiplicity(q, target)
    entry = {"check": "least_eigenvalue", "value": target, "multiplicity": mult}
    # no root of q at or below -1/alpha: an extra one there fails mult already
    below = len(q) - 1 - roots_above(q, target)
    entry["passed"] = mult == t - r and below == 0
    if t > r:
        entry["interval"] = (target, target)
    else:
        entry["interval"] = least_root(q, width)
        entry["note"] = "t = rank: the bound eigenvalue is not attained"
    checks.append(entry)

    report["ok"] = all(c["passed"] for c in checks)
    return report
