"""Output checkers that share no code with eqlat.

Every function takes plain data (integer lists, strings, numbers) and
returns a list of problems; an empty list means the output is correct.
The expected values are closed forms or theorems, never stored copies of
an earlier run:

- Leech: 196560 / 2 = 98280 norm-4 pairs; even unimodular Gram.
- Witt family (any norm-6 x0, since Co0 is transitive on them): t = 276,
  rank 23, alpha = 1/5, Seidel charpoly (x+5)^253 (x-55)^23.
- 28 lines: charpoly (x+3)^21 (x-9)^7.
- Root lattices: n(n+1), 2n(n-1), 72, 126, 240 roots; families of
  t = r (A), 2r - 2 (D), 10, 16, 28 (E) lines of norm 6, alpha = 1/3.
- Relative lattice <x0, 2L> cap x0^perp: dimension n - 1 and determinant
  4^(n-2) det(L) N(x0) (index of Zx0 + section in <x0, 2L> is N(x0)/2).
- Random Seidel matrices: the certified interval holds numpy's least
  eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

_SAFE = 2**62


def bareiss_det(m) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def products(rows, gram, cols=None) -> list[list[int]]:
    """rows G cols^T exactly; int64 only when an a-priori bound allows it."""
    cols = rows if cols is None else cols
    if not rows or not cols:
        return [[] for _ in rows]
    n = len(gram)
    big = (max(abs(v) for r in rows for v in r) * max(abs(v) for r in cols for v in r)
           * max(abs(v) for r in gram for v in r) * n * n)
    if big < _SAFE:
        a, g, b = (np.array(x, dtype=np.int64) for x in (rows, gram, cols))
        return (a @ g @ b.T).tolist()
    rg = [[sum(r[k] * gram[k][j] for k in range(n)) for j in range(n)] for r in rows]
    return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in rg]


def poly_from_roots(roots: dict[int, int]) -> list[int]:
    """Ascending coefficients of prod (x - root)^mult."""
    p = [1]
    for root, mult in roots.items():
        q = [comb(mult, k) * (-root) ** (mult - k) for k in range(mult + 1)]
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        p = out
    return p


WITT_CHARPOLY = poly_from_roots({-5: 253, 55: 23})
LINES28_CHARPOLY = poly_from_roots({-3: 21, 9: 7})


def root_count(fam: str, n: int) -> int:
    """Number of roots (norm-2 vectors) of A_n, D_n, E_n."""
    if fam == "A":
        return n * (n + 1)
    if fam == "D":
        return 2 * n * (n - 1)
    return {6: 72, 7: 126, 8: 240}[n]


def root_family_size(fam: str, n: int) -> int:
    """Lines of the congruence family of A_n, D_n, E_n (rank r = n - 1)."""
    r = n - 1
    if fam == "A":
        return r
    if fam == "D":
        return 2 * r - 2
    return {6: 10, 7: 16, 8: 28}[n]


def _canonical(v) -> tuple:
    for c in v:
        if c:
            return tuple(v) if c > 0 else tuple(-x for x in v)
    return tuple(v)


def check_gram(gram, den: int, dim: int, det=None, even=False) -> list[str]:
    """Shape, symmetry, and optionally det(gram/den) and evenness."""
    bad = []
    if len(gram) != dim or any(len(r) != dim for r in gram):
        return [f"gram is not {dim}x{dim}"]
    if any(gram[i][j] != gram[j][i] for i in range(dim) for j in range(i)):
        bad.append("gram is not symmetric")
    if det is not None and Fraction(bareiss_det(gram), den**dim) != det:
        bad.append(f"det(gram/den) != {det}")
    if even and (den != 1 or any(gram[i][i] % 2 for i in range(dim))):
        bad.append("form is not even")
    return bad


def check_shell(vectors, gram, norm: int, count: int) -> list[str]:
    """count distinct +-pairs of norm `norm`, one canonical vector each."""
    bad = []
    if len(vectors) != count:
        bad.append(f"shell has {len(vectors)} pairs, expected {count}")
    if len({_canonical(v) for v in vectors}) != len(vectors):
        bad.append("shell repeats a +-pair")
    if any(_canonical(v) != tuple(v) for v in vectors):
        bad.append("shell vector is not canonical")
    if vectors and any(n != norm for n in norms(vectors, gram)):
        bad.append(f"shell vector of norm != {norm}")
    return bad


def norms(vectors, gram) -> list[int]:
    """v G v^T for each row, exactly."""
    n = len(gram)
    big = max(abs(c) for v in vectors for c in v) ** 2 * max(abs(c) for r in gram for c in r) * n * n
    if big < _SAFE:
        v = np.array(vectors, dtype=np.int64)
        return np.einsum("ij,jk,ik->i", v, np.array(gram, dtype=np.int64), v).tolist()
    return [products([v], gram)[0][0] for v in vectors]


def check_family(vectors, gram, x0, t: int, norm: int, prod: int) -> list[str]:
    """t lines of one norm, products +-prod, orthogonal to x0, = x0 mod 2.

    gram is the integer numerator; norm and prod are in its units.
    """
    bad = []
    if len(vectors) != t:
        bad.append(f"family has {len(vectors)} lines, expected {t}")
    if len({_canonical(v) for v in vectors}) != len(vectors):
        bad.append("family repeats a line")
    if not vectors:
        return bad
    p = products(vectors, gram)
    for i, row in enumerate(p):
        if row[i] != norm:
            bad.append(f"vector {i} has norm {row[i]} != {norm}")
            break
        if any(abs(row[j]) != prod for j in range(len(row)) if j != i):
            bad.append(f"vector {i} has a product other than +-{prod}")
            break
    if any(r[0] for r in products(vectors, gram, [x0])):
        bad.append("family vector not orthogonal to x0")
    if any((a - b) % 2 for v in vectors for a, b in zip(v, x0)):
        bad.append("family vector not congruent to x0 mod 2L")
    return bad


def check_charpoly(got, want) -> list[str]:
    got = [Fraction(c) for c in got]
    if got != [Fraction(c) for c in want]:
        return [f"charpoly differs from the closed form (degree {len(got) - 1})"]
    return []


def check_least(entry: dict, value, mult: int) -> list[str]:
    """certify's least-eigenvalue entry: value with exact multiplicity."""
    lo, hi = (Fraction(x) for x in entry["interval"])
    if not entry["passed"] or lo != value or hi != value or entry["multiplicity"] != mult:
        return [f"least eigenvalue {lo}..{hi} x{entry['multiplicity']},"
                f" expected {value} x{mult}"]
    return []


def check_above(entry: dict, value) -> list[str]:
    """t = rank: the least eigenvalue lies strictly above value."""
    lo = Fraction(entry["interval"][0])
    if not entry["passed"] or entry["multiplicity"] != 0 or lo <= value:
        return [f"least eigenvalue interval starts at {lo}, not above {value}"]
    return []


def check_interval(rows, interval, tol: float = 1e-8) -> list[str]:
    """The certified interval contains numpy's least eigenvalue."""
    lam = float(np.linalg.eigvalsh(np.array(rows, dtype=float))[0])
    lo, hi = (Fraction(x) for x in interval)
    if not (float(lo) - tol <= lam <= float(hi) + tol) or hi - lo > Fraction(1, 2**40):
        return [f"interval [{float(lo)}, {float(hi)}] misses eigvalsh {lam}"]
    return []


def check_relative(basis, gram, den: int, x0, rel_gram, rel_den: int,
                   det_l, min_norm) -> list[str]:
    """The relative lattice: rows in <x0, 2L>, orthogonal to x0, right det.

    Basis vectors are nonzero lattice vectors, so no diagonal entry may be
    below the relative minimum 4m - N(x0) = min_norm.  basis is None when
    only the Gram (a lattice file) is available.
    """
    n = len(gram)
    bad = check_gram(rel_gram, rel_den, n - 1)
    if bad:
        return bad
    nx0 = Fraction(products([x0], gram)[0][0], den)
    want = 4 ** (n - 2) * Fraction(det_l) * nx0
    if Fraction(bareiss_det(rel_gram), rel_den ** (n - 1)) != want:
        bad.append(f"relative det != 4^(n-2) det(L) N(x0) = {want}")
    if any(Fraction(rel_gram[i][i], rel_den) < min_norm for i in range(n - 1)):
        bad.append(f"relative basis vector shorter than the minimum {min_norm}")
    if basis is not None:
        if ([[Fraction(v, den) for v in r] for r in products(basis, gram)]
                != [[Fraction(v, rel_den) for v in r] for r in rel_gram]):
            bad.append("relative Gram != B G B^T")
        if any(r[0] for r in products(basis, gram, [x0])):
            bad.append("relative basis not orthogonal to x0")
        for r in basis:
            if any(c % 2 for c in r) and any((a - b) % 2 for a, b in zip(r, x0)):
                bad.append("relative basis row outside <x0, 2L>")
                break
    return bad


LEECH_PAIRS = 196560 // 2


def check_witt_report(doc: dict, gram, den: int, x0=None) -> list[str]:
    """`eqlat equi --json` on the Leech lattice: the 276-line Witt family.

    x0 is the base vector that was asked for, or None for the default one
    (any norm-6 vector gives the same family up to isometry).
    """
    want = {"t": 276, "rank": 23, "alpha": "1/5", "m": 4, "certified": True}
    bad = [f"{k} = {doc.get(k)!r}, expected {v!r}" for k, v in want.items()
           if doc.get(k) != v]
    src = doc.get("source", {})
    if (src.get("minimum"), src.get("s"), src.get("det"), src.get("dim")) != (
            "4", LEECH_PAIRS, "1", 24):
        bad.append(f"source block {src} is not Leech's (4, {LEECH_PAIRS}, 1, 24)")
    spec = doc.get("spectrum", {})
    if spec != {"least": ["-5", "-5"], "multiplicity": 253, "passed": True}:
        bad.append(f"spectrum {spec} is not -5 x253")
    if doc.get("bounds", {}).get("absolute") != {
            "applicable": True, "bound": 276, "equality": True, "passed": True}:
        bad.append("absolute bound is not met with equality at 276")
    got_x0 = doc.get("x0", [])
    if x0 is not None and got_x0 != list(x0):
        bad.append("report x0 differs from the x0 asked for")
    if len(got_x0) != 24 or products([got_x0], gram)[0][0] != 6 * den:
        return bad + ["x0 does not have norm 6"]
    return bad + check_family(doc.get("vectors", []), gram, got_x0, 276,
                              10 * den, 2 * den)
