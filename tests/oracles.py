"""Independent reference implementations used only to check the library.

Everything here is deliberately written with different algorithms than the
package (cofactor expansion instead of Bareiss, rational Gauss instead of
HNF, a numpy grid scan instead of tree enumeration) so that agreement is
meaningful.  `ref_search_chunk`, `ref_coordinate_bounds`, `ref_lll_reduce`
and `ref_krylov_annihilator` are the exceptions: they are the library's
earlier kernels, which walk the same tree, bound the same coordinates and
make the same reduction steps in the plainest way, so that the two can be
compared result for result and in the same order.  So are the Sturm-chain
root finder (`sturm_chain` .. `smallest_real_root`), which
`exact.least_root` replaced while keeping every bisection decision,
`ref_least_check`, the least-eigenvalue entry of `certify` as the Sturm
counts made it, `ref_check_scalar_products_after_projection`, the
pair-by-pair loop of `mod2.check_scalar_products_after_projection`, and
`ref_seidel_rows` and `ref_equiangular_pairs`, the entry-by-entry scans
that `lines.SeidelMatrix` and `lines.line_family` ran before they kept one
integer array.
`berkowitz`, the division-free characteristic polynomial over the
integers, is the reference for the multimodular `exact.charpoly`.
`theta_series` gives shell sizes in closed form, from q-series in integers:
it shares nothing with the walks, so it checks LLL, the walk data, both
kernels and the map back at once.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from eqlat import mod2
from eqlat.errors import (
    BadParameter,
    DimensionMismatch,
    NotEquiangular,
    NotIntegral,
    VerificationError,
    WrongNormX0,
)
from eqlat.exact import (
    DEFAULT_ROOT_WIDTH,
    IntMatrix,
    RatMatrix,
    _to_primitive_int,
    _trim,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_linear_power,
    poly_mul,
    root_multiplicity,
    squarefree_part,
)
from eqlat.fastops import gram_product, imatmul_array
from eqlat.lattice import GramLattice
from eqlat.lines import _MINPOLY_CAP
from eqlat.shortvec import _shell_rows, minimum, shell


def ref_det(rows):
    """Determinant by Leibniz expansion; fine up to about 7 x 7."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # Count inversions for the sign.
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def ref_rank(rows):
    """Rank by plain Gaussian elimination over Fraction."""
    a = [[Fraction(v) for v in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        r += 1
    return r


def minors_gcd(rows, k):
    """gcd of all k x k minors; equals 1 iff the row lattice is saturated."""
    import math

    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    g = 0
    for ris in combinations(range(nr), k):
        for cis in combinations(range(nc), k):
            sub = [[rows[i][j] for j in cis] for i in ris]
            g = math.gcd(g, ref_det(sub))
            if g == 1:
                return 1
    return g


def poly_from_roots(roots):
    """Ascending integer coefficients of prod (x - r) for rational roots.

    Returned cleared of denominators (primitive up to sign of the lead).
    """
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    import math

    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in coeffs]


def grid_short_vectors(gram_rows, bound):
    """All x != 0 with x G x^T <= bound by scanning a box, via numpy.

    The box radius per coordinate comes from the dual Gram diagonal:
    x_i^2 <= bound * (G^-1)_ii for any x in the ellipsoid.  Intended for
    small well-conditioned lattices in tests; returns a sorted list of
    (norm, vector) with one representative per +-pair (the one whose first
    nonzero coordinate is positive).
    """
    g = np.array(gram_rows, dtype=np.int64)
    n = g.shape[0]
    ginv = np.linalg.inv(g.astype(float))
    radii = [int(np.floor(np.sqrt(bound * ginv[i, i] + 1e-9))) for i in range(n)]
    grids = np.meshgrid(*[np.arange(-r, r + 1) for r in radii], indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1).astype(np.int64)
    norms = np.einsum("ij,jk,ik->i", pts, g, pts)
    keep = (norms <= bound) & (norms > 0)
    out = []
    for vec, nm in zip(pts[keep], norms[keep]):
        v = tuple(int(c) for c in vec)
        lead = next(c for c in v if c != 0)
        if lead > 0:
            out.append((int(nm), v))
    out.sort()
    return out


def ref_search_chunk(payload: dict, visits: list | None = None) -> object:
    """The recursive enumeration kernel that shortvec._search_chunk replaced.

    It recomputes every centre from scratch and makes a call per node for
    the bounds and per leaf for the bookkeeping; the tree, its order and
    the results are meant to be the same as the library's.  visits, when
    given, receives the level of every node (every call below the top
    level) in the order they are entered.

    mode: "le" collects (scaled_norm, coords) leaves and "shell" the coords
    of exact-norm leaves; "first" stops at the first exact-norm leaf, which
    is the least in the walk's order (each level ascending, top level
    first); "count" counts exact-norm leaves closed-form at the bottom
    level; "mincount" keeps the least nonzero scaled norm found as an
    inclusive bound, drops the leaves it holds whenever it lowers that
    bound, and returns (best, leaves at best).
    """
    n = payload["n"]
    delta = payload["delta"]
    sub = payload["sub"]
    g = payload["g"]
    parity = payload["parity"]
    mode = payload["mode"]
    target = payload["target"]
    limit = payload["limit"]
    step = 2 if parity is not None else 1
    x = [0] * n
    out: list = []
    count = 0

    def bounds(k: int, s: int, room: int, zero_above: bool) -> tuple[int, int]:
        kmax = math.isqrt(room // g[k])
        d = delta[k + 1]
        lo = -((kmax + s) // d)
        hi = (kmax - s) // d
        if zero_above and lo < 0:
            lo = 0
        if parity is not None and (lo - parity[k]) % 2:
            lo += 1
        return lo, hi

    def leaf(a2: int) -> bool:
        """Record a nonzero leaf of scaled norm a2 <= limit; True ends the walk."""
        nonlocal limit
        if mode == "mincount":
            if a2 < limit:
                limit = a2
                out.clear()
            out.append(tuple(x))
        elif mode == "le":
            out.append((a2, tuple(x)))
        elif a2 == target:
            out.append(tuple(x))
            if mode == "first":
                limit = -1  # every pending branch now fails its bound
                return True
        return False

    def rec(k: int, acc: int, zero_above: bool) -> None:
        nonlocal count
        if visits is not None:
            visits.append(k)
        row = sub[k]
        s = 0
        for j in range(k + 1, n):
            xj = x[j]
            if xj:
                s += row[j - k - 1] * xj
        room = limit - acc
        if room < 0:
            return
        d = delta[k + 1]
        gk = g[k]
        if k == 0:
            if mode == "count":
                rem = target - acc
                if rem < 0 or rem % gk:
                    return
                q, r = divmod(rem, gk)
                kk = math.isqrt(q)
                if kk * kk != q:
                    return
                lo, hi = bounds(0, s, room, zero_above)
                for kroot in {kk, -kk}:
                    xv, r2 = divmod(kroot - s, d)
                    if r2 == 0 and lo <= xv <= hi and (
                        parity is None or (xv - parity[0]) % 2 == 0
                    ):
                        if acc or s or xv:
                            count += 1
                return
            lo, hi = bounds(0, s, room, zero_above)
            for xv in range(lo, hi + 1, step):
                kv = d * xv + s
                a2 = acc + gk * kv * kv
                if a2 > limit or a2 == 0:
                    continue
                x[0] = xv
                if leaf(a2):
                    return
            return
        lo, hi = bounds(k, s, room, zero_above)
        for xv in range(lo, hi + 1, step):
            kv = d * xv + s
            a2 = acc + gk * kv * kv
            if a2 > limit:
                continue
            x[k] = xv
            rec(k - 1, a2, zero_above and xv == 0)
        x[k] = 0

    dtop = delta[n]
    gtop = g[n - 1]
    for xv in payload["tops"]:
        kv = dtop * xv
        a2 = gtop * kv * kv
        if a2 > limit:
            continue
        x[n - 1] = xv
        if n > 1:
            rec(n - 2, a2, xv == 0)
        elif a2 == 0:
            continue
        elif mode == "count":
            count += int(a2 == target)
        elif leaf(a2):
            break
    if mode == "count":
        return count
    if mode == "mincount":
        return limit, out
    return out


def ref_coordinate_bounds(delta: list[int], sub: list[list[int]], g: list[int],
                          limit: int) -> list[int]:
    """The largest |x_k| of a real point with sum_k g_k y_k^2 <= limit, where
    y = M x, M_kk = delta[k+1] and M_kj = sub[k][j-k-1] for j > k, so every
    node of a walk with that limit has |x_k| <= bound[k]: the maximum is
    sqrt(limit * sum_i N_ki^2 / g_i) for N = M^-1.  Row k of N is kept in
    integers, N_ki times delta[k+1] * .. * delta[i+1]."""
    n = len(g)
    scaled: list = [None] * n
    for k in range(n - 1, -1, -1):
        row = [1]
        for i in range(k + 1, n):
            acc, p = 0, 1  # p = delta[k+2] * .. * delta[j]
            for j in range(k + 1, i + 1):
                acc += sub[k][j - k - 1] * scaled[j][i - j] * p
                p *= delta[j + 1]
            row.append(-acc)
        scaled[k] = row
    bound = []
    for k in range(n):
        total, p = Fraction(0), 1
        for i in range(k, n):
            p *= delta[i + 1]
            total += Fraction(scaled[k][i - k] ** 2, p * p * g[i])
        bound.append(math.isqrt(math.floor(limit * total)))
    return bound


def _round_half_up(q: Fraction) -> int:
    return math.floor(q + Fraction(1, 2))


def _gso(g: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Gram-Schmidt data (mu, bstar) of a basis, from its Gram matrix."""
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [Fraction(0)] * n
    for k in range(n):
        for j in range(k):
            mu[k][j] = (
                g[k][j] - sum(mu[k][i] * mu[j][i] * bstar[i] for i in range(j))
            ) / bstar[j]
        bstar[k] = g[k][k] - sum(mu[k][j] ** 2 * bstar[j] for j in range(k))
    return mu, bstar


def ref_lll_reduce(
    lat: GramLattice, delta: Fraction = Fraction(99, 100)
) -> tuple[GramLattice, IntMatrix]:
    """The Fraction LLL that shortvec.lll_reduce replaced.

    Returns (reduced, U) with reduced.gram == U G U^T and det U = +-1.
    Exact rational arithmetic throughout: a Gram-Schmidt of the input, then
    Fraction updates of mu, bstar and the Gram matrix at every step.
    """
    n = lat.dim
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n <= 1:
        return lat, IntMatrix(u)
    g = [[Fraction(v) for v in row] for row in lat.gram.num.rows]
    mu, bstar = _gso(g)

    def red(k: int, l: int) -> None:
        q = _round_half_up(mu[k][l])
        if q == 0:
            return
        u[k] = [a - q * b for a, b in zip(u[k], u[l])]
        # Gram update for b_k -> b_k - q b_l.
        gkl = g[k][l]
        g[k][k] += q * q * g[l][l] - 2 * q * gkl
        for i in range(n):
            if i != k:
                g[k][i] -= q * g[l][i]
                g[i][k] = g[k][i]
        for j in range(l):
            mu[k][j] -= q * mu[l][j]
        mu[k][l] -= q

    def swap(k: int) -> None:
        u[k - 1], u[k] = u[k], u[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        m = mu[k][k - 1]
        big = bstar[k] + m * m * bstar[k - 1]
        mu[k][k - 1] = m * bstar[k - 1] / big
        bstar[k] = bstar[k - 1] * bstar[k] / big
        bstar[k - 1] = big
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    k = 1
    while k < n:
        red(k, k - 1)
        if bstar[k] < (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1

    num = IntMatrix([[int(v) for v in row] for row in g])
    return GramLattice(RatMatrix(num, lat.gram.den)), IntMatrix(u)


def is_lll_reduced(lat: GramLattice, delta: Fraction = Fraction(99, 100)) -> bool:
    """Check the size and Lovasz conditions from a fresh GSO."""
    n = lat.dim
    if n <= 1:
        return True
    mu, bstar = _gso(lat.gram.to_fractions())
    for k in range(n):
        for j in range(k):
            if abs(mu[k][j]) > Fraction(1, 2):
                return False
    for k in range(1, n):
        if bstar[k] < (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            return False
    return True


def ref_krylov_annihilator(rows, start) -> list[Fraction]:
    """The Fraction Krylov iteration that lines._krylov_annihilator replaced.

    Monic least-degree p with p(rows) @ start = 0, or [] once the Krylov
    space outgrows _MINPOLY_CAP.

    Maintains a row-reduced basis of the Krylov space; the first vector that
    reduces to zero yields the dependency and hence the annihilator of the
    start vector.
    """
    t = len(rows)
    basis = []  # (pivot index, reduced vector, combination over Krylov steps)
    v = [Fraction(e) for e in start]
    combo = [Fraction(1)]
    while True:
        red = list(v)
        coeffs = list(combo)
        for piv, bvec, bcombo in basis:
            if red[piv]:
                f = red[piv] / bvec[piv]
                for k in range(t):
                    red[k] -= f * bvec[k]
                for k in range(len(bcombo)):
                    coeffs[k] -= f * bcombo[k]
        piv = next((k for k in range(t) if red[k]), None)
        if piv is None:
            lead = coeffs[-1]
            return [c / lead for c in coeffs]
        basis.append((piv, red, coeffs))
        if len(basis) > _MINPOLY_CAP:
            return []
        v = [sum(row[k] * v[k] for k in range(t)) for row in rows]
        combo = [Fraction(0)] + combo


def _rem_primitive(a: Sequence, b: Sequence) -> list[int]:
    """Primitive integer remainder of a by b (sign of the true remainder)."""
    return _to_primitive_int(poly_divmod(a, b)[1])


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


def ref_least_check(q, target, k, t, r, width=DEFAULT_ROOT_WIDTH):
    """The least-eigenvalue entry of `lines.certify` from (q, target, k) of
    `lines._factored_charpoly`, located with Sturm counts."""
    extra = root_multiplicity(q, target)
    mult = k + extra
    entry = {"check": "least_eigenvalue", "value": target, "multiplicity": mult}
    if t > r:
        q = poly_divmod(q, poly_linear_power(target, extra))[0]
        chain = sturm_chain(q)
        below = count_roots_halfopen(chain, -cauchy_bound(q) - 1, target)
        entry["passed"] = mult == t - r and below == 0
        entry["interval"] = (target, target)
    else:
        chain = sturm_chain(q)
        at_or_below = count_roots_halfopen(chain, -cauchy_bound(q) - 1, target)
        entry["passed"] = mult == 0 and at_or_below == 0
        entry["interval"] = smallest_real_root(q, width)
        entry["note"] = "t = rank: the bound eigenvalue is not attained"
    return entry


def berkowitz(m: IntMatrix) -> list[int]:
    """Coefficients of det(x*I - m), ascending, by Berkowitz's algorithm.

    Division-free, so the coefficients are integers.  Returns
    [c0, c1, ..., 1] of length n + 1.
    """
    rows = m.to_lists()
    n = len(rows)
    if n == 0:
        return [1]
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("berkowitz needs a square matrix")
    # polys[k] holds det(x*I - leading k x k block), descending coefficients.
    poly = [1, -rows[0][0]]
    for k in range(1, n):
        akk = rows[k][k]
        row = rows[k][:k]
        col = [rows[i][k] for i in range(k)]
        block = [r[:k] for r in rows[:k]]
        # Toeplitz column: -a_kk, -(row @ col), -(row @ M col), ...
        toep = [1, -akk]
        vec = col
        for _ in range(k):
            toep.append(-sum(a * b for a, b in zip(row, vec)))
            vec = [sum(block[i][j] * vec[j] for j in range(k)) for i in range(k)]
        # Lower-triangular Toeplitz times the previous coefficient vector:
        # the first k + 2 entries of the convolution.
        poly = poly_mul(toep, poly)[: k + 2]
    return list(reversed(poly))


def ref_check_scalar_products_after_projection(lat: GramLattice, v: Sequence[int]) -> dict:
    """`mod2.check_scalar_products_after_projection` with its slice pairs
    checked one at a time: the antipodal partner by x + y == v, each
    product as a Fraction."""
    v = lat._check(v)
    m = minimum(lat)
    if lat.norm(v) != 2 * m - 2:
        raise WrongNormX0(f"N(v) = {lat.norm(v)}, need 2m - 2 = {2 * m - 2}")
    proj = lat.project_along(v)
    px = imatmul_array(_shell_rows(lat, m), proj._tinv.rows)  # proj.coords of each row
    images = set(map(tuple, px[:, 1:].tolist()))
    covered = all(u in images or mod2._neg(u) in images
                  for u in shell(proj.lattice, minimum(proj.lattice)))
    lo, hi = Fraction(m - 3, 4), Fraction(3 * m - 1, 4)
    report: dict = {"applicable": covered, "m": m, "bounds": (lo, hi)}
    if not covered:
        report["reason"] = "image minimum not attained on projected minimal vectors"
        return report
    slice_ = mod2._s0_slice(lat, v, m)
    den = lat.gram.den
    prod = gram_product(slice_, lat.gram.num.rows)
    values = set()
    checked = 0
    for i in range(len(slice_)):
        for j in range(i + 1, len(slice_)):
            if tuple(a + b for a, b in zip(slice_[i], slice_[j])) == v:
                continue  # p(x) = -p(y): the excluded antipodal partner
            d = Fraction(prod[i][j], den)
            checked += 1
            values.add(d)
            if not lo <= d <= hi:
                raise VerificationError(f"slice product {d} outside [{lo}, {hi}]")
    report.update(ok=True, pairs_checked=checked, slice_size=len(slice_),
                  products=sorted(values))
    return report


def _is_integer(v) -> bool:
    try:
        return int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


def ref_seidel_rows(rows) -> tuple[tuple[int, ...], ...]:
    """The rows SeidelMatrix(rows) keeps, scanned entry by entry.

    The integer rule comes first (NotIntegral names the first row with an
    entry v where int(v) != v); the rest is the scan SeidelMatrix made
    before it kept one array: row by row, the length, the diagonal, then
    for each later column +-1 and symmetry.
    """
    rows = [tuple(row) for row in rows]
    for row in rows:
        if not all(map(_is_integer, row)):
            raise NotIntegral(f"entries {row} are not all integers")
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    t = len(rows)
    for i, row in enumerate(rows):
        if len(row) != t:
            raise BadParameter("matrix is not square")
        if row[i] != 0:
            raise BadParameter(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, t):
            if row[j] not in (-1, 1):
                raise BadParameter(f"entry ({i},{j}) = {row[j]} is not +-1")
            if rows[j][i] != row[j]:
                raise BadParameter(f"asymmetry at ({i},{j})")
    return rows


def ref_equiangular_pairs(lat: GramLattice, reps: Sequence[Sequence[int]]) -> Fraction:
    """The common |inner| of two or more representatives, by the pair loop
    line_family ran before its product array: NotEquiangular names the
    first pair i < j, in row-major order, off the |inner| of pair (0, 1)."""
    t, den = len(reps), lat.gram.den
    prods = gram_product(reps, lat.gram.num.rows)
    c_num = abs(prods[0][1])
    for i in range(t):
        for j in range(i + 1, t):
            if abs(prods[i][j]) != c_num:
                raise NotEquiangular(
                    f"pairs {reps[i]} and {reps[j]}: |inner| "
                    f"{Fraction(abs(prods[i][j]), den)} != {Fraction(c_num, den)}"
                )
    return Fraction(c_num, den)


def ref_poly_at_matrix(rows: Sequence[Sequence[int]], p: Sequence[int]) -> list[list[int]]:
    """p(rows) in Python integers: the sum of p[k] rows^k, powers by a
    plain triple loop."""
    t = len(rows)
    power = [[int(i == j) for j in range(t)] for i in range(t)]
    out = [[0] * t for _ in range(t)]
    for c in p:
        out = [[o + c * e for o, e in zip(orow, prow)] for orow, prow in zip(out, power)]
        power = [[sum(power[i][k] * rows[k][j] for k in range(t)) for j in range(t)]
                 for i in range(t)]
    return out


# -- theta series ---------------------------------------------------------------
# Conway and Sloane, Sphere Packings, Lattices and Groups, ch. 4 and 7.  A
# series is the list of its first coefficients, exact integers throughout.


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:len(a) - i]):
            out[i + j] += x * y
    return out


def _series_pow(a: list[int], n: int) -> list[int]:
    out = [1] + [0] * (len(a) - 1)
    for _ in range(n):
        out = _series_mul(out, a)
    return out


def _jacobi(terms: int, sign: int) -> list[int]:
    """theta_3 (sign 1) or theta_4 (sign -1): the sum over m in Z of
    sign**m q**(m*m)."""
    out = [0] * terms
    for m in range(-math.isqrt(terms - 1), math.isqrt(terms - 1) + 1):
        out[m * m] += sign ** abs(m)
    return out


def _eisenstein4(terms: int) -> list[int]:
    """E_4 = 1 + 240 sum_k sigma_3(k) q**k."""
    return [1] + [240 * sum(d**3 for d in range(1, k + 1) if k % d == 0) for k in range(1, terms)]


def _discriminant(terms: int) -> list[int]:
    """Delta = q prod_k (1 - q**k)**24."""
    out = [0, 1] + [0] * (terms - 2)
    for k in range(1, terms):
        factor = [1] + [0] * (terms - 1)
        factor[k] = -1
        out = _series_mul(out, _series_pow(factor, 24))
    return out


def theta_series(name: str, n: int, terms: int) -> list[int]:
    """The number of vectors of each norm 0 .. terms - 1, both signs and 0
    counted, of Z^n ("Z": theta_3^n), D_n ("D": (theta_3^n + theta_4^n) / 2),
    E8 ("E", n = 8: E_4 in q^2) or the Leech lattice ("Leech", n = 24:
    E_4^3 - 720 Delta in q^2)."""
    if name == "Z":
        return _series_pow(_jacobi(terms, 1), n)
    if name == "D":
        return [(a + b) // 2 for a, b in zip(_series_pow(_jacobi(terms, 1), n),
                                              _series_pow(_jacobi(terms, -1), n))]
    half = (terms + 1) // 2  # the even lattices have even norms alone
    if name == "E" and n == 8:
        even = _eisenstein4(half)
    elif name == "Leech" and n == 24:
        even = [a - 720 * b for a, b in zip(_series_pow(_eisenstein4(half), 3), _discriminant(half))]
    else:
        raise ValueError(f"no theta series for {name}{n}")
    return [even[r // 2] if r % 2 == 0 else 0 for r in range(terms)]
