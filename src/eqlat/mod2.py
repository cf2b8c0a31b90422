"""Congruence classes mod 2L and the equiangular line families they carry.

For congruent vectors y = x mod 2L with y != +-x, the halves
e = (y-x)/2 and f = (y+x)/2 are nonzero lattice vectors, which forces
N(x) + N(y) = 2N(e) + 2N(f) >= 4m with m the lattice minimum, and on an
integral lattice N(y) = N(x) mod 4.  Equality N(x) + N(y) = 4m makes
both halves minimal and x.y = 0.

Taking x0 of norm 2m - 2, the class vectors of norm 2m + 2 are therefore
all orthogonal to x0, and any two of them have product +-2, so they span
lines at the single angle arccos 1/(m+1).  This module builds that
family, either by enumerating the class shell or through the slice
S0 = {x minimal : x0.x = m - 1}, which x -> x0 - 2x maps bijectively
onto the family.  It also realizes the family as the full minimal-vector
set of a lattice of dimension n - 1, the intersection of <x0, 2L> with
the hyperplane orthogonal to x0; the Hermite form of <x0, 2L> is written
down from the parities of x0's coordinates, with no elimination.

Either route hands the vectors to lines.line_family, which checks the one
norm and the equal |inner| products, takes the rank, and rejects more
lines than Gerzon's bound r(r+1)/2 before forming any product; only the
checks specific to the class stay here.  The result is an
EquiangularSet, a LineFamily that also keeps x0 and m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadParameter,
    DegeneratePair,
    DimensionMismatch,
    EmptyClass,
    MixedNorms,
    NotCongruent,
    NotEquiangular,
    NotEven,
    NotGenerated,
    NotIntegral,
    VerificationError,
    WrongNormX0,
    ZeroVector,
)
from .exact import IntMatrix, _int_row, hnf, row_rank
from .fastops import gram_array, imatmul, imatmul_array, int_array
from .lattice import EmbeddedSublattice, GramLattice, Vec
from .lines import LineFamily, line_family
from .shortvec import (
    PairSet,
    _canonical,
    _shell_rows,
    coset_minimum,
    least_vector,
    minimum,
    vectors_upto,
)

__all__ = [
    "split_congruent_pair",
    "check_congruent_pair",
    "check_scalar_bound",
    "Mod2Class",
    "mod2_class",
    "default_x0",
    "EquiangularSet",
    "equiangular_direct",
    "equiangular_via_s0",
    "relative_lattice",
    "sqrt2_even_check",
    "check_scalar_products_after_projection",
]


def _neg(x: Vec) -> Vec:
    return tuple(-c for c in x)


def split_congruent_pair(x: Sequence[int], y: Sequence[int]) -> tuple[Vec, Vec]:
    """The halves e = (y-x)/2 and f = (y+x)/2 of a congruent pair.

    Both are lattice vectors exactly when y = x mod 2L, and both are
    nonzero when y != +-x; then x = f - e and y = e + f.
    """
    x, y = _int_row(x), _int_row(y)
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths {len(x)} and {len(y)}")
    if not any(x) or not any(y):
        raise ZeroVector("both vectors must be nonzero")
    if y == x or y == _neg(x):
        raise DegeneratePair("y = +-x leaves a zero half")
    if any((b - a) % 2 for a, b in zip(x, y)):
        raise NotCongruent("y - x has an odd coordinate")
    e = tuple((b - a) // 2 for a, b in zip(x, y))
    f = tuple((b + a) // 2 for a, b in zip(x, y))
    return e, f


def check_congruent_pair(lat: GramLattice, x: Sequence[int], y: Sequence[int]) -> dict:
    """Norm constraints on a congruent pair of an integral lattice.

    Enforces N(x) + N(y) >= 4m and N(y) = N(x) mod 4, and reports whether
    the sum is exactly 4m; in that case both halves must be minimal and
    x.y must vanish.  Returns {sum_ok, mod4_ok, equality_case, x_dot_y,
    e, f}.
    """
    if not lat.is_integral():
        raise NotIntegral("the mod-4 constraint needs an integral lattice")
    e, f = split_congruent_pair(lat._check(x), lat._check(y))
    m = minimum(lat)
    nx, ny = lat.norm(x), lat.norm(y)
    if nx + ny < 4 * m:
        raise VerificationError(f"norm sum {nx + ny} below 4m = {4 * m}")
    if (int(ny) - int(nx)) % 4:
        raise VerificationError(f"norms {nx}, {ny} differ by {ny - nx} mod 4")
    equality = nx + ny == 4 * m
    d = lat.inner(x, y)
    if equality:
        if lat.norm(e) != m or lat.norm(f) != m:
            raise VerificationError("equality case with a non-minimal half")
        if d != 0:
            raise VerificationError(f"equality case with x.y = {d}")
    return {
        "sum_ok": True,
        "mod4_ok": True,
        "equality_case": equality,
        "x_dot_y": d,
        "e": e,
        "f": f,
    }


def check_scalar_bound(
    lat: GramLattice,
    x: Sequence[int],
    y: Sequence[int],
    yp: Sequence[int],
) -> bool:
    """|y.y'| <= N(y) - 2m for same-norm vectors of one class.

    y and y' must both be congruent to x mod 2L, have equal norms, and
    not form a +-pair.  The bound is enforced; True is returned.
    """
    if not lat.is_integral():
        raise NotIntegral("class norm constraints need an integral lattice")
    x, y, yp = map(lat._check, (x, y, yp))
    if yp == y or yp == _neg(y):
        raise DegeneratePair("y' = +-y")
    for v in (y, yp):
        if any((b - a) % 2 for a, b in zip(x, v)):
            raise NotCongruent("vector not congruent to x mod 2L")
    msec = lat.norm(y)
    if lat.norm(yp) != msec:
        raise MixedNorms(f"norms {msec} and {lat.norm(yp)}")
    bound = msec - 2 * minimum(lat)
    d = lat.inner(y, yp)
    if abs(d) > bound:
        raise VerificationError(f"|y.y'| = {abs(d)} exceeds {bound}")
    return True


@dataclass(frozen=True, slots=True, eq=False)
class Mod2Class:
    """A congruence class x0 + 2L with its first minima.

    first is the least norm on the class, attained on the pairs in
    minimizers; when first < 2m that pair is unique.  second, when
    computed, is the next norm that occurs, with its shell.
    """

    lattice: GramLattice
    rep: Vec
    first: Fraction
    minimizers: PairSet
    second: Fraction | None
    second_shell: PairSet | None

    def __repr__(self):
        tail = f", second {self.second}" if self.second is not None else ""
        return (
            f"Mod2Class(first {self.first} on {len(self.minimizers)} pair(s){tail})"
        )


def mod2_class(
    lat: GramLattice,
    x0: Sequence[int],
    with_second: bool = False,
) -> Mod2Class:
    """Minima of the class x0 + 2L.

    The second minimum is searched only on integral lattices, where all
    norms of one class agree mod 4, stepping candidate norms by 4 from
    the lower bound 4m - first up to first + 4m, which is always attained.
    """
    x0 = lat._check(x0)
    first = coset_minimum(lat, x0)
    minimizers = PairSet(lat, _shell_rows(lat, first, x0))
    m = minimum(lat)
    if first < 2 * m and len(minimizers) != 1:
        raise VerificationError(
            f"first minimum {first} < 2m attained on {len(minimizers)} pairs"
        )
    second = second_shell = None
    if with_second:
        if not lat.is_integral():
            raise NotIntegral("second minimum search assumes the mod-4 stride")
        c = max(4 * m - first, first + 4)
        c += (int(first) - int(c)) % 4
        while c <= first + 4 * m:
            sh = _shell_rows(lat, c, x0)
            if len(sh):
                second = c
                second_shell = PairSet(lat, sh)
                break
            c += 4
    return Mod2Class(lat, x0, first, minimizers, second, second_shell)


def default_x0(lat: GramLattice) -> Vec:
    """Deterministic base point: the least vector of norm 2m - 2.

    Least in the canonical shell order, i.e. shell(lat, 2m - 2)[0], found
    without building that shell; EmptyClass if there is none (minimum 1).
    """
    r = 2 * minimum(lat) - 2
    x0 = least_vector(lat, r)
    if x0 is None:
        raise EmptyClass(f"no vectors of norm 2m - 2 = {r}")
    return x0


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class EquiangularSet(LineFamily):
    """The line family of the class vectors at norm 2m + 2 orthogonal to x0.

    A LineFamily (pairs, t, rank, c = 2, alpha = 1/(m+1) once t >= 2) that
    also records the base point x0 and the minimum m.  reason is set when a
    hypothesis failed (odd minimum) and the family is therefore expected to
    be empty (NotEquiangular if its class shell is no equiangular family);
    degenerate flags families of fewer than three lines.
    """

    x0: Vec
    m: Fraction
    reason: str | None

    @property
    def degenerate(self) -> bool:
        return self.t < 3


def _gate(lat: GramLattice, x0) -> tuple[Fraction, Vec, bool]:
    if not lat.is_integral():
        raise NotIntegral("congruence machinery needs an integral lattice")
    x0 = default_x0(lat) if x0 is None else lat._check(x0)  # before any walk
    m = minimum(lat)
    if not any(x0):
        raise ZeroVector("x0 must be nonzero")
    if lat.norm(x0) != 2 * m - 2:
        raise WrongNormX0(f"N(x0) = {lat.norm(x0)}, need 2m - 2 = {2 * m - 2}")
    odd_min = int(m) % 2 == 1
    if not odd_min and lat.integrality() == "odd":
        raise NotEven("odd lattice of even minimum: pass its even part instead")
    return m, x0, odd_min


def _assemble(lat, x0, m, vectors, odd_min) -> EquiangularSet:
    try:
        fam = line_family(lat, vectors)
    except NotEquiangular as exc:
        if odd_min:  # the even-minimum hypothesis fails, and with it the one angle
            raise NotEquiangular(f"odd minimum {m}: the class shell is not equiangular: {exc}") from exc
        raise VerificationError(f"class family is not equiangular: {exc}") from exc  # a wrong enumeration
    reps = fam.pairs.reps
    if reps:
        if fam.pairs.norm != 2 * m + 2:
            raise VerificationError(f"family norm {fam.pairs.norm} != {2 * m + 2}")
        if fam.c not in (None, 2):
            raise VerificationError(f"common |inner| {fam.c} != 2")
        for v in reps:
            if any((a - b) % 2 for a, b in zip(v, x0)):
                raise VerificationError("family member outside the class of x0")
        against = imatmul(reps, [[c] for c in imatmul([x0], lat.gram.num.rows)[0]])
        if any(row[0] for row in against):
            raise VerificationError("family member not orthogonal to x0")
    if fam.rank > lat.dim - 1:
        raise VerificationError(f"rank {fam.rank} exceeds n - 1 = {lat.dim - 1}")
    reason = None
    if odd_min:
        reason = f"odd minimum {m}: the even-minimum hypothesis fails"
    return EquiangularSet(lat, fam.pairs, fam.t, fam.rank, fam.c, fam.alpha,
                          x0, m, reason)


def equiangular_direct(lat: GramLattice, x0: Sequence[int] | None = None) -> EquiangularSet:
    """The family by direct enumeration of the class shell at 2m + 2."""
    m, x0, odd_min = _gate(lat, x0)
    return _assemble(lat, x0, m, _shell_rows(lat, 2 * m + 2, x0), odd_min)


def equiangular_via_s0(lat: GramLattice, x0: Sequence[int] | None = None) -> EquiangularSet:
    """The family from the minimal-vector slice x0.x = m - 1.

    x -> x0 - 2x maps the slice bijectively onto the signed family, so
    only minimal vectors are enumerated; rank(family) = rank(slice) - 1
    is enforced.
    """
    m, x0, odd_min = _gate(lat, x0)
    s0 = _s0_slice(lat, x0, m)
    ys = [tuple(a - 2 * b for a, b in zip(x0, s)) for s in s0]
    out = _assemble(lat, x0, m, ys, odd_min)
    if s0 and out.rank != row_rank(s0) - 1:
        raise VerificationError("family rank != slice rank - 1")
    if len(s0) != 2 * len(out.pairs):
        raise VerificationError("slice does not pair up with the family")
    return out


def _dots(lat: GramLattice, rows: np.ndarray, v: Vec) -> np.ndarray:
    """x G_num v for each row x: den times its product with v."""
    return imatmul_array(rows, imatmul(lat.gram.num.to_lists(), [[c] for c in v]))[:, 0]


def _s0_slice(lat: GramLattice, v: Vec, m: Fraction) -> list[Vec]:
    """The minimal vectors x with v.x = m - 1, one per +-pair, in shell order.

    Each pair contributes the member whose product with v is m - 1; all
    products come from one product of the cached shell array with G v.
    """
    reps = _shell_rows(lat, m)
    want = int((m - 1) * lat.gram.den)  # m * den is the integer norm x.G_num.x
    d = _dots(lat, reps, v)
    pick = np.flatnonzero((d == want) | (d == -want))
    return list(map(tuple, np.where((d[pick] == want)[:, None], reps[pick], -reps[pick]).tolist()))


def _x0_2l(x0: Vec) -> tuple[IntMatrix, Vec]:
    """(H, c): the Hermite normal form H of <x0, 2L> and x0's coordinates in
    it, c H = x0, written down for x0 outside 2L.  With j the first odd
    coordinate of x0, H's rows are 2 e_i for i != j and e_j plus the odd
    entries of x0 past j, so c_i = x0_i / 2 before j, c_j = x0_j and
    c_i = (x0_i - x0_j (x0_i mod 2)) / 2 past j."""
    odd = [v % 2 for v in x0]
    j = odd.index(1)
    rows = [[2 * (i == k) for i in range(len(x0))] for k in range(len(x0))]
    rows[j] = [0] * j + [1] + odd[j + 1:]
    coords = [v // 2 for v in x0[:j]] + [x0[j]] + [(v - x0[j] * o) // 2 for v, o in zip(x0[j + 1:], odd[j + 1:])]
    return IntMatrix(rows), tuple(coords)


def relative_lattice(lat: GramLattice, x0: Sequence[int]) -> EmbeddedSublattice:
    """The (n-1)-dimensional lattice whose minimal vectors are the family.

    For N(x0) = m' < 2m, the sublattice <x0, 2L> meets the hyperplane
    orthogonal to x0 in a lattice of dimension n - 1 and minimum
    m'' = 4m - m', with minimal vectors exactly the class shell at m''.
    All three facts are verified; the embedding into L is returned.
    """
    x0 = lat._check(x0)
    m = minimum(lat)
    mp = lat.norm(x0)
    if mp >= 2 * m:
        raise BadParameter(f"N(x0) = {mp} must be below 2m = {2 * m}")
    msec = 4 * m - mp
    targets = _shell_rows(lat, msec, x0)
    if not len(targets):
        raise EmptyClass(f"class of x0 has no vectors of norm {msec}")
    basis, coords = _x0_2l(x0)
    l0 = EmbeddedSublattice(lat, basis)
    rel = l0.restrict(l0.induced.orthogonal_section(coords))
    n = lat.dim
    if rel.dim != n - 1:
        raise VerificationError(f"section has dimension {rel.dim}, not {n - 1}")
    found = vectors_upto(rel.induced, msec)
    if not found or found[0][0] != msec:
        raise VerificationError("relative lattice minimum is not 4m - m'")
    back = PairSet(lat, imatmul_array([c for _, c in found], rel.basis_rows.rows))
    if back != PairSet(lat, targets):
        raise VerificationError("minimal vectors differ from the class shell")
    return rel


def sqrt2_even_check(lat: GramLattice) -> GramLattice:
    """Half-rescale the even part of a minimal-vector-generated lattice.

    When the lattice is spanned by its minimal vectors, every inner
    product on the even part is even, so dividing the form by two keeps
    it integral; the result is certified even and returned.
    """
    if not lat.is_integral():
        raise NotIntegral("needs an integral lattice")
    h, _ = hnf(IntMatrix(_shell_rows(lat, minimum(lat)).tolist()))
    rows = [r for r in h.rows if any(r)]
    if len(rows) < lat.dim:
        raise NotGenerated("minimal vectors do not span")
    index = math.prod(rows[i][i] for i in range(lat.dim))  # the HNF pivots
    if index != 1:
        raise NotGenerated(f"minimal vectors span a sublattice of index {index}")
    half = lat.even_part().induced.rescale(Fraction(1, 2))
    if half.integrality() != "even":
        raise VerificationError("half-rescaled even part is not even integral")
    return half


def check_scalar_products_after_projection(lat: GramLattice, v: Sequence[int]) -> dict:
    """Products within the top slice around a norm 2m - 2 projection axis.

    Vectors of the slice v.x = m - 1 project onto minimal vectors of the
    image lattice, and for any two of them with p(x) != +-p(y) the
    product satisfies (m-3)/4 <= x.y <= (3m-1)/4; on an integral lattice
    with m = 2 that means x.y in {0, 1}, with m = 4 x.y in {1, 2}.  The
    check applies only when every minimal vector of the image lifts to a
    minimal vector; the report records applicability, the products seen,
    and the slice size.
    """
    v = lat._check(v)
    m = minimum(lat)
    if lat.norm(v) != 2 * m - 2:
        raise WrongNormX0(f"N(v) = {lat.norm(v)}, need 2m - 2 = {2 * m - 2}")
    proj = lat.project_along(v)
    reps, mp = _shell_rows(lat, m), minimum(proj.lattice)
    # N(p(x)) = m - (x.v)^2 / N(v), so only the rows with (x G_num v)^2 = t
    # can project onto minimal vectors of the image
    t = (m - mp) * lat.norm(v) * lat.gram.den**2
    r = math.isqrt(int(t)) if t >= 0 and t.denominator == 1 else -1
    near = reps[np.abs(_dots(lat, reps, v)) == r] if r * r == t else reps[:0]
    images, _ = _canonical(imatmul_array(near, proj._tinv.rows)[:, 1:])  # proj.coords
    # the image's minimal pairs are all images iff adding them adds no row
    wanted = _shell_rows(proj.lattice, mp)
    covered = len(_canonical(np.concatenate([images, wanted]))[0]) == len(images)
    lo, hi = Fraction(m - 3, 4), Fraction(3 * m - 1, 4)
    report: dict = {"applicable": covered, "m": m, "bounds": (lo, hi)}
    if not covered:
        report["reason"] = "image minimum not attained on projected minimal vectors"
        return report
    slice_ = _s0_slice(lat, v, m)
    s = int_array(slice_).reshape(len(slice_), lat.dim)
    den = lat.gram.den
    i, j = np.triu_indices(len(s), 1)
    prods = gram_array(s, lat.gram.num.rows)[i, j]
    # x.v = y.v = m - 1, N(x) = N(y) = m and N(v) = 2m - 2 give
    # N(x + y - v) = 2 + 2 x.y, so the antipodal partners, x + y = v, are
    # the pairs with x.y = -1
    prods = prods[prods != -den]
    values, where = np.unique(prods, return_inverse=True)
    values = [Fraction(int(d), den) for d in values]
    bad = np.array([not lo <= d <= hi for d in values], dtype=bool)[where]
    if bad.any():  # the first pair out of range, in row order
        d = values[where[bad.argmax()]]
        raise VerificationError(f"slice product {d} outside [{lo}, {hi}]")
    report.update(ok=True, pairs_checked=len(prods), slice_size=len(slice_),
                  products=values)
    return report
