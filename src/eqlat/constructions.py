"""Named lattice constructions and search utilities.

Root lattices A_n, D_n and E_6/E_7/E_8 are built in fixed integer bases,
together with the standard base vectors the congruence-class line builders
start from, the projection family of odd minimum 3, the extended binary
Golay code and the Leech lattice, reconstruction of an odd lattice from its
halved even part, a scan over the minimum-3 classification candidates, and
a greedy section search for descending dimension chains.

Coordinate conventions.  A_n lives in Z^{n+1} with basis b_i = eps_0 - eps_i
(Gram I + J); D_n lives in Z^n with b_1 = eps_1 + eps_2 and b_i =
eps_{i-1} - eps_i for i >= 2; E_8 is D_8 glued with e = (1/2, ..., 1/2),
handled in doubled coordinates so every row stays integral, and E_7, E_6
are the sections of E_8 orthogonal to eps_7 - eps_8 and then to
2 eps_6 - eps_7 - eps_8 (the latter spans the same hyperplane of the
section as eps_6 - eps_7 but lies in the lattice, which is what
orthogonal_section needs).  Builders return a NamedLattice whose marks
record enough of the recipe to reproduce and audit the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from types import MappingProxyType

from .errors import (
    BadParameter,
    NotEven,
    VerificationError,
    VNotValid,
)
from .exact import IntMatrix, RatMatrix, _integer, hnf, rank_det, row_rank, solve_left
from .fastops import gram_product, imatmul
from .lattice import GramLattice
from .mod2 import equiangular_direct
from .shortvec import PairSet, _shell_rows, minimum, shell_count, vectors_upto

Vec = tuple[int, ...]

__all__ = [
    "NamedLattice",
    "root_lattice",
    "standard_x0",
    "root_equiangular_table",
    "dn_projection_gram",
    "golay_code",
    "leech",
    "integral_dual",
    "reconstruct_odd",
    "min3_classification_scan",
    "all_ones_exception_gram",
    "section_search",
]


@dataclass(frozen=True, slots=True, eq=False)
class NamedLattice:
    """A GramLattice together with the recipe that produced it.

    family and params identify the construction: rebuilding with the same
    params gives an equal lattice.  note is a one-line basis description,
    and marks carries auxiliary exact data (distinguished vectors, ambient
    coordinates, measured counts) as a read-only mapping.
    """

    lattice: GramLattice
    family: str
    params: tuple
    note: str
    marks: MappingProxyType = None

    def __post_init__(self):
        object.__setattr__(self, "family", str(self.family))
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "note", str(self.note))
        object.__setattr__(self, "marks", MappingProxyType(dict(self.marks or {})))

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def __repr__(self):
        ps = ",".join(str(p) for p in self.params)
        return f"NamedLattice({self.family}({ps}), det={self.lattice.det})"


def _base(lat) -> GramLattice:
    return lat.lattice if isinstance(lat, NamedLattice) else lat


# ---------------------------------------------------------------------------
# Root lattices


def _rows_lattice(rows: list[list[int]], den: int, name: str) -> GramLattice:
    return GramLattice(RatMatrix(gram_product(rows), den * den), name=name)


def _check_root(lat: GramLattice, det) -> None:
    if lat.det != det:
        raise VerificationError(f"{lat.name}: determinant {lat.det} != {det}")
    if lat.integrality() != "even":
        raise VerificationError(f"{lat.name}: not an even lattice")


def _e_family(n: int) -> NamedLattice:
    # Doubled coordinates: rows are 2 b_i for the D_8 basis plus 2e = (1^8).
    rows = [[2, 2, 0, 0, 0, 0, 0, 0]]
    for i in range(1, 8):
        r = [0] * 8
        r[i - 1], r[i] = 2, -2
        rows.append(r)
    rows.append([1] * 8)
    h, _ = hnf(IntMatrix(rows))
    eps = IntMatrix(h.rows[:8])
    lat = GramLattice(RatMatrix(gram_product(eps.rows), 4), name="E8")
    _check_root(lat, 1)
    note = "D_8 with glue (1/2,...,1/2); rows are doubled coordinates"
    if n == 8:
        marks = {"eps_rows": tuple(map(tuple, eps.rows)), "eps_den": 2}
        return NamedLattice(lat, "E", (8,), note, marks)

    def _cut(amb: GramLattice, eps_amb: IntMatrix, target: list[int],
             name: str, det: int, what: str) -> tuple[GramLattice, IntMatrix]:
        c = solve_left(eps_amb, target)
        if c is None:
            raise VerificationError(f"{what} is not a lattice vector")
        sec = amb.orthogonal_section(c)
        eps_sec = sec.basis_rows @ eps_amb
        out = sec.induced.with_name(name)
        _check_root(out, det)
        return out, eps_sec

    lat7, eps7 = _cut(lat, eps, [0, 0, 0, 0, 0, 0, 2, -2], "E7", 2,
                      "eps_7 - eps_8")
    if n == 7:
        marks = {"eps_rows": tuple(map(tuple, eps7.rows)), "eps_den": 2}
        return NamedLattice(lat7, "E", (7,),
                            note + "; section orthogonal to eps_7 - eps_8",
                            marks)
    lat6, eps6 = _cut(lat7, eps7, [0, 0, 0, 0, 0, 4, -2, -2], "E6", 3,
                      "2 eps_6 - eps_7 - eps_8")
    marks = {"eps_rows": tuple(map(tuple, eps6.rows)), "eps_den": 2}
    return NamedLattice(
        lat6, "E", (6,),
        note + "; sections orthogonal to eps_7 - eps_8, 2 eps_6 - eps_7 - eps_8",
        marks)


def root_lattice(family: str, n: int) -> NamedLattice:
    """The root lattice A_n (n >= 1), D_n (n >= 4) or E_n (n in 6, 7, 8).

    The Gram matrix is taken in the fixed basis documented in the module
    docstring; determinant (n+1, 4, and 3/2/1) and evenness are verified on
    every call.  marks["eps_rows"] holds the basis in ambient coordinates,
    scaled by marks["eps_den"].
    """
    fam = str(family).upper()
    n = _integer(n)  # int() alone truncates 4.9 to 4
    if fam == "A":
        if n < 1:
            raise BadParameter(f"A_n needs n >= 1, got {n}")
        rows = []
        for i in range(1, n + 1):
            r = [0] * (n + 1)
            r[0], r[i] = 1, -1
            rows.append(r)
        lat = _rows_lattice(rows, 1, f"A{n}")
        _check_root(lat, n + 1)
        return NamedLattice(lat, "A", (n,), "basis b_i = eps_0 - eps_i",
                            {"eps_rows": tuple(map(tuple, rows)),
                             "eps_den": 1})
    if fam == "D":
        if n < 4:
            raise BadParameter(f"D_n needs n >= 4, got {n}")
        rows = [[1, 1] + [0] * (n - 2)]
        for i in range(2, n + 1):
            r = [0] * n
            r[i - 2], r[i - 1] = 1, -1
            rows.append(r)
        lat = _rows_lattice(rows, 1, f"D{n}")
        _check_root(lat, 4)
        return NamedLattice(
            lat, "D", (n,),
            "basis b_1 = eps_1 + eps_2, b_i = eps_{i-1} - eps_i",
            {"eps_rows": tuple(map(tuple, rows)), "eps_den": 1})
    if fam == "E":
        if n not in (6, 7, 8):
            raise BadParameter(f"E_n needs n in 6, 7, 8, got {n}")
        return _e_family(n)
    raise BadParameter(f"unknown family {family!r}")


def standard_x0(family: str, n: int) -> Vec:
    """The distinguished norm-2 vector each root family starts from.

    A_n uses eps_0 - eps_1 (the first basis vector), D_n uses eps_1 - eps_2
    (the second), E_n uses the glue vector e, all expressed in the basis of
    root_lattice.
    """
    nl = root_lattice(family, n)
    if nl.family == "A":
        x0 = (1,) + (0,) * (nl.lattice.dim - 1)
    elif nl.family == "D":
        x0 = (0, 1) + (0,) * (nl.lattice.dim - 2)
    else:
        x0 = _eps_coords(nl, [1] * 8)  # doubled coordinates of e
    if nl.lattice.norm(x0) != 2:
        raise VerificationError(f"{nl.lattice.name}: x0 norm != 2")
    return x0


def root_equiangular_table(n_max: int) -> list[tuple[str, int, int, int]]:
    """Line counts of the congruence construction over the root lattices.

    Runs equiangular_direct with standard_x0 on A_n and D_n for
    4 <= n <= n_max and on E_6, E_7, E_8, and returns rows (family, n, t,
    rank).  The classical values (t = r for A, t = 2r - 2 for D, t = 10,
    16, 28 for E_6, E_7, E_8) are asserted, not just reported.
    """
    n_max = _integer(n_max)
    if n_max < 4:
        raise BadParameter(f"table starts at n = 4, got n_max = {n_max}")
    rows = []
    families = [("A", range(4, n_max + 1)), ("D", range(4, n_max + 1)),
                ("E", [k for k in (6, 7, 8) if k <= n_max])]
    for fam, ns in families:
        for n in ns:
            nl = root_lattice(fam, n)
            es = equiangular_direct(nl.lattice, standard_x0(fam, n))
            t, r = len(es.pairs), es.rank
            if fam == "A":
                ok = t == r
            elif fam == "D":
                ok = t == 2 * r - 2
            else:
                ok = t == {6: 10, 7: 16, 8: 28}[n]
            if not ok:
                raise VerificationError(f"{fam}{n}: unexpected t = {t}, rank = {r}")
            rows.append((fam, n, t, r))
    return rows


# ---------------------------------------------------------------------------
# The projection family of odd minimum 3


def dn_projection_gram(n: int) -> NamedLattice:
    """The minimum-3 lattice obtained from D_{n+1} by projecting along x0.

    The Gram matrix is written directly (diagonal 3, off-diagonal 1, except
    the (1,2) entry is -1) and then, for n >= 3, certified against the
    actual construction: project D_{n+1} along eps_1 - eps_2, take the
    images of eps_1 + eps_3, eps_1 - eps_3, eps_1 - eps_4, ...,
    eps_1 - eps_{n+1} as a basis, and double the form.  Minimum 3 is always
    verified, and the pair count 2(n-1) for n >= 3.
    """
    n = _integer(n)
    if n < 2:
        raise BadParameter(f"needs n >= 2, got {n}")
    rows = [[3 if i == j else (-1 if i + j == 1 else 1) for j in range(n)]
            for i in range(n)]
    lat = GramLattice(IntMatrix(rows), name=f"P{n}")
    if n >= 3:
        _check_projection_gram(lat, n)
    if minimum(lat) != 3:
        raise VerificationError(f"P{n}: minimum is not 3")
    if n >= 3 and shell_count(lat, 3) != 2 * (n - 1):
        raise VerificationError(f"P{n}: pair count != {2 * (n - 1)}")
    note = "doubled projection of D_{n+1} along eps_1 - eps_2"
    return NamedLattice(lat, "P", (n,), note,
                        {"source": f"D{n + 1}", "projected_along": "eps_1 - eps_2"})


def _check_projection_gram(lat: GramLattice, n: int) -> None:
    src = root_lattice("D", n + 1)
    proj = _base(src).project_along(standard_x0("D", n + 1))
    targets = []
    for j in range(n):
        t = [0] * (n + 1)
        t[0] = 1
        if j == 0:
            t[2] = 1        # eps_1 + eps_3
        elif j == 1:
            t[2] = -1       # eps_1 - eps_3
        else:
            t[j + 1] = -1   # eps_1 - eps_{j+2}, zero-based position j + 1
        targets.append(t)
    img = [proj.coords(_eps_coords(src, t)) for t in targets]
    b = IntMatrix(img)
    r, d = rank_det(b)
    if r != n or d not in (1, -1):
        raise VerificationError("projected images do not form a basis")
    g = proj.lattice.gram
    num = gram_product(img, g.num.rows)
    for i in range(n):
        for j in range(n):
            if 2 * num[i][j] != g.den * lat.gram.num[i, j]:
                raise VerificationError("doubled projection disagrees with the Gram")


# ---------------------------------------------------------------------------
# Golay code and the Leech lattice

# x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1, ascending bits.
_GOLAY_POLY = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)


def _gf2_rank(rows: list[list[int]]) -> int:
    rank, width = 0, len(rows[0])
    work = [int("".join(str(b & 1) for b in r), 2) for r in rows]
    for col in range(width - 1, -1, -1):
        piv = next((i for i in range(rank, len(work)) if work[i] >> col & 1),
                   None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] >> col & 1:
                work[i] ^= work[rank]
        rank += 1
    return rank


def golay_code() -> IntMatrix:
    """Generator matrix (12 x 24, entries 0/1) of the extended binary Golay code.

    Rows are cyclic shifts of the length-23 generator polynomial x^11 +
    x^10 + x^6 + x^5 + x^4 + x^2 + 1, each padded with an overall parity
    bit.  Self-orthogonality and rank 12, which together make the code
    self-dual, are verified on every call; the weight distribution is left
    to the test suite.
    """
    rows = []
    for i in range(12):
        word = [0] * 23
        for j, c in enumerate(_GOLAY_POLY):
            word[(i + j) % 23] ^= c
        word.append(sum(word) % 2)
        rows.append(word)
    if any(v % 2 for row in gram_product(rows) for v in row):
        raise VerificationError("generator is not self-orthogonal")
    if _gf2_rank(rows) != 12:
        raise VerificationError("generator rank is below 12")
    return IntMatrix(rows)


def leech() -> NamedLattice:
    """The Leech lattice, in coordinates scaled by sqrt(8).

    Spanned by 8 eps_1, the 4 eps_1 + 4 eps_i, the doubled Golay words and
    (-3, 1, ..., 1); the Gram matrix of the Hermite-reduced basis, divided
    by 8, is verified integral, even and of determinant 1 on every call.
    Minimum 4 and the shell counts are left to the (slower) enumeration
    tests.  marks["x0"] holds the coordinates of (5, 1, ..., 1)/sqrt(8), a
    vector of norm 6; marks["sqrt8_rows"] the basis rows.
    """
    code = golay_code()
    rows = [[8] + [0] * 23]
    for i in range(1, 24):
        r = [0] * 24
        r[0], r[i] = 4, 4
        rows.append(r)
    rows.extend([2 * c for c in word] for word in code.rows)
    rows.append([-3] + [1] * 23)
    h, _ = hnf(IntMatrix(rows))
    basis = IntMatrix(h.rows[:24])
    gram = RatMatrix(gram_product(basis.rows), 8)
    if gram.den != 1:
        raise VerificationError("Gram matrix is not integral")
    lat = GramLattice(gram, name="Leech")
    if lat.det != 1 or lat.integrality() != "even":
        raise VerificationError("not an even unimodular lattice")
    x0 = solve_left(basis, [5] + [1] * 23)
    if x0 is None:
        raise VerificationError("norm-6 marker fell outside the lattice")
    if lat.norm(x0) != 6:
        raise VerificationError("marker vector does not have norm 6")
    return NamedLattice(
        lat, "Leech", (), "Golay-code construction, coordinates times sqrt(8)",
        {"x0": x0, "sqrt8_rows": tuple(map(tuple, basis.rows))})


# ---------------------------------------------------------------------------
# Duals and odd reconstruction


def integral_dual(lat) -> GramLattice:
    """The dual lattice rescaled by the least c with c * G^(-1) integral.

    c is the exponent of the discriminant group: n+1 for A_n, 2 for E_7,
    3 for E_6.  The result is an integral lattice similar to the dual.
    """
    base = _base(lat)
    inv = base.gram.inverse()
    name = f"{base.name or 'L'}*x{inv.den}"
    return GramLattice(inv.num, name=name)


def reconstruct_odd(lat, v: Sequence[int]) -> GramLattice:
    """Adjoin v/2 to an even lattice and rescale by 2.

    v must lie in the lattice with v/2 outside it, and N(v) = 2m with m
    odd, so the result is integral with vectors of odd norm.  The even part
    of the result, half rescaled, is checked to reproduce the input in its
    own coordinates; when the input is the halved even part of a lattice of
    odd minimum m and v maps to twice a minimal vector, this inverts that
    halving.
    """
    base = _base(lat)
    if base.integrality() != "even":
        raise NotEven("reconstruction starts from an even lattice")
    v = base._check(v)
    nv = base.norm(v)
    if all(c % 2 == 0 for c in v):
        raise VNotValid("v/2 already lies in the lattice")
    m = int(nv) // 2
    if m % 2 == 0:
        raise VNotValid(f"N(v) = {nv} gives even m = {m}; need m odd")
    n = base.dim
    rows = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    rows.append(list(v))
    h, _ = hnf(IntMatrix(rows))
    dbl = IntMatrix(h.rows[:n])  # doubled coordinates of a basis of <L, v/2>
    out = GramLattice(RatMatrix(gram_product(dbl.rows, base.gram.num.rows),
                                2 * base.gram.den),
                      name=f"odd({base.name or f'dim{n}'})")
    if not out.is_integral():
        raise VerificationError("reconstruction left the integral world")
    ep = out.even_part()
    back = []
    for amb in imatmul(ep.basis_rows.rows, dbl.rows):
        if any(a % 2 for a in amb):
            raise VerificationError("even part escapes the source lattice")
        back.append([a // 2 for a in amb])
    hb, _ = hnf(IntMatrix(back))
    if hb.to_lists() != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise VerificationError("even part does not reproduce the source")
    return out


# ---------------------------------------------------------------------------
# Minimum-3 classification scan


def _congruence_classes(lat: GramLattice):
    """Norm-6 classes mod 2L with no shorter member, as (key, reps) pairs."""
    low, groups = set(), {}
    for nrm, vec in vectors_upto(lat, 6):
        key = tuple(c % 2 for c in vec)
        if nrm < 6:
            low.add(key)
        else:
            groups.setdefault(key, []).append(vec)
    out = []
    for key in sorted(groups):
        if key not in low:
            out.append((key, sorted(groups[key])))
    return out, low, groups


def _explicit_rows(lat: GramLattice, label: str, cases) -> list[dict]:
    """One row per (case, v) on lat, all read off one walk of its classes."""
    _, low, groups = _congruence_classes(lat)
    rows = []
    for case, v in cases:
        if lat.norm(v) != 6:
            raise VerificationError(
                f"{label}: candidate vector has norm {lat.norm(v)}")
        key = tuple(c % 2 for c in v)
        reps = sorted(groups.get(key, []))
        s, r = len(reps), row_rank(reps)
        rows.append({"label": label, "case": case, "v": v, "s": s, "rank": r,
                     "admissible": key not in low and bool(reps)})
    return rows


def _scan_rows(lat: GramLattice, label: str) -> list[dict]:
    classes, _, _ = _congruence_classes(lat)
    best_s = best_r = None
    for key, reps in classes:
        s, r = len(reps), row_rank(reps)
        row = {"label": label, "case": "scan", "v": reps[0], "s": s,
               "rank": r, "admissible": True, "classes": len(classes)}
        if best_s is None or s > best_s["s"]:
            best_s = row
        if best_r is None or r > best_r["rank"]:
            best_r = row
    if best_s is None:
        return [{"label": label, "case": "scan", "v": None, "s": 0, "rank": 0,
                 "admissible": False, "classes": 0}]
    if best_r["v"] == best_s["v"]:
        return [best_s]
    return [best_s, dict(best_r, case="scan-rank")]


def _a1_oplus(nl: NamedLattice) -> GramLattice:
    g = _base(nl).gram
    if g.den != 1:
        raise VerificationError("summand is not integral")
    d = g.nrows
    rows = [[2] + [0] * d]
    rows.extend([0] + list(r) for r in g.num.rows)
    return GramLattice(IntMatrix(rows), name=f"A1+{_base(nl).name}")


def _eps_coords(nl: NamedLattice, target: Sequence[int]) -> Vec:
    eps = IntMatrix([list(r) for r in nl.marks["eps_rows"]])
    c = solve_left(eps, target)
    if c is None:
        raise VerificationError("target is not a lattice vector")
    return c


def min3_classification_scan(n: int) -> dict:
    """Tabulate the classification candidates for minimum 3 in dimension n.

    Candidates follow the irreducible/decomposable case split: A_1+A_1+A_1
    (n=3), A_1+A_3 with y = eps_0 + eps_1 - eps_2 - eps_3 (n=4), A_1+D_{n-1}
    with (a) y = 2 eps_1 and (b) y = eps_1 + eps_2 + eps_3 + eps_4 (n>=5),
    and full congruence-class scans of A_5, D_6, E_7 and A_1+E_{n-1} where
    those occur.  Each candidate L with a norm-6 class of v contributes the
    line count s (pairs of minimal vectors of the doubled <L, v/2>) and the
    rank of their span; for n outside 5, 6, 7 the best full-rank count is
    asserted to be 2(n-1).
    """
    n = _integer(n)
    if not 3 <= n <= 9:
        raise BadParameter(f"scan covers 3 <= n <= 9, got {n}")
    rows = []
    if n == 3:
        lat = GramLattice(IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
                          name="A1+A1+A1")
        rows.extend(_explicit_rows(lat, "A1+A1+A1", [("x+y+z", (1, 1, 1))]))
    if n == 4:
        a3 = root_lattice("A", 3)
        y = _eps_coords(a3, (1, 1, -1, -1))
        rows.extend(_explicit_rows(_a1_oplus(a3), "A1+A3", [("y", (1,) + y)]))
    if n >= 5:
        dk = root_lattice("D", n - 1)
        lat = _a1_oplus(dk)
        ya = _eps_coords(dk, (2,) + (0,) * (n - 2))
        yb = _eps_coords(dk, (1, 1, 1, 1) + (0,) * (n - 5))
        rows.extend(_explicit_rows(lat, f"A1+D{n - 1}",
                                   [("a", (1,) + ya), ("b", (1,) + yb)]))
    if n == 5:
        rows.extend(_scan_rows(_base(root_lattice("A", 5)), "A5"))
    if n == 6:
        rows.extend(_scan_rows(_base(root_lattice("D", 6)), "D6"))
    if n == 7:
        rows.extend(_scan_rows(_base(root_lattice("E", 7)), "E7"))
        rows.extend(_scan_rows(_a1_oplus(root_lattice("E", 6)), "A1+E6"))
    if n in (8, 9):
        rows.extend(_scan_rows(_a1_oplus(root_lattice("E", n - 1)),
                               f"A1+E{n - 1}"))
    full = [r["s"] for r in rows if r["admissible"] and r["rank"] == n]
    best = max(full, default=0)
    expected = 2 * (n - 1) if n not in (5, 6, 7) else None
    if expected is not None and best != expected:
        raise VerificationError(
            f"dimension {n}: best full-rank count {best} != {expected}")
    return {"n": n, "rows": rows, "max_full_rank_s": best,
            "expected": expected}


def all_ones_exception_gram(m: int, n: int) -> NamedLattice:
    """The exceptional Gram matrix of the all-plus-one configuration.

    Entries: diagonal m - 1 and off-diagonal (m-1)/2, except the (1,1)
    entry is m + 1 and the (1,2), (2,1) entries are 0.  m must be odd and
    at least 3, n at least 2.  Built verbatim and measured, never trusted:
    marks report the enumerated minimum and pair count (the diagonal sits
    below the nominal minimum m, so expect minimum m - 1).
    """
    m, n = _integer(m), _integer(n)
    if n < 2:
        raise BadParameter(f"needs n >= 2, got {n}")
    if m < 3 or m % 2 == 0:
        raise BadParameter(f"needs odd m >= 3, got {m}")
    h = (m - 1) // 2
    rows = [[m - 1 if i == j else h for j in range(n)] for i in range(n)]
    rows[0][0] = m + 1
    rows[0][1] = rows[1][0] = 0
    lat = GramLattice(IntMatrix(rows), name=f"X({m},{n})")
    mn = minimum(lat)
    s = shell_count(lat, mn)
    return NamedLattice(lat, "X", (m, n), "measured only",
                        {"minimum": mn, "s": s})


# ---------------------------------------------------------------------------
# Section search


def section_search(lat, budget: int, depth: int = 1) -> list[dict]:
    """Greedy descending chain of hyperplane sections.

    At each step the candidates w are the first `budget` canonical shell
    representatives of norm at most the current minimum plus one, in
    (norm, lex) order; every candidate section is measured (its own
    minimum and the pair count there) and the one with the most pairs
    wins, ties to the earlier candidate: the loop measures the candidates
    one after another in that order, so the pick is deterministic.  Entry 0
    records the input itself, and the chain descends `depth` steps or until
    no candidate is left.  Returns [] when budget <= 0.
    """
    cur = _base(lat)
    budget, depth = _integer(budget), _integer(depth)
    if budget <= 0:
        return []
    out = []
    cur_w = cur_sub = None
    for d in range(depth + 1):
        mn = minimum(cur)
        sh = _shell_rows(cur, mn)
        out.append({"depth": d, "dim": cur.dim, "w": cur_w, "sub": cur_sub,
                    "lattice": cur, "minimum": mn, "s": len(sh),
                    "pairs": PairSet(cur, sh)})
        if d == depth or cur.dim <= 1:
            break
        cands = [v for _, v in vectors_upto(cur, mn + 1)][:budget]
        best = None
        for w in cands:
            sec = cur.orthogonal_section(w)
            if sec.dim == 0:
                continue
            ms = minimum(sec.induced)
            cnt = shell_count(sec.induced, ms)
            if best is None or cnt > best[0]:
                best = (cnt, w, sec)
        if best is None:
            break
        _, cur_w, cur_sub = best
        cur = cur_sub.induced
    return out
