"""Congruence-class machinery: pair decomposition, families, relative lattices."""

import random
import time
from fractions import Fraction

import pytest
from oracles import ref_check_scalar_products_after_projection

from eqlat.errors import (
    DegeneratePair,
    DimensionMismatch,
    EmptyClass,
    MixedNorms,
    NotCongruent,
    NotEven,
    NotGenerated,
    NotOdd,
    VerificationError,
    WrongNormX0,
    ZeroVector,
)
from eqlat.constructions import leech, root_lattice
from eqlat.exact import IntMatrix, RatMatrix
from eqlat.lattice import EmbeddedSublattice, GramLattice
from eqlat.mod2 import (
    check_congruent_pair,
    check_scalar_products_after_projection,
    check_scalar_bound,
    default_x0,
    split_congruent_pair,
    equiangular_direct,
    equiangular_via_s0,
    mod2_class,
    relative_lattice,
    sqrt2_even_check,
)
from eqlat import mod2, shortvec
from eqlat.shortvec import least_vector, minimum, shell, vectors_upto

A2 = GramLattice([[2, 1], [1, 2]], name="A2")
Z2 = GramLattice([[1, 0], [0, 1]], name="Z2")

A4 = GramLattice(
    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], name="A4"
)
D4 = GramLattice(
    [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], name="D4"
)
D5 = GramLattice(
    [
        [2, -1, 0, 0, 0],
        [-1, 2, -1, -1, 0],
        [0, -1, 2, 0, 0],
        [0, -1, 0, 2, -1],
        [0, 0, 0, -1, 2],
    ],
    name="D5",
)
E8 = GramLattice(
    [
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ],
    name="E8",
)


def test_split_congruent_pair_examples():
    assert split_congruent_pair((1, 1), (3, 1)) == ((1, 0), (2, 1))
    assert split_congruent_pair((1, 0), (1, 2)) == ((0, 1), (1, 1))


def test_split_congruent_pair_rejects():
    with pytest.raises(DegeneratePair):
        split_congruent_pair((1, 0), (-1, 0))
    with pytest.raises(DegeneratePair):
        split_congruent_pair((1, 2), (1, 2))
    with pytest.raises(NotCongruent):
        split_congruent_pair((1, 0), (0, 1))
    with pytest.raises(ZeroVector):
        split_congruent_pair((0, 0), (2, 0))


def test_congruent_pair_z2():
    r = check_congruent_pair(Z2, (1, 0), (1, 2))
    assert r["sum_ok"] and r["mod4_ok"]
    assert not r["equality_case"]
    assert (r["e"], r["f"]) == ((0, 1), (1, 1))


def test_congruent_pair_exhaustive_a2():
    # every congruent pair with norms <= 10, by brute force over the ball
    signed = []
    for _, v in vectors_upto(A2, 10):
        signed.append(v)
        signed.append(tuple(-c for c in v))
    equalities = 0
    for x in signed:
        for y in signed:
            if y == x or y == tuple(-c for c in x):
                continue
            if any((a - b) % 2 for a, b in zip(x, y)):
                continue
            r = check_congruent_pair(A2, x, y)
            assert A2.norm(x) + A2.norm(y) >= 8
            if r["equality_case"]:
                equalities += 1
                assert r["x_dot_y"] == 0
    assert equalities > 0


def test_congruent_pair_e8_equality():
    x0 = (1, 0, 0, 0, 0, 0, 0, 0)
    fam = equiangular_direct(E8, x0)
    y = fam.pairs.reps[0]
    r = check_congruent_pair(E8, x0, y)
    assert r["equality_case"]
    assert r["x_dot_y"] == 0
    assert E8.norm(r["e"]) == E8.norm(r["f"]) == 2


def test_scalar_bound_e8():
    x0 = default_x0(E8)
    reps = equiangular_direct(E8, x0).pairs.reps
    for yp in reps[1:]:
        assert check_scalar_bound(E8, x0, reps[0], yp)
    with pytest.raises(DegeneratePair):
        check_scalar_bound(E8, x0, reps[0], reps[0])
    with pytest.raises(MixedNorms):
        check_scalar_bound(E8, x0, reps[0], x0)
    bad = tuple(a + b for a, b in zip(reps[1], (1, 0, 0, 0, 0, 0, 0, 0)))
    with pytest.raises(NotCongruent):
        check_scalar_bound(E8, x0, reps[0], bad)


def test_mod2_class_z2():
    c = mod2_class(Z2, (1, 0), with_second=True)
    assert c.first == 1
    assert c.minimizers.reps == ((1, 0),)
    # norms on the class are 1 mod 4, so the next one is 5
    assert c.second == 5
    assert c.second_shell.reps == ((1, -2), (1, 2))


def test_mod2_class_a2():
    c = mod2_class(A2, (1, 0), with_second=True)
    assert c.first == 2
    assert len(c.minimizers) == 1
    assert c.second == 6
    assert c.second_shell.reps == ((1, -2),)
    for v in c.minimizers.reps + c.second_shell.reps:
        assert all((a - b) % 2 == 0 for a, b in zip(v, (1, 0)))


def skewed_basis(lat, rng):
    """lat in the seeded unimodular basis U = L R, L and R unit triangular."""
    n = lat.dim
    low = IntMatrix([[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0
                      for j in range(n)] for i in range(n)])
    up = IntMatrix([[1 if i == j else rng.choice((-1, 0, 1)) if j > i else 0
                     for j in range(n)] for i in range(n)])
    u = low @ up
    return GramLattice(u @ lat.gram.num @ u.transpose())


def test_default_x0_is_least():
    assert default_x0(A2) == shell(A2, 2)[0]
    assert default_x0(E8) == shell(E8, 2)[0]
    rng = random.Random(113)
    for fam, dims in (("A", range(4, 17)), ("D", range(4, 17)), ("E", range(6, 9))):
        for n in dims:
            lat = root_lattice(fam, n).lattice
            # the answer is read in the input basis, so skewed bases matter
            for basis in (lat, skewed_basis(lat, rng)):
                m = minimum(basis)
                assert default_x0(basis) == shell(basis, 2 * m - 2)[0], (fam, n)
    rational = GramLattice(RatMatrix(IntMatrix([[7, 2, 1], [2, 8, -3], [1, -3, 9]]), 3))
    m = minimum(rational)
    assert default_x0(rational) == shell(rational, 2 * m - 2)[0]
    for r in (m, m + Fraction(1, 3), 2 * m, 3 * m):
        sh = shell(rational, r)
        assert least_vector(rational, r) == (sh[0] if sh else None), r
    assert least_vector(GramLattice([]), 2) is None  # dimension 0


def test_default_x0_skewed_leech():
    # Leech in the seed-7 unimodular basis of the benchmark inputs, Gram
    # entries up to 1,636; a walk in this basis once ran for minutes
    lat = skewed_basis(leech().lattice, random.Random(7))
    assert least_vector(lat, 4) == shell(lat, 4)[0]
    assert minimum(lat) == 4
    start = time.perf_counter()
    x0 = default_x0(lat)
    elapsed = time.perf_counter() - start
    assert lat.norm(x0) == 6
    assert elapsed < 10.0


def test_default_x0_leech_without_the_norm_6_shell(walks):
    lat = leech().lattice
    assert minimum(lat) == 4
    walks.clear()
    start = time.perf_counter()
    x0 = default_x0(lat)
    elapsed = time.perf_counter() - start
    assert x0 == (0,) * 11 + (1, -1, -1, 0, -1, -1, -1, 0, 0, 0, -1, -1, 3)
    assert lat.norm(x0) == 6
    # no "shell" walk: the norm-6 shell is never built, one walk per coordinate
    modes = [walk.mode for walk, _ in walks]
    assert set(modes) == {"first"} and len(modes) <= lat.dim
    assert elapsed < 1.0


def test_x0_of_the_wrong_length_raises_before_any_walk(monkeypatch):
    # the length was checked only after minimum(lat) had walked the lattice
    lat = leech().lattice
    for cache in (shortvec._prep, shortvec._minimum, shortvec._coset_shell):
        cache.cache_clear()
    walks = []
    monkeypatch.setattr(shortvec, "_run", lambda walk: walks.append(walk.mode))
    for route in (equiangular_direct, equiangular_via_s0):
        with pytest.raises(DimensionMismatch, match="vector has 2 coordinates, lattice needs 24"):
            route(lat, (1, 0))
    assert walks == []


def test_equiangular_a_series():
    # one pair per extra dimension, all pairwise products +-2
    fam = equiangular_direct(A4)
    assert len(fam) == 3
    assert fam.rank == 3
    assert fam.alpha == Fraction(1, 3)
    assert fam.pairs.norm == 6
    assert not fam.degenerate
    assert fam.reason is None


def test_equiangular_d_series():
    for lat, k in ((D4, 4), (D5, 6)):
        fam = equiangular_direct(lat)
        assert len(fam) == k
        via = equiangular_via_s0(lat, fam.x0)
        assert via.pairs == fam.pairs
        assert via.rank == fam.rank


def test_equiangular_e8():
    fam = equiangular_direct(E8)
    assert len(fam) == 28
    assert fam.rank == 7
    assert fam.alpha == Fraction(1, 3)
    via = equiangular_via_s0(E8, fam.x0)
    assert via.pairs == fam.pairs


def test_s0_slice_matches_a_python_loop():
    """_s0_slice picks and signs rows of the cached shell array; a Python
    loop over shell(), with x0.x from lat.inner, picks the same members in
    shell order."""
    big = leech()
    for lat, x0 in ((E8, default_x0(E8)), (big.lattice, big.marks["x0"])):
        m, n = minimum(lat), lat.dim
        # x0.e_i, integers on these integral lattices, so x0.x is one dot product
        gx0 = [int(lat.inner(x0, [int(i == j) for j in range(n)])) for i in range(n)]
        want = []
        for x in shell(lat, m):
            d = sum(a * b for a, b in zip(x, gx0))
            if d == m - 1:
                want.append(x)
            elif -d == m - 1:
                want.append(tuple(-c for c in x))
        got = mod2._s0_slice(lat, x0, m)
        assert got == want and len(got) > 1
        assert all(type(c) is int for v in got for c in v)


def test_equiangular_odd_minimum_nonempty():
    # odd minimum does not always empty the class: a norm-8 pair survives here
    q = GramLattice([[3, 1], [1, 3]])
    fam = equiangular_direct(q, (-1, 1))
    assert fam.pairs.reps == ((1, 1),)
    assert fam.alpha is None  # one line carries no angle
    assert fam.degenerate
    assert "odd minimum" in fam.reason


def test_equiangular_odd_minimum_empty():
    q = GramLattice([[3, 1], [1, 4]])
    fam = equiangular_direct(q, (0, 1))
    assert len(fam) == 0
    assert fam.rank == 0
    assert fam.degenerate
    assert fam.reason is not None


def test_equiangular_gates():
    with pytest.raises(NotEven):
        equiangular_direct(GramLattice([[2, 1], [1, 3]]))
    with pytest.raises(WrongNormX0):
        equiangular_direct(A2, (1, 1))
    with pytest.raises(ZeroVector):
        equiangular_direct(A2, (0, 0))


def test_relative_lattice_e8():
    rel = relative_lattice(E8, default_x0(E8))
    assert rel.dim == 7
    assert minimum(rel.induced) == 6
    assert len(shell(rel.induced, 6)) == 28


def test_relative_lattice_a4():
    rel = relative_lattice(A4, default_x0(A4))
    assert rel.dim == 3
    assert minimum(rel.induced) == 6
    assert len(shell(rel.induced, 6)) == 3


def test_relative_lattice_walks_its_lattice_once(walks):
    # minimum and shell of the section come from one "le" walk
    for cache in (shortvec._prep, shortvec._minimum, shortvec._coset_shell):
        cache.cache_clear()
    x0 = default_x0(E8)
    shortvec.coset_shell(E8, x0, 6)  # the ambient walks it reuses
    walks.clear()
    rel = relative_lattice(E8, x0)
    assert [walk.mode for walk, _ in walks] == ["le"]
    assert len(shell(rel.induced, 6)) == 28


def test_relative_lattice_rejects_a_sublattice_of_the_section(monkeypatch):
    # the final check (its shell mapped back equals the class shell) is the
    # one that proves every family vector embeds
    restrict = EmbeddedSublattice.restrict

    def index_two(self, inner):
        rows = restrict(self, inner).basis_rows.to_lists()
        rows[0] = [2 * c for c in rows[0]]
        return EmbeddedSublattice(self.ambient, IntMatrix(rows))

    monkeypatch.setattr(EmbeddedSublattice, "restrict", index_two)
    for lat in (A4, E8):
        with pytest.raises(VerificationError):
            relative_lattice(lat, default_x0(lat))


def test_x0_2l_is_the_hermite_form_of_the_generated_sublattice():
    """The closed form of <x0, 2L> is the HNF of 2 e_1, .., 2 e_n and x0, and
    its coordinates of x0 those the solve gives, for random x0 with an odd
    entry, the first odd one anywhere, on Z^n (the basis needs no Gram)."""
    rng = random.Random(163)
    for _ in range(300):
        n = rng.randint(1, 12)
        x0 = [2 * rng.randint(-6, 6) for _ in range(n)]
        j = rng.randrange(n)
        x0[j] += 1
        x0[j + 1:] = [rng.randint(-40, 40) for _ in range(n - j - 1)]
        lat = GramLattice(IntMatrix.identity(n).rows)
        sub = lat.sublattice([[2 * (i == k) for i in range(n)] for k in range(n)] + [x0])
        basis, coords = mod2._x0_2l(tuple(x0))
        assert basis == sub.basis_rows
        assert coords == sub.coords_of(x0)


def test_relative_lattice_in_a_skewed_basis():
    """In a skewed basis x0's first odd coordinate need not be the first; the
    relative lattice of A4, D5 and E8 still has dimension n - 1 and the class
    shell as its minimal vectors, both of which relative_lattice verifies."""
    rng = random.Random(167)
    firsts = set()
    for lat in (A4, D5, E8):
        for _ in range(4):
            skew = skewed_basis(lat, rng)
            x0 = default_x0(skew)
            firsts.add(next(i for i, v in enumerate(x0) if v % 2))
            rel = relative_lattice(skew, x0)
            assert rel.dim == lat.dim - 1
            assert minimum(rel.induced) == 4 * minimum(lat) - skew.norm(x0)
    assert len(firsts) > 1


def test_relative_lattice_empty_class():
    with pytest.raises(EmptyClass):
        relative_lattice(GramLattice([[3, 1], [1, 4]]), (0, 1))


def test_sqrt2_even_check_unit():
    out = sqrt2_even_check(GramLattice([[1]]))
    assert out.gram.num.rows == ((2,),)


def test_sqrt2_even_check_from_e8_section():
    # the half-rescaled relative lattice has odd minimum 3 and passes
    rel = relative_lattice(E8, default_x0(E8))
    half = rel.induced.rescale(Fraction(1, 2))
    assert minimum(half) == 3
    out = sqrt2_even_check(half)
    assert out.integrality() == "even"
    assert out.det == 2


def test_sqrt2_even_check_gates():
    with pytest.raises(NotGenerated):
        sqrt2_even_check(GramLattice([[1, 0], [0, 4]]))
    with pytest.raises(NotOdd):
        sqrt2_even_check(A2)


def test_projected_products_d5():
    rep = check_scalar_products_after_projection(D5, default_x0(D5))
    assert rep["applicable"] and rep["ok"]
    assert rep["products"] == [0, 1]
    assert rep["slice_size"] == 12


def test_projected_products_e8():
    rep = check_scalar_products_after_projection(E8, default_x0(E8))
    assert rep["applicable"] and rep["ok"]
    assert rep["products"] == [0, 1]
    assert rep["pairs_checked"] == 1512


@pytest.mark.parametrize("lat, v", [(D5, default_x0(D5)), (E8, default_x0(E8)),
                                     (GramLattice([[2, 0], [0, 6]]), (1, 0))])
def test_projected_products_match_pairwise_loop(lat, v):
    assert (check_scalar_products_after_projection(lat, v)
            == ref_check_scalar_products_after_projection(lat, v))


def test_projected_products_not_applicable():
    # the short projection comes from a norm-6 vector, not a minimal one
    q = GramLattice([[2, 0], [0, 6]])
    rep = check_scalar_products_after_projection(q, (1, 0))
    assert not rep["applicable"]
    assert "reason" in rep
