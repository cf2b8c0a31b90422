"""Tests for Gram-matrix lattices and their derived objects."""

import random
from fractions import Fraction as QQ
from itertools import product

import numpy as np
import pytest

from eqlat import mod2
from eqlat.constructions import reconstruct_odd, root_lattice, standard_x0
from eqlat.errors import (
    BadParameter,
    DimensionMismatch,
    NotInLattice,
    NotIntegral,
    NotOdd,
    NotPositiveDefinite,
    NotPrimitive,
    ZeroVector,
)
from eqlat.exact import IntMatrix
from eqlat.lattice import GramLattice, dot
from eqlat.shortvec import PairSet, coset_minimum, coset_shell, shell

A2 = GramLattice([[2, 1], [1, 2]], name="A2")
Z2 = GramLattice([[1, 0], [0, 1]], name="Z2")
Z3 = GramLattice(IntMatrix.identity(3), name="Z3")


def rand_pd_lattice(rng, n, spread=4):
    b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    g = [[sum(a * c for a, c in zip(r1, r2)) + (1 + spread) * (i == j)
          for j, r2 in enumerate(b)] for i, r1 in enumerate(b)]
    return GramLattice(g)


def test_basic_invariants():
    assert A2.dim == 2
    assert A2.det == 3
    assert A2.norm((1, 0)) == 2
    assert A2.inner((1, 0), (0, 1)) == 1
    assert A2.norm((1, -1)) == 2
    assert A2.norm((1, 1)) == 6
    assert A2.integrality() == "even"
    assert Z2.integrality() == "odd"


def test_non_integral_coordinates_are_rejected():
    # int() would truncate: A2.norm((1.5, 0)) once came out as N((1, 0)) = 2
    for bad in ((1.5, 0), (QQ(1, 2), 1), (0, np.float64(0.25))):
        with pytest.raises(NotInLattice):
            A2.norm(bad)
        with pytest.raises(NotInLattice):
            A2.inner((1, 0), bad)
    for same in ((2.0, -1), (QQ(4, 2), -1), (np.int64(2), np.float64(-1)), np.array([2, -1])):
        assert A2.norm(same) == A2.norm((2, -1)) == 6
    assert Z2.norm((True, False)) == 1


def test_a_value_without_coordinates_is_a_dimension_mismatch():
    for bad in (5, None, (1, 0, 0)):
        with pytest.raises(DimensionMismatch):
            Z2.norm(bad)
    with pytest.raises(DimensionMismatch):
        dot((1, 2), (1, 2, 3))  # zip() alone gave 5


def test_a_value_that_is_no_collection_raises_a_typed_error():
    """A scalar where rows or vectors belong raised a bare TypeError from
    the iteration: the integer readers raise NotIntegral, the lattice's
    collections of vectors DimensionMismatch, as _check does for a vector
    with no length."""
    for call in (lambda v: IntMatrix(v), lambda v: mod2.split_congruent_pair(v, (1, 2)),
                 lambda v: mod2.split_congruent_pair((1, 2), v)):
        for bad in (5, None):
            with pytest.raises(NotIntegral):
                call(bad)
    for call in (lambda v: PairSet(Z2, v), Z2.sublattice):
        for bad in (5, None):
            with pytest.raises(DimensionMismatch):
                call(bad)
    assert IntMatrix([]).rows == () and PairSet(Z2, []).reps == ()


E8 = root_lattice("E", 8).lattice
X0 = standard_x0("E", 8)  # norm 2m - 2 = 2
SUB = Z2.sublattice([(1, 1), (2, 0)])
PROJ = A2.project_along((1, 0))

# one call per coordinate vector a caller hands to the library: (call of v, a
# valid v); the other arguments are fixed and valid
CALLER_VECTORS = {
    "mod2_class": (lambda v: mod2.mod2_class(E8, v).minimizers, X0),
    "equiangular_direct": (lambda v: mod2.equiangular_direct(E8, v).pairs, X0),
    "equiangular_via_s0": (lambda v: mod2.equiangular_via_s0(E8, v).pairs, X0),
    "relative_lattice": (lambda v: mod2.relative_lattice(E8, v).basis_rows, X0),
    "check_scalar_products_after_projection": (
        lambda v: mod2.check_scalar_products_after_projection(E8, v), X0),
    "check_congruent_pair x": (lambda v: mod2.check_congruent_pair(Z2, v, (1, 2)), (1, 0)),
    "check_congruent_pair y": (lambda v: mod2.check_congruent_pair(Z2, (1, 0), v), (1, 2)),
    "check_scalar_bound x": (lambda v: mod2.check_scalar_bound(Z2, v, (1, 2), (1, -2)), (1, 0)),
    "check_scalar_bound y": (lambda v: mod2.check_scalar_bound(Z2, (1, 0), v, (1, -2)), (1, 2)),
    "check_scalar_bound yp": (lambda v: mod2.check_scalar_bound(Z2, (1, 0), (1, 2), v), (1, -2)),
    "split_congruent_pair x": (lambda v: mod2.split_congruent_pair(v, (1, 2)), (1, 0)),
    "split_congruent_pair y": (lambda v: mod2.split_congruent_pair((1, 0), v), (1, 2)),
    "reconstruct_odd": (lambda v: reconstruct_odd(A2, v), (1, 0)),
    "embed": (lambda v: SUB.embed(v), (1, 1)),
    "coords_of": (lambda v: SUB.coords_of(v), (3, 1)),
    "contains": (lambda v: SUB.contains(v), (3, 1)),
    "PairSet": (lambda v: PairSet(Z2, [v, (0, 1)]), (1, 0)),
    "PairSet.contains": (lambda v: PairSet(Z2, shell(Z2, 1)).contains(v), (1, 0)),
    "Projection.coords": (lambda v: PROJ.coords(v), (1, 2)),
    "coset_shell": (lambda v: coset_shell(Z2, v, 1), (1, 0)),
    "coset_minimum": (lambda v: coset_minimum(Z2, v), (1, 0)),
}


@pytest.mark.parametrize("name", sorted(CALLER_VECTORS))
def test_caller_vectors_are_read_by_check(name):
    # int() alone truncated 1.5 to 1: equiangular_direct(E8, x0) with a 1.5
    # in x0 once returned the 28 lines of the truncated x0
    call, v = CALLER_VECTORS[name]
    want = call(v)
    err = NotIntegral if name.startswith("split") else NotInLattice  # split takes no lattice
    for bad in (1.5, QQ(3, 2), None, float("inf"), "1"):
        with pytest.raises(err):
            call((bad,) + tuple(v[1:]))
    for same in (lambda c: QQ(2 * c, 2), np.int64, float):
        assert call(tuple(map(same, v))) == want


def test_rejects_indefinite_gram():
    with pytest.raises(NotPositiveDefinite):
        GramLattice([[1, 2], [2, 1]])


def test_equality_ignores_name():
    assert A2 == GramLattice([[2, 1], [1, 2]], name="other")
    assert hash(A2) == hash(GramLattice([[2, 1], [1, 2]]))
    assert A2 != Z2


def test_dual():
    d = A2.dual()
    assert d.det == QQ(1, 3)
    assert d.integrality() == "non-integral"
    assert d.gram.to_fractions() == [[QQ(2, 3), QQ(-1, 3)], [QQ(-1, 3), QQ(2, 3)]]
    assert d.dual() == A2


def test_rescale():
    doubled = A2.rescale(2)
    assert doubled.gram.to_fractions()[0][0] == 4
    assert doubled.det == 4 * A2.det
    assert doubled.rescale(QQ(1, 2)) == A2


def test_sublattice_index_two():
    sub = Z2.sublattice([(2, 0), (0, 2), (1, 1)])
    assert sub.dim == 2
    assert sub.basis_rows.to_lists() == [[1, 1], [0, 2]]
    assert sub.induced.det == 4
    assert sub.contains((1, 1))
    assert sub.contains((2, 0))
    assert not sub.contains((1, 0))


def test_coords_roundtrip():
    sub = Z2.sublattice([(2, 0), (0, 2), (1, 1)])
    for x in [(1, 1), (2, 0), (3, 1), (-1, 3)]:
        c = sub.coords_of(x)
        assert sub.embed(c) == x
    with pytest.raises(NotInLattice):
        sub.coords_of((1, 0))


def test_sublattice_coordinates_must_be_integers():
    # int() alone truncated (2.7, 0) to (2, 0), whose coordinates are (2, -1)
    sub = Z2.sublattice([(1, 1), (2, 0)])
    for x in [(2.7, 0), (1.5, 1), (QQ(3, 2), 1), ("1.5", 0), (None, 0), (float("inf"), 0)]:
        with pytest.raises(NotInLattice):
            sub.coords_of(x)
        with pytest.raises(NotInLattice):
            sub.contains(x)
    assert sub.coords_of((QQ(3), np.int64(1))) == sub.coords_of((3, 1))
    assert sub.contains((QQ(3), np.int64(1)))


def test_orthogonal_section_gives_hexagonal():
    sec = Z3.orthogonal_section((1, 1, 1))
    assert sec.dim == 2
    assert sec.induced == A2


def test_even_part_of_z2():
    sub = Z2.even_part()
    assert sub.induced.integrality() == "even"
    assert sub.induced.det == 4
    # All vectors in the even part have even norm; index is exactly 2.
    inside = [v for v in product(range(-2, 3), repeat=2) if sub.contains(v)]
    assert all(Z2.norm(v) % 2 == 0 for v in inside)
    assert len(inside) == 13  # half of the 25 box points, plus 0 rounding


def test_even_part_rejects_even_lattice():
    with pytest.raises(NotOdd):
        A2.even_part()


def test_projection_hexagonal():
    proj = A2.project_along((1, 0))
    assert proj.lattice.dim == 1
    assert proj.lattice.gram.to_fractions() == [[QQ(3, 2)]]
    assert proj.lattice.det * A2.norm((1, 0)) == A2.det
    assert proj.coords((0, 1)) == (1,)
    assert proj.coords((1, 0)) == (0,)
    assert proj.coords((QQ(2), np.int64(1))) == (1,)
    with pytest.raises(NotInLattice):  # int() alone read (0.5, 1) as (0, 1)
        proj.coords((0.5, 1))


def test_projection_rejects_bad_vectors():
    with pytest.raises(ZeroVector):
        A2.project_along((0, 0))
    with pytest.raises(NotPrimitive):
        A2.project_along((2, 0))


def test_projection_norm_identity():
    # N(p(x)) == N(x) - (x.v)^2 / N(v) for every x, exactly.
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 5)
        lat = rand_pd_lattice(rng, n)
        v = [0] * n
        v[rng.randrange(n)] = 1  # unit coordinate vectors are primitive
        v[rng.randrange(n)] = 1
        import math

        if math.gcd(*v) != 1:
            continue
        proj = lat.project_along(v)
        assert proj.lattice.det * lat.norm(v) == lat.det
        for _ in range(10):
            x = [rng.randint(-4, 4) for _ in range(n)]
            expect = lat.norm(x) - lat.inner(x, v) ** 2 / lat.norm(v)
            assert proj.lattice.norm(proj.coords(x)) == expect


def test_section_inside_projection():
    # Vectors already orthogonal to v project isometrically.
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randint(2, 4)
        lat = rand_pd_lattice(rng, n)
        v = tuple(int(i == 0) for i in range(n))
        sec = lat.orthogonal_section(v)
        proj = lat.project_along(v)
        for row in sec.basis_rows.rows:
            assert proj.lattice.norm(proj.coords(row)) == lat.norm(row)


def test_restrict_composition():
    sub = Z2.sublattice([(2, 0), (0, 2), (1, 1)])
    inner = sub.induced.sublattice([(2, 0), (0, 2)])
    flat = sub.restrict(inner)
    assert flat.ambient is Z2
    assert flat.induced.det == inner.induced.det
    for c in [(1, 0), (0, 1), (1, 1)]:
        assert flat.embed(c) == sub.embed(inner.embed(c))


def test_restrict_rejects_a_foreign_sublattice():
    # the rows were multiplied regardless: a rank-1 sublattice of Z2 came back
    s = Z2.sublattice([(1, 1), (1, -1)])
    with pytest.raises(BadParameter):
        s.restrict(A2.orthogonal_section((1, 2)))
