"""Tests for LLL reduction and exact shell enumeration."""

import collections
import hashlib
import json
import math
import os
import random
from dataclasses import replace
from fractions import Fraction as QQ
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    grid_short_vectors,
    is_lll_reduced,
    ref_coordinate_bounds,
    ref_lll_reduce,
    ref_search_chunk,
)

from eqlat import exact, shortvec
from eqlat.constructions import leech, root_lattice, standard_x0
from eqlat.errors import (
    BadParameter,
    DimensionMismatch,
    MixedNorms,
    NotInLattice,
    NotPositiveDefinite,
    TooLarge,
    ZeroVector,
)
from eqlat.exact import IntMatrix, RatMatrix, leading_minors, rank_det
from eqlat.fastops import gram_product, imatmul, imatmul_array
from eqlat.lattice import GramLattice
from eqlat.lines import line_family
from eqlat.mod2 import equiangular_via_s0
from eqlat.shortvec import (
    PairSet,
    coset_minimum,
    coset_shell,
    lll_reduce,
    minimum,
    shell,
    shell_count,
    vectors_upto,
)

A2 = GramLattice([[2, 1], [1, 2]], name="A2")
Z2 = GramLattice([[1, 0], [0, 1]], name="Z2")


def rand_gram(rng, n, spread=3):
    b = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    return GramLattice(
        [[sum(x * y for x, y in zip(r1, r2)) + (2 + 2 * spread) * (i == j)
          for j, r2 in enumerate(b)] for i, r1 in enumerate(b)]
    )


# -- LLL ---------------------------------------------------------------------


def test_lll_flattens_skewed_basis():
    g = GramLattice([[1, 1000], [1000, 1000001]])
    red, u = lll_reduce(g)
    assert is_lll_reduced(red)
    assert red.det == g.det
    assert min(red.gram.num[i, i] for i in range(2)) == 1
    assert rank_det(u)[1] in (1, -1)


def test_lll_transform_consistent():
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(1, 5)
        lat = rand_gram(rng, n)
        red, u = lll_reduce(lat)
        assert is_lll_reduced(red)
        assert red.det == lat.det
        expect = u @ lat.gram.num @ u.transpose()
        assert red.gram.num == expect
        assert rank_det(u)[1] in (1, -1)


def lll_corpus():
    """Root lattices and Leech in seeded skewed bases, and a few quirks."""
    from test_mod2 import skewed_basis

    rng = random.Random(137)
    lats = [skewed_basis(root_lattice(fam, n).lattice, rng)
            for _ in range(3)
            for fam, dims in (("A", range(4, 17)), ("D", range(4, 17)),
                              ("E", range(6, 9)))
            for n in dims]
    lech = leech().lattice
    return lats + [
        lech,
        skewed_basis(lech, rng),
        A2.rescale(QQ(1, 2)),  # rational Gram matrix
        GramLattice([]),
        GramLattice([[3]]),
        A2,
        GramLattice([[1, 1000], [1000, 1000001]]),
    ]


def primitive(m):
    """An integer matrix divided by its content, the gcd of its entries."""
    g = math.gcd(*(v for row in m.rows for v in row)) or 1
    return IntMatrix([[v // g for v in row] for row in m.rows])


def test_lll_matches_reference():
    for lat in lll_corpus():
        assert lll_reduce(lat) == ref_lll_reduce(lat), lat
        # the walk data is LLL's final state: the Bareiss data of its Gram
        # divided by its content
        prep, red = shortvec._prep(lat), primitive(lll_reduce(lat)[0].gram.num)
        delta, sub = leading_minors(red)
        assert (prep.delta, prep.sub) == (tuple(delta), tuple(map(tuple, sub))), lat
        assert prep.seed == min((red[i, i] for i in range(lat.dim)), default=0)


def test_lll_transform_ignores_the_content():
    """LLL's tests are homogeneous, so the Gram numerator divided by its
    content gives the same U, on the corpus and on it scaled by 2, 3 and
    2**40; the leading minors scale by g**k."""
    for lat in lll_corpus():
        num = primitive(lat.gram.num)
        u, delta, _ = shortvec._lll(num)
        assert shortvec._prep(lat).u == u, lat
        for g in (2, 3, 2**40):
            scaled = shortvec._lll(IntMatrix([[g * v for v in row] for row in num.rows]))
            assert scaled[0] == u, (lat, g)
            assert scaled[1] == [g**k * d for k, d in enumerate(delta)]


def test_parity_reduction_solves_y_u_mod_2():
    """_parity_reduced(prep, p), solved over GF(2), is a y with y U = p mod
    2, and the parity of the integer solution of y U = p, for random nonzero
    p, on skewed A, D and E bases and on Leech."""
    from test_mod2 import skewed_basis

    rng = random.Random(139)
    lats = [skewed_basis(root_lattice(fam, n).lattice, rng)
            for fam, n in (("A", 9), ("A", 16), ("D", 12), ("D", 16), ("E", 7), ("E", 8))]
    for lat in lats + [leech().lattice]:
        prep = shortvec._prep(lat)
        for _ in range(20):
            p = [rng.randint(0, 1) for _ in range(lat.dim - 1)] + [1]
            rng.shuffle(p)
            y = shortvec._parity_reduced(prep, p)
            assert set(y) <= {0, 1}
            assert [v % 2 for v in imatmul([y], prep.u.rows)[0]] == p
            assert y == tuple(v % 2 for v in exact.solve_left(prep.u, p))


def test_prep_runs_one_elimination(monkeypatch):
    """_prep of a fresh lattice makes one Bareiss pass, inside LLL, and no
    HNF, GramLattice or lll_reduce call."""
    from test_mod2 import skewed_basis

    lat = skewed_basis(root_lattice("D", 9).lattice, random.Random(141))
    calls = []

    def counted(name, f):
        return lambda *a, **k: calls.append(name) or f(*a, **k)

    monkeypatch.setattr(shortvec, "leading_minors", counted("minors", shortvec.leading_minors))
    monkeypatch.setattr(exact, "hnf", counted("hnf", exact.hnf))
    monkeypatch.setattr(shortvec, "lll_reduce", counted("lll", shortvec.lll_reduce))
    monkeypatch.setattr(GramLattice, "__post_init__",
                        counted("lattice", GramLattice.__post_init__))
    prep = shortvec._prep.__wrapped__(lat)
    assert calls == ["minors"]
    assert (prep.n, prep.den) == (9, 1)


# -- minimum and shells -------------------------------------------------------


def test_minimum_examples():
    assert minimum(A2) == 2
    assert minimum(Z2) == 1
    assert minimum(GramLattice([[1, 1000], [1000, 1000001]])) == 1


def test_shell_a2():
    assert shell(A2, 2) == ((0, 1), (1, -1), (1, 0))
    assert shell(A2, 6) == ((1, -2), (1, 1), (2, -1))
    assert shell(A2, 1) == ()
    assert shell(A2, 3) == ()
    assert shell_count(A2, 2) == 3
    assert shell_count(A2, 6) == 3


def test_shell_z2():
    assert shell(Z2, 1) == ((0, 1), (1, 0))
    assert shell(Z2, 2) == ((1, -1), (1, 1))
    assert len(shell(Z2, 25)) == 6  # (5,0),(0,5),(3,4),(4,3),(3,-4),(4,-3)
    assert shell_count(Z2, 25) == 6


def test_d4_kissing():
    d4 = GramLattice([[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]])
    assert minimum(d4) == 2
    assert len(shell(d4, 2)) == 12
    assert shell_count(d4, 2) == 12


def test_vectors_upto():
    got = vectors_upto(A2, 6)
    assert [n for n, _ in got] == [2, 2, 2, 6, 6, 6]
    assert got[0][0] == QQ(2)
    assert shell(A2, 2) == tuple(v for n, v in got if n == 2)


def test_enumeration_matches_grid_oracle():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(2, 4)
        lat = rand_gram(rng, n)
        m = minimum(lat)
        bound = int(m) + rng.randint(0, 6)
        mine = [(int(nm), v) for nm, v in vectors_upto(lat, bound)]
        oracle = grid_short_vectors(lat.gram.num.to_lists(), bound)
        assert mine == oracle
        assert int(m) == oracle[0][0]


def test_minimum_takes_no_hint():
    e8 = root_lattice("E", 8).lattice
    with pytest.raises(TypeError):
        minimum(e8, upper_bound=1)
    assert minimum(e8) == 2


def near_reduced_gram(rng, n, even=False):
    """Nearly equal diagonal, off-diagonal entries up to half of it; with
    even, an even diagonal and content 1, so every norm is even (grain 2).

    LLL leaves most such bases alone, and now and then none of the basis
    vectors is minimal, so the minimum lies below the seed.
    """
    while True:
        big = rng.randint(6, 14)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = big + rng.randint(0, 2)
            g[i][i] += even and g[i][i] % 2
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-big // 2, big // 2)
        if even and math.gcd(*(v for row in g for v in row)) != 1:
            continue
        try:
            return GramLattice(g)
        except NotPositiveDefinite:
            continue


def grid_box_points(gram_rows, bound):
    """Points the grid oracle scans, from the same radii it uses."""
    ginv = np.linalg.inv(np.array(gram_rows, dtype=float))
    return math.prod(2 * int(np.sqrt(bound * ginv[i, i] + 1e-9)) + 1
                     for i in range(len(gram_rows)))


def minimum_against_oracle(lat):
    """Check minimum, shell_count and shell at the minimum of lat, and of lat
    scaled by 3/7 (a rational Gram on the same walk data), against the grid
    oracle.  Returns (grain, whether the LLL seed lies above the minimum),
    or None where the oracle's scan would pass 200,000 points."""
    g = lat.gram.num.to_lists()
    bound = min(g[i][i] for i in range(lat.dim))  # attained
    if grid_box_points(g, bound) > 200_000:
        return None
    oracle = grid_short_vectors(g, bound)
    m = oracle[0][0]
    for scale in (1, QQ(3, 7)):
        scaled = lat.rescale(scale)
        assert minimum(scaled) == m * scale
        assert shell_count(scaled, m * scale) == sum(nm == m for nm, _ in oracle)
        assert shell(scaled, m * scale) == tuple(v for nm, v in oracle if nm == m)
    content = math.gcd(*(v for row in g for v in row))
    grain = math.gcd(*(v // content * (1 + (i != j))
                       for i, row in enumerate(g) for j, v in enumerate(row)))
    prep = shortvec._prep(lat.rescale(QQ(3, 7)))
    assert prep.grain == grain and prep.den == QQ(7, 3 * content)
    red, _ = lll_reduce(lat)
    assert prep.seed * content == min(red.gram.num[i, i] for i in range(lat.dim))
    return grain, prep.seed * content > m


def test_minimum_and_count_match_grid_oracle():
    """The minimum and its count match the grid oracle on integer Grams of
    grain 1 and 2 (an even diagonal, content 1, one draw in four) and on
    both scaled by 3/7, until three grain-1 bases had their LLL seed above
    the minimum, where the walk one grain below the seed finds it and a
    count walk counts it; and on an even basis LLL leaves above its minimum, which random
    draws give too rarely (about one in 700)."""
    shortvec._minimum.cache_clear()
    assert minimum_against_oracle(GramLattice([[14, 6, 6], [6, 14, -3], [6, -3, 14]])) == (2, True)
    rng = random.Random(109)
    seen = collections.Counter()
    while seen[1, True] < 3 or seen[2, False] < 100:
        drawn = sum(seen.values())
        assert drawn < 4000, "too few bases above the minimum in 4000 lattices"
        seen[minimum_against_oracle(near_reduced_gram(rng, rng.randint(2, 6), even=drawn % 4 == 0))] += 1


def made(walks, *fields):
    """The given fields of each walk the walks fixture recorded, in order, as
    a tuple each, or a bare value for one field; "nodes" and "kernel" are
    read from the walk's result."""
    got = [tuple(getattr(result if f in ("nodes", "kernel") else walk, f) for f in fields)
           for walk, result in walks]
    return [v for v, in got] if len(fields) == 1 else got


def test_minimum_and_count_walk_once_each(walks):
    """minimum walks once, an "le" walk one grain below the seed, which keeps
    only the vectors below the seed; shell_count at the minimum is a "count"
    walk of its own, inside the minimum walk's bound, and every shell a
    "shell" walk of its own.  Walks are listed as (mode, limit in walk units)."""
    shortvec._minimum.cache_clear()
    shortvec._coset_shell.cache_clear()
    # E8: seed 2 = grain 2, so no norm lies below the seed and nothing walks
    e8 = root_lattice("E", 8).lattice
    assert (shortvec._prep(e8).seed, shortvec._prep(e8).grain) == (2, 2)
    assert minimum(e8) == 2 and walks == []
    assert shell_count(e8, 2) == 120 and made(walks, "mode", "limit") == [("count", 2)]
    assert len(shell(e8, 2)) == 120 and made(walks, "mode", "limit") == [("count", 2), ("shell", 2)]
    # the S0 slice reads the cached shell; norm 1 lies below the minimum
    assert equiangular_via_s0(e8, (0, 0, 0, 0, 0, 0, 1, -1)).t == 28
    assert shell(e8, 1) == ()
    assert made(walks, "mode", "limit") == [("count", 2), ("shell", 2)]
    # a basis whose least diagonal entry, 11, lies above the minimum 10
    # (grain 1): the walk at 10 finds the minimum's one pair, the count walks again
    lat = GramLattice([[12, 1, 3, -1], [1, 12, -6, 2], [3, -6, 11, -6], [-1, 2, -6, 11]])
    assert (shortvec._prep(lat).seed, shortvec._prep(lat).grain) == (11, 1)
    walks.clear()
    assert minimum(lat) == 10 and made(walks, "mode", "limit") == [("le", 10)]
    assert len(walks[0][1].value) == 1
    assert shell_count(lat, 10) == 1 and made(walks, "mode", "limit") == [("le", 10), ("count", 10)]
    assert shell(lat, 9) == () and made(walks, "mode", "limit") == [("le", 10), ("count", 10)]
    assert len(shell(lat, 10)) == 1 and made(walks, "mode", "limit")[2:] == [("shell", 10)]


def test_shell_count_above_the_seed_walks_once(walks):
    # shell_count makes only its own "count" walk; the counts agree with
    # the shells' walks at every norm
    shortvec._minimum.cache_clear()
    e8 = root_lattice("E", 8).lattice
    assert shell_count(e8, 4) == 1080
    assert made(walks, "mode") == ["count"]
    rng = random.Random(41)
    corpus = [A2, Z2, e8, root_lattice("D", 5).lattice]
    corpus += [rand_gram(rng, n) for n in (2, 3, 4, 5)]
    for lat in corpus:
        shortvec._minimum.cache_clear()
        for r in range(1, 13):
            assert shell_count(lat, r) == len(shell(lat, r))


def test_shell_count_zero_cases():
    assert shell_count(A2, 0) == shell_count(A2, -2) == 0
    assert shell_count(A2, QQ(1, 2)) == 0  # unreachable on an integral lattice
    assert shell_count(A2, 1) == 0  # below the minimum
    assert shell_count(GramLattice([]), 2) == 0


def test_norms_are_read_exactly():
    """Every norm and scale goes through exact._rational: ints, Fractions,
    numpy integers and integral floats are read exactly, a float such as
    0.3, whose value is 5404319552844595 / 2**54, and a string raise
    BadParameter.  On the Gram (3/10) the first five calls once read 0.3 as
    that value and gave (), 0, [], () and None."""
    lat = GramLattice(RatMatrix(IntMatrix([[3]]), 10))
    assert shell(lat, QQ(3, 10)) == ((1,),) and shell_count(lat, QQ(3, 10)) == 1
    calls = (lambda r: shell(lat, r), lambda r: shell_count(lat, r),
             lambda r: vectors_upto(lat, r), lambda r: coset_shell(lat, (1,), r),
             lambda r: shortvec.least_vector(lat, r), lat.rescale)
    for call in calls:
        with pytest.raises(BadParameter, match=r"pass Fraction\(3, 10\)"):
            call(0.3)
        for bad in ("2", None, float("inf"), float("nan"), 1j):
            with pytest.raises(BadParameter, match="not an exact rational"):
                call(bad)
    for same in (QQ(4, 2), np.int64(2), 2.0, np.float32(2)):
        assert shell(Z2, same) == shell(Z2, 2) == ((1, -1), (1, 1))
        assert shell_count(Z2, same) == 2 and vectors_upto(Z2, same) == vectors_upto(Z2, 2)
        assert Z2.rescale(same) == Z2.rescale(2)
    with pytest.raises(BadParameter, match="positive"):
        Z2.rescale(0)


def test_caches_stay_within_their_bound():
    caches = (shortvec._prep, shortvec._minimum, shortvec._coset_shell)
    for k in range(1, shortvec._CACHE_SIZE + 10):
        lat = GramLattice([[k]])
        assert minimum(lat) == k
        assert shell(lat, k) == coset_shell(lat, (1,), k) == ((1,),)
    for fn in caches:
        info = fn.cache_info()
        assert info.maxsize == shortvec._CACHE_SIZE
        assert info.currsize == info.maxsize


def test_rational_gram_enumeration():
    half = A2.rescale(QQ(1, 2))  # Gram [[1, 1/2], [1/2, 1]]
    assert minimum(half) == 1
    assert shell(half, 1) == ((0, 1), (1, -1), (1, 0))
    assert shell(half, QQ(1, 2)) == ()


# -- congruence classes mod 2L ------------------------------------------------


def test_coset_shell_z2():
    assert coset_shell(Z2, (1, 0), 1) == ((1, 0),)
    assert coset_shell(Z2, (1, 0), 5) == ((1, -2), (1, 2))
    assert coset_shell(Z2, (1, 1), 2) == ((1, -1), (1, 1))
    assert coset_minimum(Z2, (1, 0)) == 1
    assert coset_minimum(Z2, (1, 1)) == 2
    # a class is named by a lattice vector: int() alone read 1.5 as 1
    for bad in ((1.5, 0), (QQ(1, 2), 1)):
        with pytest.raises(NotInLattice):
            coset_shell(Z2, bad, 1)
        with pytest.raises(NotInLattice):
            coset_minimum(Z2, bad)
    with pytest.raises(DimensionMismatch):
        coset_minimum(Z2, (1, 0, 0))
    assert coset_shell(Z2, (np.int64(3), QQ(2)), 1) == ((1, 0),)


def test_coset_shell_a2():
    assert coset_shell(A2, (1, 0), 2) == ((1, 0),)
    assert coset_shell(A2, (1, 0), 6) == ((1, -2),)
    assert coset_minimum(A2, (1, 0)) == 2


def least_norm(lat, rows):
    """The least norm, on lat's input Gram, of walk leaves in its LLL basis."""
    return min(lat.norm(v) for v in imatmul(rows, shortvec._prep(lat).u.rows))


def test_coset_minimum_walks_from_the_lattice_minimum(walks):
    """coset_minimum walks its class first at the lattice minimum m, so a
    class that holds a vector of norm m takes one walk, however long the
    vector that names it.  Given the 0/1 class of the root x0 in the skewed
    bases of A16, D16 and E8 that the skewed-bases benchmark draws at seed
    11 (input-basis lifts of norm 894, 310 and 210), it makes one "le" class
    walk at m = 2, the reference's 15, 24 and 14 nodes, to the class minimum
    2, the minimum it gives for the root x0 itself."""
    from test_lines import benchmark_inputs

    inputs, rng = benchmark_inputs(), random.Random(11)
    bases = {(fam, n): inputs.unimodular(rng, n)
             for fam, dims in (("A", range(4, 17)), ("D", range(4, 17)), ("E", (6, 7, 8)))
             for n in dims}
    for fam, n, nodes in (("A", 16, 15), ("D", 16, 24), ("E", 8, 14)):
        u, uinv = bases[fam, n]
        lat = GramLattice(gram_product(u, root_lattice(fam, n).lattice.gram.num.rows))
        x0 = inputs.matmul([list(standard_x0(fam, n))], uinv)[0]
        lift = [v % 2 for v in x0]
        assert minimum(lat) == 2
        walks.clear()
        assert coset_minimum(lat, lift) == 2
        ((walk, result),) = walks
        prep = shortvec._prep(lat)
        assert (walk.mode, walk.limit) == ("le", 2) and lat.norm(lift) > 200
        assert walk.parity == shortvec._parity_reduced(prep, x0)
        visits = []
        assert least_norm(lat, listed("le", result.value)) == least_norm(lat, ref_walk(walk, visits)) == 2
        assert shortvec._walk(walk).nodes == len(visits) == nodes
        assert coset_minimum(lat, x0) == 2


def test_coset_minimum_walks_from_the_given_vector(walks):
    """The vector given to coset_minimum lies in its class, so its norm caps
    the doubling bounds: the Leech x0 class (minimum 6) walks at 4, where it
    is empty, then at 6, the norm of x0, not 8, with the reference's 465 and
    3,064 nodes."""
    big = leech()
    lat, x0 = big.lattice, big.marks["x0"]
    assert minimum(lat) == 4
    walks.clear()
    assert coset_minimum(lat, x0) == 6
    assert made(walks, "mode", "limit", "nodes") == [("le", 4, 465), ("le", 6, 3_064)]
    for (walk, result), nodes in zip(walks, (465, 3_064)):
        visits = []
        assert listed("le", result.value) == ref_walk(walk, visits) and len(visits) == nodes
    assert lat.norm(x0) == least_norm(lat, listed("le", result.value)) == 6


def test_a_class_named_by_a_long_vector_walks_batched_at_fixed_bounds(walks):
    """A class named by a long vector finds its minimum in a batched walk of
    fixed bound.  Named by x0 mod 2 (norm 126; the 0/1 lift of the reduced
    parity has norm 50), the Leech x0 class walks at 4 and 8 to its minimum
    6, the walk at 8 batched and 15,664 nodes, where the one shrinking-bound
    walk from 50 this replaced took up to 300,000."""
    big = leech()
    lat, lift = big.lattice, [v % 2 for v in big.marks["x0"]]
    minimum(lat)  # its own walk, cached once, is no class walk
    walks.clear()
    assert coset_minimum(lat, lift) == 6
    assert made(walks, "limit", "nodes", "kernel") == [(4, 465, "walk"), (8, 15_664, "batched")]
    walk, result = walks[-1]
    assert lat.norm(lift) == 126 and lat.norm(imatmul([walk.parity], shortvec._prep(lat).u.rows)[0]) == 50
    assert result.nodes < 300_000 and least_norm(lat, listed("le", result.value)) == 6


def class_walks(walks):
    """(limit, nodes) of each class walk the walks fixture recorded."""
    return [(walk.limit, result.nodes) for walk, result in walks if walk.parity is not None]


def most_class_walks(lat, x):
    """1 + ceil(log2(N(x) / m)), the most class walks coset_minimum makes."""
    return 1 + (-(-lat.norm(x) // minimum(lat)) - 1).bit_length()


def test_coset_minimum_doubles_its_bound_on_leech_classes(walks):
    """Six seeded 0/1 vectors of Leech, of norm 132 to 526, name classes of
    minima 8 and 6, each found by class walks at 4 and 8 of under 20,000
    nodes each; walks bounded by the norm of the least 0/1 lift, 50 to 74,
    took 128,278 to 314,112."""
    lat = leech().lattice
    assert minimum(lat) == 4
    rng = random.Random(5)
    for want in (8, 8, 6, 6, 6, 6):
        x = [rng.randint(0, 1) for _ in range(24)]
        walks.clear()
        assert coset_minimum(lat, x) == want
        made = class_walks(walks)
        assert [limit for limit, _ in made] == [4, 8] and len(made) <= most_class_walks(lat, x)
        assert all(nodes < 20_000 for _, nodes in made)


def test_coset_minimum_doubles_past_sparse_norms(walks):
    """On E8's Gram times 1,000 plus I (grain 1, minimum 2,001) a class's
    norms lie far apart: the classes of e_1 and (1,1,0,1,0,0,1,0), minima
    2,001 and 4,004, take 1 and 3 class walks, at 2,001, 4,002 and 8,004,
    where a bound raised one grain at a time would take thousands."""
    e8 = root_lattice("E", 8).lattice.gram.num.rows
    lat = GramLattice([[1000 * a + (i == j) for j, a in enumerate(row)] for i, row in enumerate(e8)])
    assert minimum(lat) == 2001
    for x, want, limits in (((1, 0, 0, 0, 0, 0, 0, 0), 2001, [2001]),
                            ((1, 1, 0, 1, 0, 0, 1, 0), 4004, [2001, 4002, 8004])):
        walks.clear()
        assert coset_minimum(lat, x) == want
        made = class_walks(walks)
        assert [limit for limit, _ in made] == limits and len(made) <= min(3, most_class_walks(lat, x))


def test_cosets_partition_shell():
    # Nonzero classes mod 2L cover each shell without overlap.
    rng = random.Random(103)
    for _ in range(10):
        lat = rand_gram(rng, 3)
        r = int(minimum(lat)) + rng.randint(0, 4)
        full = set(shell(lat, r))
        parts = []
        for p in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
            if any(p):
                parts.extend(coset_shell(lat, p, r))
        in_zero_class = {
            v for v in full if all(c % 2 == 0 for c in v)
        }
        assert set(parts) == full - in_zero_class
        assert len(parts) == len(set(parts))


def test_coset_shell_against_grid_oracle(walks):
    """Each class shell, and the class minimum, found in at most
    most_class_walks class walks, match the grid oracle."""
    rng = random.Random(107)
    for _ in range(15):
        n = rng.randint(2, 4)
        lat = rand_gram(rng, n)
        bound = int(minimum(lat)) + rng.randint(2, 6)
        p = tuple(rng.randint(0, 1) for _ in range(n))
        if not any(p):
            p = (1,) + p[1:]
        oracle = [
            (nm, v)
            for nm, v in grid_short_vectors(lat.gram.num.to_lists(), bound)
            if all((c - q) % 2 == 0 for c, q in zip(v, p))
        ]
        mine = []
        for r in range(1, bound + 1):
            mine.extend((r, v) for v in coset_shell(lat, p, r))
        assert sorted(mine) == oracle
        walks.clear()
        least = coset_minimum(lat, p)
        assert least == oracle[0][0] if oracle else least > bound
        assert len(class_walks(walks)) <= most_class_walks(lat, p)


def test_coset_rejects_zero_class():
    with pytest.raises(ZeroVector):
        coset_shell(Z2, (0, 0), 4)
    with pytest.raises(ZeroVector):
        coset_minimum(Z2, (2, 2))


# -- PairSet -------------------------------------------------------------------


def test_pairset_basics():
    ps = PairSet(A2, [(1, 0), (-1, 0), (0, 1)])
    assert len(ps) == 2
    assert ps.norm == 2
    assert ps.contains((-1, 0))
    assert not ps.contains((1, -1))
    assert len(ps.signed()) == 4
    assert ps == PairSet(A2, [(0, -1), (1, 0)])


def test_pairset_contains_reads_lattice_vectors():
    # int() alone truncated (1.5, 0) to (1, 0), a pair of the Z2 shell
    ps = PairSet(Z2, shell(Z2, 1))
    for v in [(1.5, 0), (QQ(3, 2), 0), (-0.5, 1)]:
        with pytest.raises(NotInLattice):
            ps.contains(v)
    assert ps.contains((QQ(-1), np.int64(0))) and not ps.contains((np.int64(1), QQ(1)))


def test_pairset_rejects():
    with pytest.raises(MixedNorms):
        PairSet(A2, [(1, 0), (1, 1)])
    with pytest.raises(ZeroVector):
        PairSet(A2, [(0, 0)])
    with pytest.raises(DimensionMismatch):
        PairSet(A2, [(1, 0), (1, 0, 0)])


def test_pairset_keeps_canonical_sorted_input():
    reps = shell(A2, 2)
    assert PairSet(A2, reps).reps == reps  # canonical input comes back unchanged
    want = ((0, 1), (1, -1), (1, 0))
    for given in (list(reps), reps[::-1], reps + reps[:1],  # not a tuple, order, duplicate
                  ((0, -1), (1, -1), (1, 0)),  # a sign
                  tuple(tuple(np.int64(c) for c in v) for v in reps),  # not ints
                  ((0, True), (1, -1), (1, 0))):
        ps = PairSet(A2, given)
        assert ps.reps == want and ps.norm == 2
        assert all(type(c) is int for v in ps.reps for c in v)
    assert PairSet(A2, ()).norm is None
    with pytest.raises(ZeroVector):
        PairSet(A2, ((0, 0), (0, 1)))
    with pytest.raises(DimensionMismatch):
        PairSet(A2, ((0, 1), (1, 0, 0)))
    with pytest.raises(MixedNorms):
        PairSet(A2, ((0, 1), (1, 1)))
    big = 2**64  # norms past 2**127, checked in Python integers
    assert PairSet(Z2, ((0, big), (big, 0))).norm == big**2
    with pytest.raises(MixedNorms):
        PairSet(Z2, ((0, big), (big + 1, 0)))


def test_pairset_takes_integer_arrays():
    """PairSet built from an int8, int64 or object array equals PairSet built
    from the same rows as tuples: signs flipped, rows repeated, order
    reversed, and entries past 2**63."""
    e8 = root_lattice("E", 8).lattice
    rows = np.array(shell(e8, 2), dtype=np.int8)
    messy = np.concatenate([rows[::-1], -rows[:7], rows[3:9]])
    want = PairSet(e8, shell(e8, 2))
    for dtype in (np.int8, np.int64, object):
        got = PairSet(e8, messy.astype(dtype))
        assert got == want == PairSet(e8, list(map(tuple, messy.tolist())))
        assert all(type(c) is int for v in got.reps for c in v)
    k = 2**62  # the pairs of norm 25 k**2 in Z2, entries up to 5 k > 2**63
    wide = [(-5 * k, 0), (3 * k, 4 * k), (-3 * k, -4 * k), (4 * k, -3 * k), (0, -5 * k), (3 * k, 4 * k)]
    got = PairSet(Z2, np.array(wide, dtype=object))
    assert got == PairSet(Z2, wide)
    assert got.reps == ((0, 5 * k), (3 * k, 4 * k), (4 * k, -3 * k), (5 * k, 0))
    assert all(type(c) is int for v in got.reps for c in v)
    with pytest.raises(DimensionMismatch):
        PairSet(A2, np.zeros((2, 3), np.int8))
    with pytest.raises(ZeroVector):
        PairSet(A2, np.array([[1, 0], [0, 0]]))
    with pytest.raises(MixedNorms):
        PairSet(A2, np.array([[1, 0], [1, 1]], dtype=np.int8))


def test_pairset_rejects_non_integral_coordinates():
    # a cast would truncate: PairSet(A2, [(0.99, 1)]) once gave reps ((0, 1),)
    for bad in ([(0.99, 1)], [(1, 0), (QQ(1, 2), 1)], [(np.float64(1.5), 0)],
                np.array([[0.5, 1.0]]), [(2**64 + QQ(1, 2), 1)]):
        with pytest.raises(NotInLattice):
            PairSet(A2, bad)
    got = PairSet(A2, [(1.0, 0), (QQ(2, 2), -1), (np.float64(0), True), np.array([-1.0, 0.0])])
    assert got.reps == ((0, 1), (1, -1), (1, 0))
    assert all(type(c) is int for v in got.reps for c in v)


def test_cached_shells_are_read_only():
    e8 = root_lattice("E", 8).lattice
    rows = shortvec._shell_rows(e8, 2)
    assert rows.dtype == np.int8 and rows.shape == (120, 8)
    with pytest.raises(ValueError):
        rows[0, 0] = 5
    assert shortvec._shell_rows(e8, 2) is rows
    assert PairSet(e8, rows).reps == shell(e8, 2) == shortvec._tuples(rows)
    empty = shortvec._shell_rows(e8, 3)  # E8 is even
    assert empty.shape == (0, 8) and not empty.flags.writeable


def past_int64():
    """2**40 G + I for G the Gram matrix of D5: entries past 2**40 with
    content 1, so its walks pass the int64 bound.  Its norms are 2**40 N(x)
    + x.x, with N(x) the norm of x in D5."""
    return GramLattice([[2**40 * a + (i == j) for j, a in enumerate(row)]
                        for i, row in enumerate(root_lattice("D", 5).lattice.gram.num.rows)])


def test_vectors_upto_sorts_as_python_does(monkeypatch):
    """vectors_upto sorts in numpy with the norm as the first key, which is
    Python's order on (norm, vector) pairs, on the kernel corpus and on a
    walk in Python integers (past_int64, batched on object arrays)."""
    big = past_int64()
    limit = 3 * 2**41  # norms 2**41 + x.x and 2**42 + x.x
    prep = shortvec._prep(big)
    assert number_type(shortvec.Walk.of(prep, "le", limit)) is object
    monkeypatch.setattr(shortvec, "_BUDGET", 0)  # every walk batched
    for lat, r in [(lat, minimum(lat) + 2) for lat in kernel_corpus(random.Random(131))] + [(big, limit)]:
        got = vectors_upto(lat, r)
        assert got == sorted(got)
        norms = sorted({a for a, _ in got})
        assert len(norms) > 1 or lat.dim == 1
        assert got == [(a, v) for a in norms for v in shell(lat, a)]


# -- the kernel against the reference walk ------------------------------------


def kernel_walks(lat, r, parity):
    """Walks of all four modes at norm r on lat, whole and split in two."""
    prep = shortvec._prep(lat)
    pr = None if parity is None else shortvec._parity_reduced(prep, parity)
    for mode in ("le", "shell", "first", "count"):
        walk = shortvec.Walk.of(prep, mode, math.floor(r * prep.den), pr)
        for chunk in (walk.tops, walk.tops[0::2], walk.tops[1::2]):
            yield replace(walk, tops=chunk)


def lcm_form(delta):
    """(E, g) of the form the reference walks, E * N(x) = sum_k g_k y_k^2:
    E is the lcm of every delta_k delta_{k+1} and g_k = E / (delta_k delta_{k+1})."""
    e = [a * b for a, b in zip(delta, delta[1:])]
    scale = math.lcm(*e)
    return scale, [scale // v for v in e]


def ref_walk(walk, visits=None):
    """ref_search_chunk on the walk's fields in its lcm form; the exact-norm
    modes target the limit."""
    scale, g = lcm_form(walk.delta)
    limit = scale * walk.limit
    return ref_search_chunk(walk.n, walk.delta, walk.sub, g, walk.parity, walk.mode,
                            limit, limit, walk.tops, visits)


def number_type(walk):
    """The number type the walk's numpy kernel takes it in: np.int32,
    np.int64 or object (_class_type for a "count" walk)."""
    return shortvec._class_type(walk) if walk.mode == "count" else shortvec._walk_types(walk)[0]


def listed(mode, found):
    """A walk's result with "shell" and "le" leaves as tuples, as
    ref_search_chunk gives them."""
    if mode in ("le", "shell"):
        return list(map(tuple, found.tolist()))
    return found


def walked(kernel, walk):
    """(value, nodes) of one kernel, leaves in ref_search_chunk's form."""
    found = kernel(walk)
    return listed(walk.mode, found.value), found.nodes


def in_order(mode, record):
    """A (value, nodes) record of walked or ref_walk with its "shell" or
    "le" leaves sorted, for kernels that give them in another order."""
    value, nodes = record
    return (sorted(value) if mode in ("le", "shell") else value), nodes


def check_numpy_kernel(walk, want):
    """The numpy kernels against want = (result, nodes) of the reference
    walk: every bound is fixed, so the batched kernel gives want's result
    and, counting the rows it expands, want's node count, and so does
    _class_walk, summing the multiplicities of its states, its leaves in
    another order and in the batched kernel's type.  "first" walks are the
    Python kernel's alone: the batched kernel refuses them."""
    if walk.mode == "first":
        with pytest.raises(ValueError):
            shortvec._batched_walk(walk)
        return
    batched = shortvec._batched_walk(walk)
    assert (listed(walk.mode, batched.value), batched.nodes) == want
    got = shortvec._class_walk(walk)  # None where more than _BATCH states do not merge: _run walks it batched
    if got is not None:
        assert in_order(walk.mode, (listed(walk.mode, got.value), got.nodes)) == in_order(walk.mode, want)
        assert walk.mode == "count" or got.value.dtype == batched.value.dtype


def kernel_corpus(rng):
    """Root lattices in skewed bases from rng, and three lattices with one
    quirk each."""
    from test_mod2 import skewed_basis

    lats = [skewed_basis(root_lattice(fam, n).lattice, rng)
            for fam, dims in (("A", range(4, 13)), ("D", range(4, 13)),
                              ("E", range(6, 9)))
            for n in dims]
    return lats + [
        A2.rescale(QQ(1, 2)),  # rational Gram matrix
        GramLattice([[3]]),  # dimension 1
        # LLL leaves this basis alone and its diagonal minimum 11 lies above
        # the minimum 10, so the minimum's walk at 10 finds a leaf
        GramLattice([[12, 1, 3, -1], [1, 12, -6, 2], [3, -6, 11, -6],
                     [-1, 2, -6, 11]]),
    ]


def test_kernel_matches_reference_walk(walks):
    """Both kernels give the reference's results and node counts, in every
    mode the batched kernel takes, with no exception, on parity walks and on
    the coset walks of least_vector."""
    rng = random.Random(131)
    lats = kernel_corpus(rng)
    seen = set()
    for lat in lats:
        n = lat.dim
        m = minimum(lat)
        parity = tuple(rng.randint(0, 1) for _ in range(n - 1)) + (1,)
        for par in (None, parity):
            for walk in kernel_walks(lat, m + 2, par):
                visits = []
                want = ref_walk(walk, visits), len(visits)
                assert walked(shortvec._walk, walk) == want, walk.mode
                check_numpy_kernel(walk, want)
                if want[0]:  # a leaf or a count found
                    seen.add(walk.mode)
    assert seen == {"le", "shell", "first", "count"}

    # the coset walks of least_vector: a prefix held at 1 on top, e_i, then
    # a reduced block, in a basis that is not reduced as a whole
    walks.clear()
    for lat in lats:
        m = minimum(lat)
        for r in (m, m + 2):
            shortvec.least_vector(lat, r)
    firsts = [walk for walk, _ in walks if walk.mode == "first"]
    assert any(walk.tops == (1,) for walk in firsts)
    # these bases are reduced below their top two levels only, so their
    # leading minors are large, and a few walks pass the int64 bound: the
    # batched kernel then walks their whole shells in Python integers
    past = 0
    for walk in firsts:
        visits = []
        want = ref_walk(walk, visits), len(visits)
        assert walked(shortvec._walk, walk) == want
        check_numpy_kernel(walk, want)
        whole = replace(walk, mode="shell")
        check_numpy_kernel(whole, walked(shortvec._walk, whole))
        past += number_type(walk) is object
    assert 0 < past < len(firsts)


@pytest.mark.parametrize("budget, batch", [(shortvec._BUDGET, shortvec._BATCH),
                                           (0, shortvec._BATCH), (0, 2)])
def test_minimum_walk_leaves_match_reference_walk(monkeypatch, budget, batch):
    """The minimum's walk, "le" one grain below the seed (once a "mincount"
    walk, then a "min" walk that lowered its bound at each leaf), keeps the
    vectors below the seed.  On bases whose seed lies above the minimum
    (about one in 200 draws) and on the others, both kernels, and the
    dispatch with every walk batched or not, whole and split in two, give
    the reference's leaves and node counts, and minimum their least norm;
    batches of two rows split every level."""
    monkeypatch.setattr(shortvec, "_BUDGET", budget)
    monkeypatch.setattr(shortvec, "_BATCH", batch)
    rng = random.Random(109)
    below = 0
    while below < 5:
        lat = near_reduced_gram(rng, rng.randint(2, 6))
        prep = shortvec._prep(lat)
        whole = shortvec.Walk.of(prep, "le", prep.seed - prep.grain)
        for walk in (whole, replace(whole, tops=whole.tops[0::2]), replace(whole, tops=whole.tops[1::2])):
            visits = []
            want = ref_walk(walk, visits), len(visits)
            assert walked(shortvec._walk, walk) == want
            check_numpy_kernel(walk, want)
            assert walked(shortvec._run, walk)[0] == want[0]
        found = shortvec._run(whole).value
        if len(found):
            assert minimum(lat) == least_norm(lat, listed("le", found)) < QQ(prep.seed, prep.den)
            below += 1


def test_coordinate_bounds_match_reference():
    """The bounds from the integer adjugate of the walk's triangular factor
    are the scaled-integer ones of the lcm form, on the kernel corpus, on
    A40 and D48, and on Leech, whose walk coordinates they keep in int8."""
    wide = [root_lattice("A", 40).lattice, root_lattice("D", 48).lattice]
    for lat in kernel_corpus(random.Random(131)) + wide + [leech().lattice]:
        prep = shortvec._prep(lat)
        scale, g = lcm_form(prep.delta)
        m = minimum(lat)
        for r in (m, m + 2, 100 * m):
            limit = math.floor(r * prep.den)
            assert (shortvec._coordinate_bounds(prep.delta, prep.sub, limit)
                    == ref_coordinate_bounds(prep.delta, prep.sub, g, scale * limit))
    prep = shortvec._prep(leech().lattice)
    assert max(shortvec._coordinate_bounds(prep.delta, prep.sub, 4)) == 12


def test_batched_kernel_at_batch_boundaries(monkeypatch):
    """Batches of one to a few rows split every level; with a "first" hit
    among them, the batched kernel must still give the Python kernel's
    results and node counts."""
    rng = random.Random(149)
    batched = 0
    for _ in range(30):
        lat = near_reduced_gram(rng, rng.randint(2, 6))
        m = minimum(lat)
        parity = tuple(rng.randint(0, 1) for _ in range(lat.dim - 1)) + (1,)
        for par in (None, parity):
            for walk in kernel_walks(lat, m + 2, par):
                want = walked(shortvec._walk, walk)
                for size in (1, 2, 3, 64):
                    monkeypatch.setattr(shortvec, "_BATCH", size)
                    check_numpy_kernel(walk, want)
                batched += 1
    assert batched > 500


def test_batched_kernel_answers_an_empty_top_level():
    """With no top-level value inside the bound, the batched kernel gives
    the empty result of each of its three modes itself, without the Python
    kernel, and so does _class_walk."""
    walks = [walk for lat in (root_lattice("E", 8).lattice, GramLattice([[3]]))
             for walk in kernel_walks(lat, minimum(lat), None)
             if walk.mode != "first"]
    for walk in walks:
        top = shortvec._top_values(walk.delta, walk.limit, None)
        for tops in ((), (top[-1] + 1,)):  # none, or none inside the bound
            empty = replace(walk, tops=tops)
            assert walked(shortvec._batched_walk, empty) == (ref_walk(empty), 0)
            assert shortvec._batched_walk(empty).kernel == "batched"
            assert walked(shortvec._class_walk, empty) == (ref_walk(empty), 0)


def test_batched_kernel_takes_top_level_values_in_any_order():
    """The batched kernel finds the zero-prefix row, to which alone the sign
    rule applies, by walking the top-level value 0 first, and _class_walk
    as its one state with A = 0, so the order of walk.tops does not matter:
    shuffled, with negative values among them, they give _walk's results on
    the same walk, leaves in another order, and _walk's node counts."""
    rng = random.Random(157)
    for lat in kernel_corpus(rng)[::3]:
        m = minimum(lat)
        for walk in kernel_walks(lat, m + 2, None):
            if walk.mode == "first":
                continue
            tops = list(walk.tops) + [-t for t in walk.tops if t]
            rng.shuffle(tops)
            mixed = replace(walk, tops=tuple(tops))
            want = walked(shortvec._walk, mixed)
            got = walked(shortvec._batched_walk, mixed)
            if walk.mode in ("le", "shell"):
                want, got = (sorted(want[0]), want[1]), (sorted(got[0]), got[1])
            assert got == want
            assert in_order(walk.mode, walked(shortvec._class_walk, mixed)) == want


def test_a_class_walk_past_its_store_limit_refuses_before_it_stores(monkeypatch):
    """_class_walk knows a "shell" or "le" walk's leaves once its backward
    pass ends: E8's 1,080 pairs of norm 4 (1,200 up to it) take 8 bytes each
    in int8, so a _STORE one byte lower refuses them with TooLarge before
    building any row, and _STORE itself lets them through; a count stores
    nothing and ignores it.  shell() past _BUDGET and _CLASSES, a class walk,
    refuses too."""
    prep = shortvec._prep(root_lattice("E", 8).lattice)
    shells, upto, count = (shortvec.Walk.of(prep, mode, 4) for mode in ("shell", "le", "count"))
    assert shortvec._walk_types(shells)[1] is np.int8
    for walk, leaves in ((shells, 1080), (upto, 1200)):
        monkeypatch.setattr(shortvec, "_STORE", 8 * leaves)
        assert len(shortvec._class_walk(walk).value) == leaves
        monkeypatch.setattr(shortvec, "_STORE", 8 * leaves - 1)
        with monkeypatch.context() as m:
            m.setattr(shortvec, "_add_rows", lambda *args: pytest.fail("a row was built"))
            with pytest.raises(TooLarge, match=f"{leaves:,} vectors"):
                shortvec._class_walk(walk)
    monkeypatch.setattr(shortvec, "_STORE", 0)
    assert shortvec._class_walk(count).value == 1080
    monkeypatch.setattr(shortvec, "_BUDGET", 0)
    monkeypatch.setattr(shortvec, "_CLASSES", 0)
    with pytest.raises(TooLarge):
        shell(root_lattice("D", 6).lattice.rescale(5), 10)  # a Gram no other test caches


def leech_walk(mode, limit):
    return shortvec.Walk.of(shortvec._prep(leech().lattice), mode, limit)


def test_batched_kernel_visits_the_leech_minimum_walk():
    # the "le" walk one grain below the seed 4, which alone proves the
    # minimum, has 14,978 nodes and finds nothing; the count of the pairs at
    # 4 has 1,971,697 below the top level, the count of the reference walk
    # (test_leech_minimum_walk_matches_reference) and of the Python kernel,
    # which _class_walk sums from the multiplicities of 20,238 states; the
    # class shell expands them to the batched kernel's 98,280 leaves
    proof, count, shells = leech_walk("le", 2), leech_walk("count", 4), leech_walk("shell", 4)
    assert walked(shortvec._batched_walk, proof) == walked(shortvec._walk, proof) == ([], 14_978)
    assert walked(shortvec._batched_walk, count) == walked(shortvec._class_walk, count) == (98_280, 1_971_697)
    want = in_order("shell", walked(shortvec._batched_walk, shells))
    assert in_order("shell", walked(shortvec._class_walk, shells)) == want and len(want[0]) == 98_280


@pytest.mark.slow
def test_leech_minimum_walk_matches_reference():
    walk = leech_walk("count", 4)
    visits = []
    want = ref_walk(walk, visits), len(visits)
    assert want[1] == 1_971_697
    assert walked(shortvec._walk, walk) == walked(shortvec._batched_walk, walk) == want
    assert walked(shortvec._class_walk, walk) == want
    shells = replace(walk, mode="shell")  # the same tree: the class shell against the Python walk
    want = in_order("shell", walked(shortvec._walk, shells))
    assert in_order("shell", walked(shortvec._class_walk, shells)) == want and len(want[0]) == 98_280


@pytest.mark.slow
def test_leech_norm_6_shell_is_one_int8_array():
    """The largest shell any command stores, Leech's 8,386,560 pairs of norm
    6, is cached as one int8 array: the map back keeps the leaves' type, as
    every entry fits, and sha256 pins its bytes (about 8 s and 593 MB peak
    RSS on a 2-core Xeon)."""
    rows = shortvec._shell_rows(leech().lattice, 6)
    assert rows.dtype == np.int8 and rows.shape == (8_386_560, 24)
    assert hashlib.sha256(rows.tobytes()).hexdigest().startswith("bbbf8b0d4408a025")


def test_batched_kernel_walks_past_the_int64_bound(monkeypatch):
    """Walks whose numbers may pass 2**62 run the batched kernel on Python
    integers, with the reference's results and node counts."""
    big = past_int64()
    walks = list(kernel_walks(big, minimum(big) + 2**41, None))
    assert {number_type(walk) for walk in walks} == {object}
    monkeypatch.setattr(shortvec, "_BUDGET", 1)  # every walk forecasts past it
    for walk in walks:
        visits = []
        want = ref_walk(walk, visits), len(visits)
        check_numpy_kernel(walk, want)
        if walk.mode == "first":  # least_vector's, run in the Python kernel alone
            assert walked(shortvec._walk, walk) == want
        else:
            assert walked(shortvec._run, walk)[0] == want[0]


def test_content_is_divided_out_of_the_walk():
    """D5 scaled by 2**40 has entries past int64 but content 2**40: it walks
    on D5's data, in int32, and its norms come out scaled back."""
    d5 = root_lattice("D", 5).lattice
    big = GramLattice([[2**40 * a for a in row] for row in d5.gram.num.rows])
    prep, small = shortvec._prep(big), shortvec._prep(d5)
    assert (prep.u, prep.delta, prep.sub, prep.seed) == (small.u, small.delta, small.sub, small.seed)
    assert prep.den == QQ(1, 2**40)
    walks = list(kernel_walks(big, minimum(big) + 2**41, None))
    assert {number_type(walk) for walk in walks} == {np.int32}
    le = next(walk for walk in walks if walk.mode == "le")
    assert shortvec._batched_walk(le).value.dtype == np.int8  # the walk's coordinate type
    assert minimum(big) == 2**41
    assert shell(big, 2**41) == shell(d5, 2)
    assert shell_count(big, 2**42) == shell_count(d5, 4) > 0
    assert vectors_upto(big, 2**42) == [(2**40 * a, v) for a, v in vectors_upto(d5, 4)]
    assert coset_minimum(big, (1, 0, 0, 0, 1)) == 2**40 * coset_minimum(d5, (1, 0, 0, 0, 1))
    assert shortvec.least_vector(big, 2**42) == shortvec.least_vector(d5, 4)


def refuse(walk):
    raise AssertionError("walked")


def test_odd_targets_on_an_even_lattice_walk_nothing(monkeypatch):
    """On a Gram numerator of content 2 every norm is an even multiple of
    1 / den, and on E8 and Leech (content 1, grain 2, den 1) every norm is
    even, above the seed too: a target that is not gives empty shell,
    shell_count, coset_shell and least_vector results without a walk."""
    e8, lech = root_lattice("E", 8).lattice, leech().lattice
    even = GramLattice([[2 * a for a in row] for row in e8.gram.num.rows])
    skew = A2.rescale(QQ(2, 3))  # (4 2; 2 4) / 3: norms are multiples of 2/3
    assert [shortvec._prep(lat).grain for lat in (e8, lech)] == [2, 2]
    monkeypatch.setattr(shortvec, "_run", refuse)
    for lat, r in ((even, 3), (even, 5), (skew, 1), (skew, QQ(5, 3)),
                   (e8, 3), (e8, 101), (lech, 5), (lech, 7)):
        shortvec._coset_shell.cache_clear()
        assert shell(lat, r) == () and shell_count(lat, r) == 0
        assert coset_shell(lat, (1,) + (0,) * (lat.dim - 1), r) == ()
        assert shortvec.least_vector(lat, r) is None
    monkeypatch.undo()
    assert shell_count(even, 4) == 120 and len(shell(skew, QQ(4, 3))) == 3


def test_norms_below_the_minimum_walk_nothing(monkeypatch):
    """least_vector below the minimum answers None without a walk: at 3 on
    Leech, and at 2 once the minimum is known, as _target asks the minimum
    only below the seed (4) and reads it from the cache."""
    lech = leech().lattice
    assert minimum(lech) == 4
    monkeypatch.setattr(shortvec, "_run", refuse)
    assert shortvec.least_vector(lech, 3) is None and shortvec.least_vector(lech, 2) is None
    assert shell_count(lech, 2) == 0 and shell(lech, 2) == ()


def test_vectors_upto_walks_at_a_multiple_of_the_grain(walks):
    """vectors_upto(E8, 3) walks "le" at 2, the largest even norm up to 3,
    and lists the 120 roots as at 2; at 1, below the grain, the walk is at
    0 and lists nothing."""
    e8 = root_lattice("E", 8).lattice
    walks.clear()
    upto = vectors_upto(e8, 3)
    assert made(walks, "mode", "limit") == [("le", 2)]
    assert upto == vectors_upto(e8, 2) == [(QQ(2), v) for v in shell(e8, 2)]
    assert vectors_upto(e8, QQ(7, 2)) == upto and vectors_upto(e8, 1) == []
    assert made(walks, "mode", "limit")[-2:] == [("le", 2), ("le", 0)]


def test_vectors_upto_reads_norms_on_the_input_gram(walks):
    """The "le" walk returns coordinates alone, and vectors_upto reads each
    norm on the input Gram after the map back: on D4 with content 3 and den
    7, whose walk units differ from the input's.  At r = -1, 0 and 1 E8
    lists nothing: -1 walks at -2, where _top_values gives no top-level
    value, and 0 and 1 at 0, where only the zero vector lies."""
    e8 = root_lattice("E", 8).lattice
    walks.clear()
    assert [vectors_upto(e8, r) for r in (-1, 0, 1)] == [[], [], []]
    assert made(walks, "mode", "limit", "tops") == [("le", -2, ()), ("le", 0, (0,)), ("le", 0, (0,))]
    d4 = root_lattice("D", 4).lattice
    lat = GramLattice(RatMatrix(IntMatrix([[3 * a for a in row] for row in d4.gram.num.rows]), 7))
    assert shortvec._prep(lat).den == QQ(7, 3)
    got = vectors_upto(lat, QQ(24, 7))
    assert [a for a, _ in got] == [lat.norm(v) for _, v in got]
    assert collections.Counter(a for a, _ in got) == {QQ(6, 7): 12, QQ(12, 7): 12, QQ(18, 7): 48, QQ(24, 7): 12}


def test_leech_walks_run_in_int32():
    """Leech walks whose lcm-scaled bounds passed 2**62 walk in int32, as
    their largest number, 2 delta_k delta_{k+1} limit, stays below 2**30:
    the class shells of x0 at norms 6 and 10 (the Python kernel's results
    and node counts), and the minimum in a seeded skewed basis."""
    from test_lines import benchmark_inputs

    big = leech()
    lat, x0 = big.lattice, big.marks["x0"]
    prep = shortvec._prep(lat)
    pr = shortvec._parity_reduced(prep, [v % 2 for v in x0])
    for r, pairs in ((6, 1), (10, 276)):
        walk = shortvec.Walk.of(prep, "shell", r, pr)
        assert number_type(walk) is np.int32
        want = walked(shortvec._walk, walk)
        assert len(want[0]) == pairs and walked(shortvec._batched_walk, walk) == want
    u, _ = benchmark_inputs().unimodular(random.Random(2), lat.dim)
    skew = shortvec.Walk.of(shortvec._prep(GramLattice(gram_product(u, lat.gram.num.rows))), "count", 4)
    assert shortvec._walk_types(skew)[0] is number_type(skew) is np.int32
    assert shortvec._batched_walk(skew).value == shortvec._class_walk(skew).value == 98_280


def test_int32_walks_stop_at_the_proven_bound():
    """_walk_types and _class_type take int32 while 2 delta_k delta_{k+1}
    limit stays below 2**30, and int64 from there: on (120 1; 1 120), whose
    walks have centre sums and reduced centres far below 2**30, the last
    limit in int32 and the first past it.  Both walks, where kv**2 reaches
    2**29, give the Python kernel's results and node counts in their numpy
    kernels."""
    lat = GramLattice([[120, 1], [1, 120]])
    prep = shortvec._prep(lat)
    last = (2**30 - 1) // (2 * max(a * b for a, b in zip(prep.delta, prep.delta[1:])))
    for limit, num in ((last, np.int32), (last + 1, np.int64)):
        for mode in ("le", "count"):
            walk = shortvec.Walk.of(prep, mode, limit)
            assert shortvec._walk_types(walk)[0] is number_type(walk) is num
            check_numpy_kernel(walk, walked(shortvec._walk, walk))


def test_small_walks_never_enter_the_batched_kernel(walks):
    """The E8 walks at norms 2 and 4 forecast and walk at most _BUDGET
    nodes (1,511 for the whole norm-4 walk), so the Python kernel takes
    them all."""
    e8 = root_lattice("E", 8).lattice
    for r in (2, 4):
        for walk in kernel_walks(e8, r, None):
            assert shortvec._walk(walk).nodes <= shortvec._BUDGET
            assert walked(shortvec._run, walk)[0] == ref_walk(walk)
    shortvec._coset_shell.cache_clear()
    assert len(shell(e8, 2)) == 120
    assert set(made(walks, "kernel")) == {"walk"}


def test_walks_past_the_budget_match_the_python_kernel(monkeypatch):
    """The forecast alone picks the kernel: a walk whose forecast passes the
    budget goes to its numpy kernel (_class_walk for a "count" walk, the
    batched kernel for any other), any other to the Python kernel, however
    many nodes it walks there.  Either way the result is the Python
    kernel's.  E8's norm-8 walks forecast 16,831 nodes against the default
    budget.  D16's norm-2 walks (forecast 392, 1,228 nodes when whole) stay
    in the Python kernel at a budget of 1,000."""
    e8, d16 = root_lattice("E", 8).lattice, root_lattice("D", 16).lattice
    forecast, long = set(), set()
    for budget, lat, r in ((shortvec._BUDGET, e8, 8), (1000, d16, 2)):
        monkeypatch.setattr(shortvec, "_BUDGET", budget)
        for walk in kernel_walks(lat, r, None):
            if walk.mode == "first":  # least_vector's, run in the Python kernel alone
                continue
            alone = walked(shortvec._walk, walk)
            got = shortvec._run(walk)
            over = walk.forecast() > budget
            assert got.kernel == (("classes" if walk.mode == "count" else "batched") if over else "walk")
            assert listed(walk.mode, got.value) == alone[0]
            if over:
                forecast.add(walk.mode)
            elif alone[1] > budget:
                long.add(walk.mode)
    assert forecast == long == {"le", "shell", "count"}


def test_leech_walks_go_straight_to_the_batched_kernel(walks):
    """The leech-cli walks forecast past _BUDGET and enter one numpy kernel
    alone: the minimum's walk at norm 2 and the class shell of x0 at norm
    10 the batched kernel in int32, the count of the minimal pairs
    _class_walk in int32, and the relative lattice's vectors_upto the
    batched kernel in int64, which dividing out the content 2 of its Gram
    puts it in (its bound is 2**53.2)."""
    from eqlat.mod2 import relative_lattice

    big = leech()
    lat, x0 = big.lattice, big.marks["x0"]
    relative = relative_lattice(lat, x0).induced
    assert shortvec._prep(relative).den == QQ(1, 2)
    for cache in (shortvec._minimum, shortvec._coset_shell):
        cache.cache_clear()
    walks.clear()
    assert minimum(lat) == 4
    assert shell_count(lat, 4) == 98_280
    assert len(coset_shell(lat, x0, 10)) == 276
    assert len(vectors_upto(relative, 16 - lat.norm(x0))) > 0
    assert [(walk.mode, number_type(walk)) for walk, _ in walks] == [
        ("le", np.int32), ("count", np.int32), ("shell", np.int32), ("le", np.int64)]
    assert made(walks, "kernel") == ["batched", "classes", "batched", "batched"]
    assert all(walk.forecast() > shortvec._BUDGET for walk, _ in walks)


def test_first_walks_never_enter_the_batched_kernel(walks):
    """A "first" walk stops at its first leaf, so the forecast of its whole
    tree says nothing of its cost: least_vector runs its walks in the Python
    kernel, also where that forecast passes _BUDGET, as on Leech, and where
    the walk is long, as the 40,433-node walk at norm 4 of Leech in the
    seed-7 skewed basis.  The batched kernel refuses a "first" walk."""
    from test_mod2 import skewed_basis

    first = leech_walk("first", 4)
    assert first.forecast() > shortvec._BUDGET
    with pytest.raises(ValueError):
        shortvec._batched_walk(first)
    lat = leech().lattice
    assert shortvec.least_vector(lat, 6) is not None
    skew = skewed_basis(lat, random.Random(7))
    assert shortvec.least_vector(skew, 4) is not None
    firsts = [(nodes, kernel) for mode, nodes, kernel in made(walks, "mode", "nodes", "kernel")
              if mode == "first"]
    assert {kernel for _, kernel in firsts} == {"walk"}
    assert (40_433, "walk") in firsts


def test_each_walk_enters_one_kernel(walks):
    """Every walk runs in exactly one kernel: _run sends it to the one its
    forecast and mode name, and least_vector's "first" walks to the Python
    kernel alone; on the kernel corpus, E8 and Leech."""
    for cache in (shortvec._minimum, shortvec._coset_shell):
        cache.cache_clear()
    rng = random.Random(151)
    for lat in kernel_corpus(random.Random(131)) + [root_lattice("E", 8).lattice]:
        m = minimum(lat)
        parity = tuple(rng.randint(0, 1) for _ in range(lat.dim - 1)) + (1,)
        assert shell_count(lat, m + 2) == len(shell(lat, m + 2))
        assert vectors_upto(lat, m + 2)
        assert coset_minimum(lat, parity) > 0
        assert shortvec.least_vector(lat, m) is not None
    big = leech()
    assert minimum(big.lattice) == 4 and len(coset_shell(big.lattice, big.marks["x0"], 10)) == 276
    assert shortvec.least_vector(big.lattice, 6) is not None
    for walk, result in walks:
        over = walk.mode != "first" and walk.forecast() > shortvec._BUDGET
        assert result.kernel == (("classes" if walk.mode == "count" else "batched") if over else "walk")
    firsts = [kernel for mode, kernel in made(walks, "mode", "kernel") if mode == "first"]
    assert firsts and set(firsts) == {"walk"}
    assert {kernel for mode, kernel in made(walks, "mode", "kernel") if mode != "first"} == {"walk", "batched", "classes"}


@pytest.mark.parametrize("name, r, nodes", [("Leech", 4, 1_971_697), ("E8", 4, 1_511),
                                           ("A16", 6, 240_676), ("D16", 2, 1_228)])
def test_forecast_is_near_the_node_count(name, r, nodes):
    """The Gaussian-heuristic forecast lies within a factor of 4 of the
    nodes of the whole "count" walk, the tree's, which _class_walk sums
    from its states' multiplicities."""
    lat = leech().lattice if name == "Leech" else root_lattice(name[0], int(name[1:])).lattice
    walk = next(walk for walk in kernel_walks(lat, r, None) if walk.mode == "count")
    assert shortvec._batched_walk(walk).nodes == shortvec._class_walk(walk).nodes == nodes
    assert nodes / 4 < walk.forecast() < 4 * nodes


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, object])
def test_tuples_match_tolist_on_every_integer_type(dtype):
    """_tuples reads each row's tuple from the array's bytes, so it must give
    tuple(map(tuple, rows.tolist())), every entry of type int, on every
    integer type (object: Python integers past int64), and on empty,
    non-contiguous, read-only and byte-swapped arrays."""
    lo, hi = (-2**70, 2**70) if dtype is object else (np.iinfo(dtype).min, np.iinfo(dtype).max)
    rows = np.array([[0, 1, -1], [lo, hi, 7], [5, -5, 0], [hi, 0, lo]], dtype=object).astype(dtype)
    frozen = rows.copy()
    frozen.flags.writeable = False
    cases = [rows, rows[:0], rows[:, :0], rows[::-2], rows[:, ::2], np.asfortranarray(rows), frozen]
    if dtype is not object:
        cases.append(rows.astype(rows.dtype.newbyteorder("S")))
    for case in cases:
        got = shortvec._tuples(case)
        assert type(got) is tuple and got == tuple(map(tuple, case.tolist()))
        assert all(type(v) is tuple for v in got) and all(type(c) is int for v in got for c in v)


def ref_canonical(rows) -> tuple:
    """Shell order from Python tuples: each row signed so that its first
    nonzero entry is positive, sorted, without repeats."""
    def signed(v):
        return v if next(c for c in v if c) > 0 else tuple(-c for c in v)
    return tuple(sorted({signed(v) for v in map(tuple, rows.tolist())}))


@pytest.mark.parametrize("block", [shortvec._BLOCK, 5])
def test_canonical_leaves_its_input_alone(monkeypatch, block):
    """_canonical works in place on the arrays its callers own: a shell
    walk's leaves come out in canonical form, and PairSet and line_family
    copy a caller's array first, so it comes back unchanged, and a cached
    shell stays read-only and cached.  Blocks of 5 rows put sign flips and
    repeats across block seams."""
    monkeypatch.setattr(shortvec, "_BLOCK", block)
    e8 = root_lattice("E", 8).lattice
    shortvec._coset_shell.cache_clear()
    cached = shortvec._shell_rows(e8, 2)
    assert cached.dtype == np.int8 and shortvec._tuples(cached) == ref_canonical(cached)
    rows = np.concatenate([-cached[::-1], cached[:7], -cached[40:52]])
    for a in (rows, rows.astype(np.int64), rows.astype(object)):
        before = a.copy()
        assert ref_canonical(a) == shell(e8, 2)
        assert PairSet(e8, a).reps == shell(e8, 2)
        assert a.flags.writeable and a.dtype == before.dtype and (a == before).all()
    lines = np.array([[0, -1], [1, -1], [-1, 0]])  # the 3 lines of A2, two signs to flip
    assert line_family(A2, lines).t == 3 and (lines == [[0, -1], [1, -1], [-1, 0]]).all()
    PairSet(e8, cached)
    assert not cached.flags.writeable and shortvec._shell_rows(e8, 2) is cached


def test_map_back_stores_the_narrowest_type_of_its_entries(monkeypatch):
    """_map_back gives the exact product of the leaves and U, in the
    leaves' type widened only as far as the entries need: int8 on Leech's
    98,280 pairs of norm 4 and on one block of them, where the product bound
    max |leaf| max |U_ij| n gives int16.  Blocks of one row put the two-row
    shells past int64 through the same path."""
    lat = leech().lattice
    prep, t = shortvec._target(lat, 4)
    leaves = shortvec._run(shortvec.Walk.of(prep, "shell", t)).value
    product = shortvec._max_abs(leaves) * shortvec._max_abs(np.array(prep.u.rows)) * 24
    assert shortvec._narrowest(product) is np.int16
    mapped = shortvec._map_back(lat, leaves)
    assert mapped.dtype == np.int8 and (mapped == imatmul_array(leaves, prep.u.rows)).all()
    assert shortvec._map_back(lat, leaves[:shortvec._BLOCK]).dtype == np.int8
    monkeypatch.setattr(shortvec, "_BLOCK", 1)
    for cache in (shortvec._prep, shortvec._coset_shell, shortvec._minimum):
        cache.cache_clear()
    d = (2**65 + 1) ** 2
    wide = GramLattice(RatMatrix(IntMatrix([[1, 0], [0, d]]), d))
    assert shell(wide, 1) == ((0, 1), (2**65 + 1, 0))
    p, big = 2**32, 2**70
    skew = GramLattice([[p, big * p], [big * p, big**2 * p + p + 1]])
    assert vectors_upto(skew, p + 1) == [(p, (1, 0)), (p + 1, (big, -1))]


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_map_back_widens_past_the_leaves_type(monkeypatch, block):
    """In a skewed basis the input coordinates of D12's 3,972 pairs of norm 4
    pass 127 while its walk leaves fit int8: _map_back widens its output
    block by block to the narrowest type of its entries, and equals the
    exact product for blocks of 1, 7 and 4,096 rows."""
    from test_mod2 import skewed_basis

    monkeypatch.setattr(shortvec, "_BLOCK", block)
    lat = skewed_basis(root_lattice("D", 12).lattice, random.Random(0))
    prep, t = shortvec._target(lat, 4)
    leaves = shortvec._run(shortvec.Walk.of(prep, "shell", t)).value
    want = imatmul_array(leaves, prep.u.rows)
    most = shortvec._max_abs(want)
    assert leaves.dtype == np.int8 and most > 127
    mapped = shortvec._map_back(lat, leaves)
    assert mapped.dtype == shortvec._narrowest(most) and (mapped == want).all()


@pytest.mark.parametrize("budget", [shortvec._BUDGET, 0])
def test_entries_past_int64_stay_exact(monkeypatch, budget):
    """Walk coordinates, scaled norms and input-basis coordinates past 2**63
    come out exact from either kernel (budget 0 sends every walk to the
    batched kernel by its forecast)."""
    monkeypatch.setattr(shortvec, "_BUDGET", budget)
    for cache in (shortvec._prep, shortvec._coset_shell, shortvec._minimum):
        cache.cache_clear()
    # x_0^2 + d x_1^2 = d: the bottom level solves x_0 = 2**65 + 1 in
    # closed form, so the walk is two nodes deep with coordinates past 2**63
    d = (2**65 + 1) ** 2
    wide = GramLattice(RatMatrix(IntMatrix([[1, 0], [0, d]]), d))
    assert shell(wide, 1) == ((0, 1), (2**65 + 1, 0))
    assert coset_shell(wide, (1, 0), 1) == ((2**65 + 1, 0),)
    # diag(p, p + 1) in the basis e_0, N e_0 + e_1: delta_1 delta_2 is
    # p^2 (p + 1), so the walks' numbers pass 2**62, and e_1 = (-N, 1) in
    # the input basis
    p, big = 2**32, 2**70
    skew = GramLattice([[p, big * p], [big * p, big**2 * p + p + 1]])
    assert vectors_upto(skew, p + 1) == [(p, (1, 0)), (p + 1, (big, -1))]
    assert shell(skew, p + 1) == ((big, -1),)
    assert coset_shell(skew, (0, 1), p + 1) == ((big, -1),)
    for v in shell(wide, 1) + shell(skew, p + 1) + coset_shell(skew, (0, 1), p + 1):
        assert all(type(c) is int for c in v)
    # the counts of these shells, and _class_walk's counts, shells and (on
    # skew: wide has 2**66 points of norm at most 1) "le" leaves in Python
    # integers: its partial norms, centres and minors pass int64 on both
    assert shell_count(wide, 1) == 2 and shell_count(skew, p + 1) == shell_count(skew, p) == 1
    for lat, r, modes in ((wide, 1, ("count", "shell")), (skew, p + 1, ("count", "shell", "le"))):
        prep, t = shortvec._target(lat, r)
        for mode in modes:
            walk = shortvec.Walk.of(prep, mode, t)
            assert shortvec._class_type(walk) is object
            got = walked(shortvec._class_walk, walk)
            assert in_order(mode, got) == in_order(mode, walked(shortvec._walk, walk)) and got[0]


def test_class_count_matches_the_python_walk():
    """_class_walk gives _walk's count, or its leaves in another order, and
    its node count on the "count", "shell" and "le" walks hypothesis draws,
    the zero-prefix row among them wherever the share holds the top-level
    value 0: Gram matrices B B^T + c I of dimension 1 to 8, walked
    in LLL's basis or in a skewed one as it stands, scaled by 1, 2 or 3
    (larger minors and centres); plain, in the class of a drawn vector x or
    in any class, 0 included; over a share of the top-level values; at a
    limit at the least diagonal entry, a grain below or above it, off the
    grain, at the norm of x, or anywhere up to twice the least entry."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from test_mod2 import skewed_basis

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        b = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
        c = data.draw(st.integers(1, 4))
        lat = GramLattice([[sum(map(int.__mul__, r, s)) + c * (i == j) for j, s in enumerate(b)]
                           for i, r in enumerate(b)])
        if data.draw(st.booleans()):
            lat = lll_reduce(lat)[0]
        else:
            lat = skewed_basis(lat, random.Random(data.draw(st.integers(0, 99))))
        scale = data.draw(st.sampled_from((1, 2, 3)))
        rows = [[scale * v for v in row] for row in lat.gram.num.rows]
        delta, sub = leading_minors(IntMatrix(rows))
        seed = min(rows[i][i] for i in range(n))
        grain = math.gcd(*(rows[i][i] for i in range(n)), *(2 * v for row in rows for v in row))
        x = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
        norm = sum(a * v * y for a, row in zip(x, rows) for v, y in zip(row, x))
        kind = data.draw(st.sampled_from(("plain", "class of x", "any class")))
        if kind == "class of x":
            parity, limit = tuple(v % 2 for v in x), norm
        else:
            parity = None if kind == "plain" else data.draw(st.tuples(*[st.integers(0, 1)] * n))
            limit = data.draw(st.sampled_from((seed, seed - grain, seed + grain, seed + 1, norm))
                              | st.integers(0, 2 * seed))
        # a level above 0 takes at most 2 b_k + 1 values (_coordinate_bounds):
        # a cap on their product keeps the Python walk small in skewed bases
        bound = shortvec._coordinate_bounds(delta, sub, max(limit, 0))
        hypothesis.assume(math.prod(2 * b + 1 for b in bound[1:]) <= 10**9)
        tops = shortvec._top_values(delta, limit, parity)
        share = data.draw(st.integers(1, 3))
        mode = data.draw(st.sampled_from(("count", "shell", "le")))
        walk = shortvec.Walk(tuple(delta), tuple(map(tuple, sub)), parity, mode, limit,
                             tops[data.draw(st.integers(0, share - 1))::share])
        got = shortvec._class_walk(walk) or shortvec._batched_walk(walk)  # as _run takes it
        assert in_order(mode, (listed(mode, got.value), got.nodes)) == in_order(mode, walked(shortvec._walk, walk))

    check()


def non_merging(mode):
    """The walk of test_classes_that_do_not_merge_go_to_the_batched_walk in
    that mode: rand_gram(seed 3, n = 12, spread 9) at six times its seed,
    whose classes of subtrees do not merge, so it is walked batched."""
    return shortvec.Walk.of(shortvec._prep(rand_gram(random.Random(3), 12, 9)), mode, 6 * 217)


def test_classes_that_do_not_merge_go_to_the_batched_walk(monkeypatch):
    """A walk whose classes of subtrees rarely meet is walked node by node:
    on rand_gram(seed 3, n = 12, spread 9), of determinant 1.2e28, the count
    and the shell at six times the seed (217) keep one state per node on a
    level past _BATCH states, so _class_walk gives up (None) and _run walks
    them batched, with _walk's 128 pairs and 38,793 nodes, also past
    _CLASSES (here 0); at four times the seed they stay class walks.
    Leech's norm-4 count, whose wide levels keep at most 4.5% of their nodes
    as states, stays one too."""
    prep = shortvec._prep(rand_gram(random.Random(3), 12, 9))
    assert prep.seed == 217
    monkeypatch.setattr(shortvec, "_CLASSES", 0)
    for r, kernel in ((4, "classes"), (6, "batched")):
        for mode in ("count", "shell"):
            walk = shortvec.Walk.of(prep, mode, r * prep.seed)
            assert walk.forecast() > shortvec._BUDGET
            got = shortvec._run(walk)
            assert got.kernel == kernel
            assert in_order(mode, (listed(mode, got.value), got.nodes)) == in_order(mode, walked(shortvec._walk, walk))
    assert walk == non_merging("shell") and (len(got.value), got.nodes) == (128, 38_793)
    assert shortvec._class_walk(walk) is shortvec._class_walk(non_merging("count")) is None
    assert shortvec._run(leech_walk("count", 4)).kernel == "classes"


def test_a_batched_walk_past_its_store_limit_refuses(monkeypatch, tmp_path, capsys):
    """The batched kernel adds up the bytes of the leaves it stores, once
    per batch: non_merging's shell, whose classes do not merge, keeps 128
    leaves, so a _STORE one byte below their size raises TooLarge, and
    _STORE itself lets them through; its count stores nothing and ignores
    it.  `eqlat shell --vectors` on that lattice then exits 5 with one
    line on stderr and nothing on stdout."""
    from eqlat import cli

    walk = non_merging("shell")
    size = shortvec._batched_walk(walk).value.nbytes
    monkeypatch.setattr(shortvec, "_STORE", size)
    assert len(shortvec._run(walk).value) == 128
    monkeypatch.setattr(shortvec, "_STORE", size - 1)
    with pytest.raises(TooLarge, match="past the limit"):
        shortvec._run(walk)
    assert shortvec._run(non_merging("count")).value == 128
    path = tmp_path / "bbt20.json"
    gram = rand_gram(random.Random(3), 12, 9).gram.num.rows
    path.write_text(json.dumps({"name": "bbt20", "dim": 12, "den": 1, "gram": [list(r) for r in gram]}))
    shortvec._coset_shell.cache_clear()
    assert cli.main(["shell", str(path), "--norm", str(walk.limit), "--vectors"]) == cli.TOO_LARGE == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the shell walk stored ") and err.count("\n") == 1


def test_class_count_multiplicities_pass_int64():
    """Z^40 at norm 100: its tree has about 6.7e30 nodes, so _class_walk's
    multiplicities turn to Python integers on the way down, and its count and
    nodes are exact: half the q^100 coefficient of theta_3^40, and the sum
    over m < 40 of (N_m + 1) / 2 for N_m the vectors of Z^m of norm at most
    100, the prefixes the sign rule keeps."""
    from oracles import theta_series

    n, r = 40, 100
    walk = shortvec.Walk.of(shortvec._prep(GramLattice(IntMatrix.identity(n))), "count", r)
    got = shortvec._class_walk(walk)
    assert got.value == theta_series("Z", n, r + 1)[r] // 2
    assert got.nodes == sum((sum(theta_series("Z", m, r + 1)) + 1) // 2 for m in range(1, n)) > 2**100


def no_fork(monkeypatch):
    """Patch os.fork so that a walk that forks fails the test."""

    def fork():
        raise AssertionError("a walk forked")

    monkeypatch.setattr(os, "fork", fork)


def test_only_walks_forecast_past_the_split_start_a_pool(monkeypatch):
    """No walk starts a pool or forks, whatever its forecast: non_merging's
    shell walk, whose classes do not merge, gives its 128 leaves batched in
    this process with _CLASSES just above and just below its forecast.  At
    the default, E8's norm-20 shell walk (forecast 4.9e5), which runs faster
    batched, stays below _CLASSES, and the Leech norm-4 shell, the largest
    walk of any benchmark workload, passes it (and runs as classes)."""
    no_fork(monkeypatch)
    walk = non_merging("shell")
    forecast = walk.forecast()
    for threshold in (math.ceil(forecast), math.floor(forecast)):
        monkeypatch.setattr(shortvec, "_CLASSES", threshold)
        found = shortvec._run(walk)
        assert (len(found.value), found.kernel) == (128, "batched")
    monkeypatch.undo()
    e8 = shortvec.Walk.of(shortvec._prep(root_lattice("E", 8).lattice), "shell", 20)
    assert e8.forecast() < shortvec._CLASSES < leech_walk("shell", 4).forecast()


def test_class_counts_never_split(monkeypatch, capsys):
    """A count _class_walk settles, and a shell walk past _CLASSES, run as
    classes in this process: the Leech norm-4 count and shell (forecast
    1.9e6) each give 98,280 pairs from 1,971,697 nodes, shell(Leech, 4)
    takes the class shell, and `eqlat equi leech.json`, whose two such
    counts once split, forks nothing; nor does E8's norm-8 count, a class
    walk with _CLASSES at 0."""
    from eqlat import cli

    no_fork(monkeypatch)
    assert shortvec._run(leech_walk("count", 4)) == shortvec.WalkResult(98_280, 1_971_697, "classes")
    found = shortvec._run(leech_walk("shell", 4))
    assert (len(found.value), found.nodes, found.kernel) == (98_280, 1_971_697, "classes")
    shortvec._coset_shell.cache_clear()
    assert len(shell(leech().lattice, 4)) == 98_280
    assert cli.main(["equi", str(Path(__file__).parent / "golden" / "leech.json")]) == 0
    assert "family t=276 " in capsys.readouterr().out
    monkeypatch.setattr(shortvec, "_CLASSES", 0)
    small = shortvec._run(shortvec.Walk.of(shortvec._prep(root_lattice("E", 8).lattice), "count", 8))
    assert (small.value, small.kernel) == (8760, "classes")
