"""Tests for LLL reduction and exact shell enumeration."""

import collections
import contextlib
import math
import multiprocessing
import random
import types
from fractions import Fraction as QQ

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
    ZeroVector,
)
from eqlat.exact import IntMatrix, RatMatrix, leading_minors, rank_det
from eqlat.fastops import gram_product, imatmul
from eqlat.lattice import GramLattice
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
        assert (prep.delta, prep.sub) == leading_minors(red), lat
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
    """_parity_reduced(prep, p) is a y with y U = p mod 2, from one solve."""
    from test_mod2 import skewed_basis

    rng = random.Random(139)
    for fam, n in (("A", 9), ("D", 12), ("E", 8)):
        lat = skewed_basis(root_lattice(fam, n).lattice, rng)
        prep = shortvec._prep(lat)
        for _ in range(5):
            p = [rng.randint(0, 1) for _ in range(n - 1)] + [1]
            y = shortvec._parity_reduced(prep, p)
            assert set(y) <= {0, 1}
            assert [v % 2 for v in imatmul([y], prep.u.rows)[0]] == p


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
    the minimum, where the walk one grain below the seed finds and counts
    it; and on an even basis LLL leaves above its minimum, which random
    draws give too rarely (about one in 700)."""
    shortvec._min_count.cache_clear()
    assert minimum_against_oracle(GramLattice([[14, 6, 6], [6, 14, -3], [6, -3, 14]])) == (2, True)
    rng = random.Random(109)
    seen = collections.Counter()
    while seen[1, True] < 3 or seen[2, False] < 100:
        drawn = sum(seen.values())
        assert drawn < 4000, "too few bases above the minimum in 4000 lattices"
        seen[minimum_against_oracle(near_reduced_gram(rng, rng.randint(2, 6), even=drawn % 4 == 0))] += 1


def test_minimum_and_count_share_one_walk(monkeypatch):
    """minimum walks once, one grain below the seed, and keeps no vectors;
    shell_count at the minimum shares that walk only where it found the
    minimum below the seed, and every shell is a "shell" walk of its own.
    Walks are listed as (mode, limit in walk units)."""
    walks = []
    search = shortvec._search_chunk

    def counted(payload):
        walks.append((payload["mode"], payload["limit"]))
        return search(payload)

    monkeypatch.setattr(shortvec, "_search_chunk", counted)
    shortvec._min_count.cache_clear()
    shortvec._coset_shell.cache_clear()
    # E8: seed 2 = grain 2, so no norm lies below the seed and nothing walks
    e8 = root_lattice("E", 8).lattice
    assert (shortvec._prep(e8).seed, shortvec._prep(e8).grain) == (2, 2)
    assert minimum(e8) == 2 and walks == []
    assert shell_count(e8, 2) == 120 and walks == [("count", 2)]
    assert len(shell(e8, 2)) == 120 and walks == [("count", 2), ("shell", 2)]
    # the S0 slice reads the cached shell; norm 1 lies below the minimum
    assert equiangular_via_s0(e8, (0, 0, 0, 0, 0, 0, 1, -1)).t == 28
    assert shell(e8, 1) == ()
    assert walks == [("count", 2), ("shell", 2)]
    # a basis whose least diagonal entry, 11, lies above the minimum 10
    # (grain 1): the walk at 10 finds and counts the minimum
    lat = GramLattice([[12, 1, 3, -1], [1, 12, -6, 2], [3, -6, 11, -6], [-1, 2, -6, 11]])
    assert (shortvec._prep(lat).seed, shortvec._prep(lat).grain) == (11, 1)
    walks.clear()
    assert minimum(lat) == 10 and walks == [("mincount", 10)]
    assert shell_count(lat, 10) == 1 and walks == [("mincount", 10)]
    assert shell(lat, 9) == () and walks == [("mincount", 10)]
    assert len(shell(lat, 10)) == 1 and walks == [("mincount", 10), ("shell", 10)]


def test_shell_count_above_the_seed_walks_once(monkeypatch):
    # above the minimum walk's first bound, shell_count makes only its own
    # "count" walk; the counts agree with the shells' walks at every norm
    modes = []
    search = shortvec._search_chunk

    def counted(payload):
        modes.append(payload["mode"])
        return search(payload)

    monkeypatch.setattr(shortvec, "_search_chunk", counted)
    shortvec._min_count.cache_clear()
    e8 = root_lattice("E", 8).lattice
    assert shell_count(e8, 4) == 1080
    assert modes == ["count"]
    rng = random.Random(41)
    corpus = [A2, Z2, e8, root_lattice("D", 5).lattice]
    corpus += [rand_gram(rng, n) for n in (2, 3, 4, 5)]
    for lat in corpus:
        shortvec._min_count.cache_clear()
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
    caches = (shortvec._prep, shortvec._min_count, shortvec._coset_shell)
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


def test_coset_minimum_walks_from_the_reduced_lift(monkeypatch):
    """coset_minimum seeds its "mincount" walk with the norm of the 0/1 lift
    of the reduced parity in the LLL basis when the vector it is given is
    longer.  Given the 0/1 class of the root x0 in the skewed bases of A16,
    D16 and E8 that the skewed-bases benchmark draws at seed 11, it gives the
    class minimum 2, as the walk from the input-basis lift does, and walks
    the reference's nodes at its seed: 15, 297 and 76, where the input-basis
    seeds cost 258,319, 12,657 and 1,084."""
    from test_lines import benchmark_inputs

    inputs, rng = benchmark_inputs(), random.Random(11)
    bases = {(fam, n): inputs.unimodular(rng, n)
             for fam, dims in (("A", range(4, 17)), ("D", range(4, 17)), ("E", (6, 7, 8)))
             for n in dims}
    walks = []
    search = shortvec._search_chunk
    monkeypatch.setattr(shortvec, "_search_chunk",
                        lambda payload: walks.append(payload) or search(payload))
    for fam, n, nodes in (("A", 16, 15), ("D", 16, 297), ("E", 8, 76)):
        u, uinv = bases[fam, n]
        lat = GramLattice(gram_product(u, root_lattice(fam, n).lattice.gram.num.rows))
        x0 = inputs.matmul([list(standard_x0(fam, n))], uinv)[0]
        lift = [v % 2 for v in x0]
        walks.clear()
        assert coset_minimum(lat, lift) == 2
        (payload,) = walks
        prep, first = shortvec._prep(lat), lat.norm(lift)
        pr = shortvec._parity_reduced(prep, x0)
        seed = lat.norm(imatmul([pr], prep.u.rows)[0]) * prep.den
        assert payload["limit"] == seed <= first * prep.den
        visits = []
        assert ref_walk(payload, visits)[0] == 2
        assert shortvec._walk(payload)[1] == len(visits) == nodes
        old = shortvec._run(prep, "mincount", int(first * prep.den), payload["parity"])
        assert old[0] == 2


def test_coset_minimum_walks_from_the_given_vector(monkeypatch):
    """The vector given to coset_minimum lies in its class, so its norm
    seeds the walk when it is below the reduced lift's: the Leech x0 class
    (minimum 6) walks 3,064 nodes from x0, the reference's count, where the
    reduced lift's seed 50 walks 343,448 to the same minimum."""
    big = leech()
    lat, x0 = big.lattice, big.marks["x0"]
    walks = []
    search = shortvec._search_chunk
    monkeypatch.setattr(shortvec, "_search_chunk",
                        lambda payload: walks.append(payload) or search(payload))
    assert coset_minimum(lat, x0) == 6
    (payload,) = walks
    assert payload["limit"] == lat.norm(x0) == 6
    visits = []
    assert ref_walk(payload, visits)[0] == 6
    assert shortvec._walk(payload)[1] == len(visits) == 3_064
    prep = shortvec._prep(lat)
    lift = lat.norm(imatmul([payload["parity"]], prep.u.rows)[0])
    assert lift == 50
    assert shortvec._run(prep, "mincount", 50, payload["parity"])[0] == 6


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


def test_coset_shell_against_grid_oracle():
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


def test_coset_rejects_zero_class():
    with pytest.raises(ZeroVector):
        coset_shell(Z2, (0, 0), 4)
    with pytest.raises(ZeroVector):
        coset_minimum(Z2, (2, 2))


# -- splitting walks across processes ------------------------------------------


def allow_cpus(monkeypatch, n):
    """The process may run on n CPUs, as _run reads it."""
    monkeypatch.setattr(shortvec.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_threaded_matches_serial(monkeypatch):
    lat = GramLattice(
        [[4, 1, 0, -1, 2], [1, 5, 1, 0, -1], [0, 1, 6, 1, 0],
         [-1, 0, 1, 5, 1], [2, -1, 0, 1, 6]]
    )
    serial_min = minimum(lat)
    serial_shell = shell(lat, serial_min + 2)
    serial_count = shell_count(lat, serial_min + 2)
    monkeypatch.setattr(shortvec, "_SPLIT", 0)  # split these small walks
    allow_cpus(monkeypatch, 2)
    shortvec._min_count.cache_clear()
    shortvec._coset_shell.cache_clear()
    assert minimum(lat) == serial_min
    assert shell(lat, serial_min + 2) == serial_shell
    assert shell_count(lat, serial_min + 2) == serial_count


def test_threaded_minimum_and_count_match_serial(monkeypatch):
    # LLL leaves this basis alone; its diagonal minimum 11 sits above the
    # minimum 10, whose "mincount" walk stays in this process, and the shell
    # walk's two top-level values split across two workers
    lat = GramLattice([[12, 1, 3, -1], [1, 12, -6, 2], [3, -6, 11, -6],
                       [-1, 2, -6, 11]])

    def answers():
        shortvec._min_count.cache_clear()
        shortvec._coset_shell.cache_clear()
        m = minimum(lat)
        return m, shell_count(lat, m), shell(lat, m)  # the count from the minimum walk

    serial = answers()
    assert serial[:2] == (10, 1)
    monkeypatch.setattr(shortvec, "_SPLIT", 0)
    allow_cpus(monkeypatch, 2)
    assert answers() == serial


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
    assert shortvec._walk_types(prep.delta, prep.sub, limit)[0] is object
    monkeypatch.setattr(shortvec, "_BUDGET", 0)  # every walk batched
    for lat, r in [(lat, minimum(lat) + 2) for lat in kernel_corpus(random.Random(131))] + [(big, limit)]:
        got = vectors_upto(lat, r)
        assert got == sorted(got)
        norms = sorted({a for a, _ in got})
        assert len(norms) > 1 or lat.dim == 1
        assert got == [(a, v) for a in norms for v in shell(lat, a)]


# -- the kernel against the reference walk ------------------------------------


def kernel_payloads(lat, r, parity):
    """Payloads of all five modes at norm r on lat, whole and split in two."""
    prep = shortvec._prep(lat)
    pr = None if parity is None else shortvec._parity_reduced(prep, parity)
    target = math.floor(r * prep.den)
    if parity is None:
        seed = prep.seed
    else:
        seed = math.floor(lat.norm(parity) * prep.den)  # the 0/1 lift lies in the class
    for mode, limit in (("le", target), ("shell", target), ("first", target),
                        ("count", target), ("mincount", seed)):
        tops = shortvec._top_values(prep.delta, limit, pr)
        for chunk in (tops, tops[0::2], tops[1::2]):
            yield {"n": prep.n, "delta": prep.delta, "sub": prep.sub,
                   "parity": pr, "mode": mode, "limit": limit, "tops": chunk}


def lcm_form(delta):
    """(E, g) of the form the reference walks, E * N(x) = sum_k g_k y_k^2:
    E is the lcm of every delta_k delta_{k+1} and g_k = E / (delta_k delta_{k+1})."""
    e = [a * b for a, b in zip(delta, delta[1:])]
    scale = math.lcm(*e)
    return scale, [scale // v for v in e]


def ref_walk(payload, visits=None):
    """ref_search_chunk on payload in its lcm form, with the norms it
    reports brought back to the payload's units; the exact-norm modes
    target the limit."""
    scale, g = lcm_form(payload["delta"])
    limit = scale * payload["limit"]
    found = ref_search_chunk(dict(payload, g=g, limit=limit, target=limit), visits)
    if payload["mode"] == "le":
        return [(a // scale, v) for a, v in found]
    if payload["mode"] == "mincount":  # (best, count): the leaves at best, counted
        return found[0] // scale, len(found[1])
    return found


def number_type(payload):
    """The number type the batched kernel walks payload in: np.int32,
    np.int64 or object."""
    return shortvec._walk_types(payload["delta"], payload["sub"], payload["limit"])[0]


def listed(mode, found):
    """A walk's result with "shell" and "le" leaves as tuples, as
    ref_search_chunk gives them."""
    if mode == "le":
        return [(r[0], tuple(r[1:])) for r in found.tolist()]
    if mode == "shell":
        return list(map(tuple, found.tolist()))
    return found


def walked(kernel, payload):
    """(result, nodes) of one kernel, leaves in ref_search_chunk's form."""
    found, nodes = kernel(payload)
    return listed(payload["mode"], found), nodes


class Capped(list):
    """A visits list for ref_search_chunk that ends the walk, raising Full,
    once it holds cap nodes."""

    class Full(Exception):
        pass

    def __init__(self, cap):
        super().__init__()
        self.cap = cap

    def append(self, level):
        super().append(level)
        if len(self) == self.cap:
            raise Capped.Full


def check_batched(payload, want):
    """The batched kernel against want = (result, nodes) of the reference
    walk.  Its result is want's.  It counts the rows it expands, so its node
    count is want's wherever the bound never lowers; a "mincount" walk that
    lowers it may count rows made before that, but never more than the
    "count" walk at the first bound, whose tree holds them all.  That walk
    is stopped one node past the batched count: whole, at a coset walk's
    seed, it can take minutes.  "first" walks are the Python kernel's
    alone: the batched kernel refuses them."""
    if payload["mode"] == "first":
        with pytest.raises(ValueError):
            shortvec._batched_walk(payload)
        return
    got, nodes = walked(shortvec._batched_walk, payload)
    assert got == want[0]
    if payload["mode"] == "mincount" and got[0] < payload["limit"]:
        fixed = Capped(nodes + 1)
        with contextlib.suppress(Capped.Full):
            ref_walk(dict(payload, mode="count"), fixed)
        assert want[1] <= nodes <= len(fixed)
    else:
        assert nodes == want[1]


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
        # the minimum 10, so "mincount" lowers its bound during the walk
        GramLattice([[12, 1, 3, -1], [1, 12, -6, 2], [3, -6, 11, -6],
                     [-1, 2, -6, 11]]),
    ]


def test_kernel_matches_reference_walk(monkeypatch):
    """Both kernels give the reference's results, in every mode, on parity
    walks and on the coset walks of least_vector; the Python kernel visits
    the reference's nodes and the batched kernel keeps check_batched's rule."""
    rng = random.Random(131)
    lats = kernel_corpus(rng)
    seen = set()
    for lat in lats:
        n = lat.dim
        m = minimum(lat)
        parity = tuple(rng.randint(0, 1) for _ in range(n - 1)) + (1,)
        for par in (None, parity):
            for payload in kernel_payloads(lat, m + 2, par):
                mode = payload["mode"]
                visits = []
                want = ref_walk(payload, visits), len(visits)
                assert walked(shortvec._walk, payload) == want, mode
                check_batched(payload, want)
                if want[0][1] if mode == "mincount" else want[0]:
                    seen.add(mode)
    assert seen == {"le", "shell", "first", "count", "mincount"}

    # the coset walks of least_vector: a prefix held at 1 on top, e_i, then
    # a reduced block, in a basis that is not reduced as a whole
    walks = []
    walk = shortvec._walk

    def captured(payload):
        walks.append(payload)
        return walk(payload)

    monkeypatch.setattr(shortvec, "_walk", captured)
    for lat in lats:
        m = minimum(lat)
        for r in (m, m + 2):
            shortvec.least_vector(lat, r)
    monkeypatch.undo()
    assert any(payload["tops"] == [1] for payload in walks)
    # these bases are reduced below their top two levels only, so their
    # leading minors are large, and a few walks pass the int64 bound: the
    # batched kernel then walks their whole shells in Python integers
    past = 0
    for payload in walks:
        visits = []
        want = ref_walk(payload, visits), len(visits)
        assert walked(shortvec._walk, payload) == want
        check_batched(payload, want)
        whole = dict(payload, mode="shell")
        check_batched(whole, walked(shortvec._walk, whole))
        past += number_type(payload) is object
    assert 0 < past < len(walks)


@pytest.mark.parametrize("budget, batch", [(shortvec._BUDGET, shortvec._BATCH),
                                           (0, shortvec._BATCH), (0, 2)])
def test_mincount_leaves_match_reference_walk(monkeypatch, budget, batch):
    """"mincount" counts the leaves at its running best norm and restarts
    the count when a leaf lowers that bound.  On bases whose first leaf lies
    above the minimum, both kernels, and the dispatch with every walk
    batched or not, give the reference's best and its number of leaves
    there, with node counts as check_batched allows; batches of two rows
    make the batched kernel hold counts from earlier steps when it
    restarts."""
    monkeypatch.setattr(shortvec, "_BUDGET", budget)
    monkeypatch.setattr(shortvec, "_BATCH", batch)
    rng = random.Random(109)
    dropped = 0
    while dropped < 5:
        lat = near_reduced_gram(rng, rng.randint(2, 6))
        for payload in kernel_payloads(lat, 1, None):
            if payload["mode"] != "mincount":
                continue
            visits = []
            want = ref_walk(payload, visits), len(visits)
            assert walked(shortvec._walk, payload) == want
            check_batched(payload, want)
            assert listed("mincount", shortvec._search_chunk(payload)) == want[0]
            # the first leaf of the walk, taken before any bound is lowered
            first = ref_walk(dict(payload, mode="le"))[:1]
            dropped += bool(first) and first[0][0] > want[0][0]


def test_coordinate_bounds_match_reference():
    """The bounds from RatMatrix.inverse are the scaled-integer ones of the
    lcm form, on the kernel corpus and on Leech, whose walk coordinates they
    keep in int8."""
    for lat in kernel_corpus(random.Random(131)) + [leech().lattice]:
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
    """Batches of one to a few rows split every level; with a lowered
    "mincount" bound and a "first" hit among them, the batched kernel must
    still give the Python kernel's results, with node counts as
    check_batched allows."""
    rng = random.Random(149)
    lowered = batched = 0
    for _ in range(30):
        lat = near_reduced_gram(rng, rng.randint(2, 6))
        m = minimum(lat)
        parity = tuple(rng.randint(0, 1) for _ in range(lat.dim - 1)) + (1,)
        for par in (None, parity):
            for payload in kernel_payloads(lat, m + 2, par):
                want = walked(shortvec._walk, payload)
                for size in (1, 2, 3, 64):
                    monkeypatch.setattr(shortvec, "_BATCH", size)
                    check_batched(payload, want)
                batched += 1
                lowered += payload["mode"] == "mincount" and want[0][0] < payload["limit"]
    assert lowered and batched > 500


def test_batched_kernel_answers_an_empty_top_level(monkeypatch):
    """With no top-level value inside the bound, the batched kernel gives
    the empty result of each of its four modes itself, without the Python
    kernel."""
    def refuse(payload):
        raise AssertionError("Python kernel entered")

    payloads = [payload for lat in (root_lattice("E", 8).lattice, GramLattice([[3]]))
                for payload in kernel_payloads(lat, minimum(lat), None)
                if payload["mode"] != "first"]
    monkeypatch.setattr(shortvec, "_walk", refuse)
    for payload in payloads:
        top = shortvec._top_values(payload["delta"], payload["limit"], None)
        for tops in ([], [top[-1] + 1]):  # none, or none inside the bound
            empty = dict(payload, tops=tops)
            assert walked(shortvec._batched_walk, empty) == (ref_walk(empty), 0)


def test_batched_kernel_takes_top_level_values_in_any_order():
    """The batched kernel finds the zero-prefix row, to which alone the sign
    rule applies, by walking the top-level value 0 first, so the order of
    payload["tops"] does not matter: shuffled, with negative values among
    them, it gives _walk's results on the same payload, leaves in another
    order, and _walk's node counts wherever the bound never lowers."""
    rng = random.Random(157)
    for lat in kernel_corpus(rng)[::3]:
        m = minimum(lat)
        for payload in kernel_payloads(lat, m + 2, None):
            if payload["mode"] == "first":
                continue
            tops = payload["tops"] + [-t for t in payload["tops"] if t]
            rng.shuffle(tops)
            mixed = dict(payload, tops=tops)
            want = walked(shortvec._walk, mixed)
            got = walked(shortvec._batched_walk, mixed)
            if payload["mode"] in ("le", "shell"):
                want, got = (sorted(want[0]), want[1]), (sorted(got[0]), got[1])
            assert got[0] == want[0]
            if payload["mode"] != "mincount" or want[0][0] == payload["limit"]:
                assert got[1] == want[1]


def leech_min_payload():
    prep = shortvec._prep(leech().lattice)
    limit = prep.seed
    return {"n": prep.n, "delta": prep.delta, "sub": prep.sub,
            "parity": None, "mode": "mincount", "limit": limit,
            "tops": shortvec._top_values(prep.delta, limit, None)}


def test_batched_kernel_visits_the_leech_minimum_walk():
    # "mincount" at the seed 4: 1,971,697 nodes below the top level, the
    # count of the reference walk (test_leech_minimum_walk_matches_reference)
    # and of the Python kernel; the walk one grain below it, which alone
    # proves the minimum, has 14,978 and finds nothing
    payload = leech_min_payload()
    assert shortvec._batched_walk(payload) == ((4, 98_280), 1_971_697)
    proof = dict(payload, limit=2, tops=shortvec._top_values(payload["delta"], 2, None))
    assert shortvec._batched_walk(proof) == shortvec._walk(proof) == ((2, 0), 14_978)


@pytest.mark.slow
def test_leech_minimum_walk_matches_reference():
    payload = leech_min_payload()
    visits = []
    want = ref_walk(payload, visits), len(visits)
    assert want[1] == 1_971_697
    assert walked(shortvec._walk, payload) == walked(shortvec._batched_walk, payload) == want


def test_batched_kernel_walks_past_the_int64_bound(monkeypatch):
    """Walks whose numbers may pass 2**62 run the batched kernel on Python
    integers, with the reference's results and node counts as
    check_batched allows."""
    big = past_int64()
    payloads = list(kernel_payloads(big, minimum(big) + 2**41, None))
    assert {number_type(payload) for payload in payloads} == {object}
    monkeypatch.setattr(shortvec, "_BUDGET", 1)  # every walk forecasts past it
    for payload in payloads:
        visits = []
        want = ref_walk(payload, visits), len(visits)
        check_batched(payload, want)
        if payload["mode"] == "first":  # least_vector's, run in the Python kernel alone
            assert walked(shortvec._walk, payload) == want
        else:
            assert listed(payload["mode"], shortvec._search_chunk(payload)) == want[0]


def test_content_is_divided_out_of_the_walk():
    """D5 scaled by 2**40 has entries past int64 but content 2**40: it walks
    on D5's data, in int32, and its norms come out scaled back."""
    d5 = root_lattice("D", 5).lattice
    big = GramLattice([[2**40 * a for a in row] for row in d5.gram.num.rows])
    prep, small = shortvec._prep(big), shortvec._prep(d5)
    assert (prep.u, prep.delta, prep.sub, prep.seed) == (small.u, small.delta, small.sub, small.seed)
    assert prep.den == QQ(1, 2**40)
    payloads = list(kernel_payloads(big, minimum(big) + 2**41, None))
    assert {number_type(payload) for payload in payloads} == {np.int32}
    le = next(p for p in payloads if p["mode"] == "le")
    assert shortvec._batched_walk(le)[0].dtype == np.int32
    assert minimum(big) == 2**41
    assert shell(big, 2**41) == shell(d5, 2)
    assert shell_count(big, 2**42) == shell_count(d5, 4) > 0
    assert vectors_upto(big, 2**42) == [(2**40 * a, v) for a, v in vectors_upto(d5, 4)]
    assert coset_minimum(big, (1, 0, 0, 0, 1)) == 2**40 * coset_minimum(d5, (1, 0, 0, 0, 1))
    assert shortvec.least_vector(big, 2**42) == shortvec.least_vector(d5, 4)


def refuse(payload):
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
    monkeypatch.setattr(shortvec, "_search_chunk", refuse)
    monkeypatch.setattr(shortvec, "_walk", refuse)  # least_vector's kernel
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
    monkeypatch.setattr(shortvec, "_search_chunk", refuse)
    monkeypatch.setattr(shortvec, "_walk", refuse)
    assert shortvec.least_vector(lech, 3) is None and shortvec.least_vector(lech, 2) is None
    assert shell_count(lech, 2) == 0 and shell(lech, 2) == ()


def test_vectors_upto_walks_at_a_multiple_of_the_grain(monkeypatch):
    """vectors_upto(E8, 3) walks "le" at 2, the largest even norm up to 3,
    and lists the 120 roots as at 2; at 1, below the grain, the walk is at
    0 and lists nothing."""
    e8 = root_lattice("E", 8).lattice
    walks = []
    search = shortvec._search_chunk

    def counted(payload):
        walks.append((payload["mode"], payload["limit"]))
        return search(payload)

    monkeypatch.setattr(shortvec, "_search_chunk", counted)
    upto = vectors_upto(e8, 3)
    assert walks == [("le", 2)]
    assert upto == vectors_upto(e8, 2) == [(QQ(2), v) for v in shell(e8, 2)]
    assert vectors_upto(e8, QQ(7, 2)) == upto and vectors_upto(e8, 1) == []
    assert walks[-2:] == [("le", 2), ("le", 0)]


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
        payload = {"n": prep.n, "delta": prep.delta, "sub": prep.sub, "parity": pr,
                   "mode": "shell", "limit": r,
                   "tops": shortvec._top_values(prep.delta, r, pr)}
        assert number_type(payload) is np.int32
        want = walked(shortvec._walk, payload)
        assert len(want[0]) == pairs and walked(shortvec._batched_walk, payload) == want
    u, _ = benchmark_inputs().unimodular(random.Random(2), lat.dim)
    skew = shortvec._prep(GramLattice(gram_product(u, lat.gram.num.rows)))
    payload = dict(leech_min_payload(), delta=skew.delta, sub=skew.sub,
                   tops=shortvec._top_values(skew.delta, 4, None))
    assert number_type(payload) is np.int32
    assert shortvec._batched_walk(payload)[0] == (4, 98_280)


def test_int32_walks_stop_at_the_proven_bound():
    """_walk_types takes int32 while 2 delta_k delta_{k+1} limit stays below
    2**30, and int64 from there: on (120 1; 1 120), whose walks have centre
    sums far below 2**30, the last limit in int32 and the first past it.
    Both walks, where kv**2 reaches 2**29, give the Python kernel's results
    and node counts."""
    lat = GramLattice([[120, 1], [1, 120]])
    prep = shortvec._prep(lat)
    last = (2**30 - 1) // (2 * max(a * b for a, b in zip(prep.delta, prep.delta[1:])))
    for limit, num in ((last, np.int32), (last + 1, np.int64)):
        for mode in ("le", "count"):
            payload = {"n": prep.n, "delta": prep.delta, "sub": prep.sub, "parity": None,
                       "mode": mode, "limit": limit,
                       "tops": shortvec._top_values(prep.delta, limit, None)}
            assert number_type(payload) is num
            assert walked(shortvec._batched_walk, payload) == walked(shortvec._walk, payload)


def test_small_walks_never_enter_the_batched_kernel(monkeypatch):
    """The E8 walks at norms 2 and 4 forecast and walk at most _BUDGET
    nodes (1,511 for the whole norm-4 walk), so the Python kernel takes
    them all."""
    def refuse(payload):
        raise AssertionError("batched kernel entered")

    monkeypatch.setattr(shortvec, "_batched_walk", refuse)
    e8 = root_lattice("E", 8).lattice
    for r in (2, 4):
        for payload in kernel_payloads(e8, r, None):
            assert shortvec._walk(payload)[1] <= shortvec._BUDGET
            got = shortvec._search_chunk(payload)
            assert listed(payload["mode"], got) == ref_walk(payload)
    shortvec._coset_shell.cache_clear()
    assert len(shell(e8, 2)) == 120


def test_walks_past_the_budget_match_the_python_kernel(monkeypatch):
    """The forecast alone picks the kernel: a walk whose forecast passes the
    budget goes to the batched kernel, any other to the Python kernel,
    however many nodes it walks there.  Either way the result is the Python
    kernel's.  E8's norm-8 walks forecast 16,831 nodes against the default
    budget; at a budget of 100 so do its "mincount" walks (forecast 175, 247
    nodes when whole).  D16's norm-2 walks (forecast 392, 1,228 nodes when
    whole) stay in the Python kernel at a budget of 1,000."""
    entered = []
    batched, walk = shortvec._batched_walk, shortvec._walk
    monkeypatch.setattr(shortvec, "_batched_walk", lambda p: entered.append("batched") or batched(p))
    monkeypatch.setattr(shortvec, "_walk", lambda p: entered.append("walk") or walk(p))
    e8, d16 = root_lattice("E", 8).lattice, root_lattice("D", 16).lattice
    forecast, long = set(), set()
    for budget, lat, r in ((shortvec._BUDGET, e8, 8), (100, e8, 6), (1000, d16, 2)):
        monkeypatch.setattr(shortvec, "_BUDGET", budget)
        for payload in kernel_payloads(lat, r, None):
            mode = payload["mode"]
            if mode == "first":  # least_vector's, run in the Python kernel alone
                continue
            alone = walk(payload)
            entered.clear()
            got = shortvec._search_chunk(payload)
            over = shortvec._forecast(payload) > budget
            assert entered == ["batched" if over else "walk"]
            assert listed(mode, got) == listed(mode, alone[0])
            if over:
                forecast.add(mode)
            elif alone[1] > budget:
                long.add(mode)
    assert forecast == long == {"le", "shell", "count", "mincount"}


def test_leech_walks_go_straight_to_the_batched_kernel(monkeypatch):
    """The leech-cli walks forecast past _BUDGET and enter the batched
    kernel alone: the minimum's walk at norm 2, the count of the minimal
    pairs and the class shell of x0 at norm 10 in int32, and the relative
    lattice's vectors_upto, which dividing out the content 2 of its Gram
    puts in int64 (its bound is 2**53.2)."""
    from eqlat.mod2 import relative_lattice

    def refuse(payload):
        raise AssertionError("Python kernel entered")

    entered = []
    batched = shortvec._batched_walk

    def spy(payload):
        types = shortvec._walk_types(payload["delta"], payload["sub"], payload["limit"])
        entered.append((payload["mode"], types[0], shortvec._forecast(payload)))
        return batched(payload)

    big = leech()
    lat, x0 = big.lattice, big.marks["x0"]
    relative = relative_lattice(lat, x0).induced
    assert shortvec._prep(relative).den == QQ(1, 2)
    for cache in (shortvec._min_count, shortvec._coset_shell):
        cache.cache_clear()
    monkeypatch.setattr(shortvec, "_walk", refuse)
    monkeypatch.setattr(shortvec, "_batched_walk", spy)
    assert minimum(lat) == 4
    assert shell_count(lat, 4) == 98_280
    assert len(coset_shell(lat, x0, 10)) == 276
    assert len(vectors_upto(relative, 16 - lat.norm(x0))) > 0
    assert [(mode, num) for mode, num, _ in entered] == [
        ("mincount", np.int32), ("count", np.int32), ("shell", np.int32), ("le", np.int64)]
    assert all(f > shortvec._BUDGET for *_, f in entered)


def test_first_walks_never_enter_the_batched_kernel(monkeypatch):
    """A "first" walk stops at its first leaf, so the forecast of its whole
    tree says nothing of its cost: least_vector runs its walks in the Python
    kernel, also where that forecast passes _BUDGET, as on Leech, and where
    the walk is long, as the 40,433-node walk at norm 4 of Leech in the
    seed-7 skewed basis.  The batched kernel refuses a "first" walk."""
    from test_mod2 import skewed_basis

    first = dict(leech_min_payload(), mode="first", limit=4)
    assert shortvec._forecast(first) > shortvec._BUDGET
    with pytest.raises(ValueError):
        shortvec._batched_walk(first)
    walked_nodes, batched_modes = [], []
    walk, batched = shortvec._walk, shortvec._batched_walk

    def counted(payload):
        found = walk(payload)
        walked_nodes.append((payload["mode"], found[1]))
        return found

    monkeypatch.setattr(shortvec, "_walk", counted)
    monkeypatch.setattr(shortvec, "_batched_walk",
                        lambda payload: batched_modes.append(payload["mode"]) or batched(payload))
    lat = leech().lattice
    assert shortvec.least_vector(lat, 6) is not None
    skew = skewed_basis(lat, random.Random(7))
    assert shortvec.least_vector(skew, 4) is not None
    assert "first" not in batched_modes
    assert ("first", 40_433) in walked_nodes


def test_each_walk_enters_one_kernel(monkeypatch):
    """Every walk runs in exactly one kernel: _search_chunk sends it to the
    one its forecast names, and least_vector's "first" walks go to the
    Python kernel alone; on the kernel corpus, E8 and Leech."""
    entered, calls = [], []
    chunk, walk, batched = shortvec._search_chunk, shortvec._walk, shortvec._batched_walk

    def searched(payload):
        start = len(entered)
        found = chunk(payload)
        calls.append((entered[start:], shortvec._forecast(payload)))
        return found

    monkeypatch.setattr(shortvec, "_search_chunk", searched)
    monkeypatch.setattr(shortvec, "_walk",
                        lambda payload: entered.append(("walk", payload["mode"])) or walk(payload))
    monkeypatch.setattr(shortvec, "_batched_walk",
                        lambda payload: entered.append(("batched", payload["mode"])) or batched(payload))
    for cache in (shortvec._min_count, shortvec._coset_shell):
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
    for kernels, forecast in calls:
        assert [name for name, _ in kernels] == ["batched" if forecast > shortvec._BUDGET else "walk"]
    firsts = [k for k in entered if k[1] == "first"]
    assert len(entered) == len(calls) + len(firsts)
    assert firsts and all(name == "walk" for name, _ in firsts)
    assert {kernels[0][0] for kernels, _ in calls} == {"walk", "batched"}


@pytest.mark.parametrize("name, r, nodes", [("Leech", 4, 1_971_697), ("E8", 4, 1_511),
                                           ("A16", 6, 240_676), ("D16", 2, 1_228)])
def test_forecast_is_near_the_node_count(name, r, nodes):
    """The Gaussian-heuristic forecast lies within a factor of 4 of the
    nodes of the whole "count" walk."""
    lat = leech().lattice if name == "Leech" else root_lattice(name[0], int(name[1:])).lattice
    payload = next(p for p in kernel_payloads(lat, r, None) if p["mode"] == "count")
    assert shortvec._batched_walk(payload)[1] == nodes
    assert nodes / 4 < shortvec._forecast(payload) < 4 * nodes


@pytest.mark.parametrize("budget", [shortvec._BUDGET, 0])
def test_entries_past_int64_stay_exact(monkeypatch, budget):
    """Walk coordinates, scaled norms and input-basis coordinates past 2**63
    come out exact from either kernel (budget 0 sends every walk to the
    batched kernel by its forecast)."""
    monkeypatch.setattr(shortvec, "_BUDGET", budget)
    for cache in (shortvec._prep, shortvec._coset_shell, shortvec._min_count):
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


class SerialPool:
    """ProcessPoolExecutor's stand-in: it maps in this process and records
    [max_workers, jobs] of each pool made in SerialPool.made."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append([max_workers])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.made[-1].append(len(jobs))
        return map(fn, jobs)


def test_workers_never_exceed_the_cores(monkeypatch):
    """A walk with 1,001 top-level values on 3 CPUs starts one worker per
    CPU, not one per value; the pool here maps serially."""
    pools = []
    monkeypatch.setattr(SerialPool, "made", pools)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    allow_cpus(monkeypatch, 3)
    monkeypatch.setattr(shortvec, "_SPLIT", 0)  # the walks forecast 1,000 nodes
    line = GramLattice([[1]])
    shortvec._coset_shell.cache_clear()
    assert shell(line, 10**6) == ((1000,),)
    found = vectors_upto(line, 10**6)
    assert len(found) == 1000 and found[-1] == (10**6, (1000,))
    assert pools == [[3, 3], [3, 3]]


def test_only_walks_forecast_past_the_split_start_a_pool(monkeypatch):
    """On two CPUs, a walk whose forecast is at most _SPLIT runs in this
    process and one past it starts a pool, with the same count: E8's
    norm-8 count walk against _SPLIT just above and just below its
    forecast.  At the default, the Leech norm-4 walk, the largest of any
    benchmark workload, stays below it, and D16's norm-10 count, measured
    to gain from two workers in fresh processes, passes it."""
    pools = []
    monkeypatch.setattr(SerialPool, "made", pools)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    allow_cpus(monkeypatch, 2)
    prep = shortvec._prep(root_lattice("E", 8).lattice)
    forecast = shortvec._forecast({"n": prep.n, "delta": prep.delta, "limit": 8, "parity": None})
    for split, made in ((math.ceil(forecast), []), (math.floor(forecast), [[2, 2]])):
        monkeypatch.setattr(shortvec, "_SPLIT", split)
        pools.clear()
        assert shortvec._run(prep, "count", 8, None) == 8760
        assert pools == made
    monkeypatch.undo()
    d16 = shortvec._prep(root_lattice("D", 16).lattice)
    d16_forecast = shortvec._forecast({"n": d16.n, "delta": d16.delta, "limit": 10, "parity": None})
    assert shortvec._forecast(leech_min_payload()) < shortvec._SPLIT < d16_forecast


def test_no_pool_for_mincount_in_a_daemon_or_on_one_cpu(monkeypatch):
    """Past _SPLIT, each of these walks in this process: a "mincount" walk,
    whose workers could not share the bound it lowers (split on two CPUs,
    coset_minimum(Leech, x0 mod 2) took about twice as long); any walk of a
    daemonic process, which may start no children (a multiprocessing.Pool
    worker raises AssertionError when it tries); and any walk of a process
    on one CPU, which gains nothing from a second worker."""
    pools = []
    monkeypatch.setattr(SerialPool, "made", pools)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(shortvec, "_SPLIT", 0)
    prep = shortvec._prep(root_lattice("E", 8).lattice)
    allow_cpus(monkeypatch, 1)
    assert shortvec._run(prep, "count", 8, None) == 8760
    allow_cpus(monkeypatch, 2)
    assert shortvec._run(prep, "mincount", 8, None) == (2, 120)
    monkeypatch.setattr(multiprocessing, "current_process", lambda: types.SimpleNamespace(daemon=True))
    assert shortvec._run(prep, "count", 8, None) == 8760
    assert pools == []
    monkeypatch.setattr(multiprocessing, "current_process", lambda: types.SimpleNamespace(daemon=False))
    assert shortvec._run(prep, "count", 8, None) == 8760
    assert pools == [[2, 2]]
