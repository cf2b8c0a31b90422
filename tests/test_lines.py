"""Line families, Seidel matrices, spectra, and the bound suite."""

import dataclasses
import importlib.util
import random
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    berkowitz,
    cauchy_bound,
    poly_from_roots,
    ref_krylov_annihilator,
    ref_least_check,
    ref_poly_at_matrix,
)

from eqlat.errors import (
    BadParameter,
    DegeneratePair,
    MixedNorms,
    NotApplicable,
    NotEquiangular,
    NotIntegral,
)
from eqlat import exact, lines
from eqlat.exact import (
    IntMatrix,
    poly_eval,
    poly_linear_power,
    poly_mul,
    root_multiplicity,
)
from eqlat.fastops import imatmul_array
from eqlat.lattice import GramLattice
from eqlat.lines import (
    KNOWN_MAX_LINES,
    LineFamily,
    SeidelMatrix,
    absolute_bound,
    asymptotic_count,
    certify,
    family_charpoly,
    least_eigenvalue,
    line_family,
    neumann_check,
    relative_bound,
    seidel,
    seidel_charpoly,
)
from eqlat.mod2 import equiangular_direct
from eqlat.shortvec import PairSet, shell

A2 = GramLattice([[2, 1], [1, 2]])
A3 = GramLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
A4 = GramLattice([[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]])
D5 = GramLattice(
    [
        [2, 0, 1, 0, 0],
        [0, 2, 1, 0, 0],
        [1, 1, 2, 1, 0],
        [0, 0, 1, 2, 1],
        [0, 0, 0, 1, 2],
    ]
)
E8 = GramLattice(
    [
        [4, -2, 0, 0, 0, 0, 0, 1],
        [-2, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [1, 0, 0, 0, 0, 0, 0, 2],
    ]
)


def hexagon():
    return line_family(A2, shell(A2, 2))


def e8_family():
    es = equiangular_direct(E8)
    return line_family(E8, es.pairs)


def test_line_family_hexagon():
    fam = hexagon()
    assert (fam.t, fam.rank) == (3, 2)
    assert fam.c == 1 and fam.alpha == Fraction(1, 2)
    assert len(fam) == 3


def test_line_family_e8():
    fam = e8_family()
    assert (fam.t, fam.rank, fam.alpha) == (28, 7, Fraction(1, 3))
    assert fam.pairs.norm == 6 and fam.c == 2


def test_line_family_single_pair_has_no_angle():
    fam = line_family(A2, [(1, 0)])
    assert (fam.t, fam.rank, fam.alpha, fam.c) == (1, 1, None, None)
    with pytest.raises(DegeneratePair):
        seidel(fam)


def test_line_family_empty():
    fam = line_family(A2, [])
    assert (fam.t, fam.rank, fam.alpha) == (0, 0, None)


def test_line_family_rejects_root_system():
    with pytest.raises(NotEquiangular, match="pairs"):
        line_family(A3, shell(A3, 2))


def test_line_family_rejects_beyond_gerzon_without_products(monkeypatch):
    # 120 pairs in rank 8 exceed 8 * 9 / 2 = 36: no pairwise product is formed
    def no_product(a, b):
        raise AssertionError("formed the t x t product")

    monkeypatch.setattr(lines, "gram_array", no_product)
    with pytest.raises(NotEquiangular, match="Gerzon's bound 36 in rank 8"):
        line_family(E8, shell(E8, 2))


@pytest.mark.parametrize("lat", [A4, D5, E8], ids=["A4", "D5", "E8"])
def test_class_family_is_a_line_family(lat):
    es = equiangular_direct(lat)
    assert isinstance(es, LineFamily)
    assert certify(es) == certify(line_family(lat, es.pairs))


def test_line_family_rejects_orthogonal_frame():
    z2 = GramLattice([[1, 0], [0, 1]])
    with pytest.raises(NotEquiangular, match="orthogonal"):
        line_family(z2, [(1, 0), (0, 1)])


def test_line_family_rejects_mixed_norms():
    with pytest.raises(MixedNorms):
        line_family(A2, [(1, 0), (1, 1)])


def test_line_family_rejects_foreign_pair_set():
    pairs = PairSet(A3, [(1, 0, 0)])
    with pytest.raises(BadParameter):
        line_family(A2, pairs)


def test_seidel_hexagon_matrix():
    s = seidel(hexagon())
    # canonical representatives (0,1), (1,-1), (1,0)
    assert s.rows == ((0, -1, 1), (-1, 0, 1), (1, 1, 0))
    assert seidel_charpoly(s) == [2, -3, 0, 1]
    assert least_eigenvalue(s) == (-2, -2)


def test_seidel_sign_is_sign_of_inner_product():
    lat = GramLattice([[6, 2], [2, 6]])
    fam = line_family(lat, [(1, 0), (0, 1)])
    assert fam.alpha == Fraction(1, 3)
    assert seidel(fam).rows == ((0, 1), (1, 0))


def test_seidel_matrix_validation():
    with pytest.raises(BadParameter, match="square"):
        SeidelMatrix([[0, 1]])
    with pytest.raises(BadParameter, match="diagonal"):
        SeidelMatrix([[1, 1], [1, 0]])
    with pytest.raises(BadParameter, match="not \\+-1"):
        SeidelMatrix([[0, 2], [2, 0]])
    with pytest.raises(BadParameter, match="asymmetry"):
        SeidelMatrix([[0, 1], [-1, 0]])


def test_seidel_matrix_rejects_a_value_without_rows():
    # the row scan iterated 5 and raised a bare TypeError
    for bad in (5, None, np.array(5)):
        with pytest.raises(BadParameter, match="not a sequence of rows"):
            SeidelMatrix(bad)
    with pytest.raises(BadParameter, match="square"):
        SeidelMatrix([[0, 1], [1, 0, 1]])  # ragged rows keep their error


def test_seidel_matrix_rejects_non_integer_entries():
    # int() alone read the first as [[0, 1], [1, 0]], with charpoly x^2 - 1
    for bad in (1.5, "1", Fraction(1, 2)):
        with pytest.raises(NotIntegral, match="not all integers"):
            SeidelMatrix([[0, bad], [bad, 0]])
    assert SeidelMatrix([[0, 1.0], [Fraction(1), 0]]).rows == ((0, 1), (1, 0))


def test_seidel_matrix_keeps_one_read_only_array():
    rows = [[0, 1, -1], [1, 0, 1], [-1, 1, 0]]
    s = SeidelMatrix(rows)
    assert s.array.dtype == np.int8 and not s.array.flags.writeable
    assert s.rows == tuple(map(tuple, rows)) and len(s) == 3
    same = SeidelMatrix(np.array(rows, dtype=np.int64))
    assert s == same and hash(s) == hash(same) and len({s, same}) == 1
    assert s != SeidelMatrix([[0, 1], [1, 0]]) and s != rows
    with pytest.raises(ValueError):
        s.array[0, 1] = -1
    with pytest.raises(BadParameter):
        SeidelMatrix([[0, 1], []])  # the entry scan raised IndexError here


def test_annihilates_is_exact_past_int64(monkeypatch):
    # J - I on 5 lines has minimal polynomial (x - 4)(x + 1); coefficients
    # past 2**62 put the Horner sums on Python integers, where 2**64 I is
    # not the zero that int64 wraparound would make of it.  J - I is a
    # Seidel matrix, so every case first asks the sign-bit square, which
    # answers while |p[-1]| (t - 1) + |p[-2]| < 2**62 and declines past it
    answered = []
    sign_square = lines._sign_square

    def recorded(s, a, b):
        answered.append(sign_square(s, a, b) is not None)
        return sign_square(s, a, b)

    monkeypatch.setattr(lines, "_sign_square", recorded)
    s = [[int(i != j) for j in range(5)] for i in range(5)]
    m = [-4, -3, 1]
    big = poly_mul(m, [-(2**63), 1])
    cases = [
        (m, True),
        (big, True),
        ([big[0] + 2**64] + big[1:], False),
        ([2**70 * c for c in m], True),
        ([2**70 * c for c in m[:-1]] + [2**70 + 2**64], False),
        ([2**64] + m[1:], False),
    ]
    for p, annihilates in cases:
        value = ref_poly_at_matrix(s, p)
        assert (not any(map(any, value))) is annihilates
        answered.clear()
        assert lines._annihilates(s, p) is annihilates
        assert lines._annihilates(np.array(s), p) is annihilates
        assert lines._annihilates(SeidelMatrix(s).array, p) is annihilates
        assert answered == [abs(p[-1]) * 4 + abs(p[-2]) < 2**62] * 3
    # J - I on 131 lines: (x - 130)(x + 1) = x^2 - 129x - 130, whose
    # coefficients leave int8, so no multiply may be in the int8 of the array
    s = SeidelMatrix([[int(i != j) for j in range(131)] for i in range(131)]).array
    answered.clear()
    assert lines._annihilates(s, [-130, -129, 1])
    assert not lines._annihilates(s, [-130, -128, 1])
    assert answered == [True, True]


def test_sign_square_matches_products():
    # p[-1] S^2 + p[-2] S from sign bits equals imatmul_array's S S, and
    # the plain triple loop of the oracle on the smaller matrices, for t on
    # both sides of the 64-bit word; past 2**62, on a matrix that is not
    # Seidel or on Python integers, it declines and Horner keeps imatmul_array
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient = st.one_of(st.integers(-300, 300), st.integers(-(2**63), 2**63))
    fault = st.sampled_from([None, "diagonal", "entry", "asymmetry"])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.one_of(st.integers(1, 130), st.sampled_from((63, 64, 65))),
                      coefficient, coefficient, fault, st.integers(0, 2**32))
    def check(t, a, b, fault, seed):
        rng = random.Random(seed)
        s = random_seidel(rng, t).array.copy()
        if fault and t > 1:
            i, j = rng.sample(range(t), 2)
            if fault == "diagonal":
                s[i, i] = rng.choice((-1, 1))
            elif fault == "entry":
                s[i, j] = s[j, i] = rng.choice((-2, 0, 2))
            else:
                s[i, j] = -s[i, j]
        want = imatmul_array(s, s).astype(object) * a + s.astype(object) * b
        if t <= 24:
            assert want.tolist() == ref_poly_at_matrix(s.tolist(), [0, b, a])
        for given in (s, s.astype(np.int64)):
            got = lines._sign_square(given, a, b)
            if fault and t > 1 or abs(a) * max(t - 1, 1) + abs(b) >= 2**62:
                assert got is None
            else:
                assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert lines._sign_square(s.astype(object), a, b) is None  # Horner's object path

    check()


def test_family_charpoly_matches_direct_computation():
    for fam in (hexagon(), line_family(D5, equiangular_direct(D5).pairs)):
        direct = berkowitz(IntMatrix([list(r) for r in seidel(fam).rows]))
        assert family_charpoly(fam) == direct


def test_family_charpoly_rational_gram():
    half = A2.rescale(Fraction(1, 2))
    fam = line_family(half, shell(half, 1))
    assert fam.alpha == Fraction(1, 2)
    direct = berkowitz(IntMatrix([list(r) for r in seidel(fam).rows]))
    assert family_charpoly(fam) == direct


def test_e8_spectrum():
    fam = e8_family()
    s = seidel(fam)
    assert least_eigenvalue(s) == (-3, -3)
    p = family_charpoly(fam)
    assert root_multiplicity(p, Fraction(-3)) == 21  # t - r
    assert p == [Fraction(c) for c in seidel_charpoly(s)]


def test_all_plus_matrix_least_eigenvalue():
    t = 6
    s = SeidelMatrix([[0 if i == j else 1 for j in range(t)] for i in range(t)])
    assert least_eigenvalue(s) == (-1, -1)


def test_charpoly_large_structured_matrix():
    # exceeds the Berkowitz cutoff, so this runs the verified minimal
    # polynomial route: J - I has spectrum {t-1, -1^(t-1)}
    t = 80
    s = SeidelMatrix([[0 if i == j else 1 for j in range(t)] for i in range(t)])
    p = seidel_charpoly(s)
    assert len(p) == t + 1 and p[-1] == 1
    assert root_multiplicity(p, Fraction(-1)) == t - 1
    assert poly_eval(p, t - 1) == 0
    assert least_eigenvalue(s) == (-1, -1)


def test_seidel_charpoly_past_int8_coefficients():
    # the minimal-polynomial route on J - I, t = 131: x^2 - 129x - 130 has
    # coefficients outside int8, the type of the Seidel array
    t = 131
    s = SeidelMatrix([[int(i != j) for j in range(t)] for i in range(t)])
    assert seidel_charpoly(s) == poly_mul(poly_linear_power(t - 1, 1),
                                          poly_linear_power(-1, t - 1))
    assert least_eigenvalue(s) == (-1, -1)


def random_seidel(rng, t):
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            rows[i][j] = rows[j][i] = rng.choice((-1, 1))
    return SeidelMatrix(rows)


def clique_seidel(k):
    """Seidel matrix of disjoint cliques of sizes 1..k: -1 inside, +1 across.

    Its minimal polynomial has degree k + 1 and, for k >= 2, roots that are
    not all integers, so the minimal-polynomial route must give up on it.
    """
    label = [c for c in range(k) for _ in range(c + 1)]
    return [[0 if i == j else -1 if a == b else 1 for j, b in enumerate(label)]
            for i, a in enumerate(label)]


def benchmark_inputs():
    """benchmark/inputs.py, which builds the Witt lines without eqlat."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_minpoly_route_matches_fraction_krylov(monkeypatch):
    # every annihilator the integer route computes equals the Fraction
    # iteration's, [] on both sides at the cap, and the route still proves
    # (x + 5)^253 (x - 55)^23 for Witt and gives up on the rest
    inputs = benchmark_inputs()
    witt = inputs.seidel_of(inputs.witt_lines()[1])
    switched = inputs.switch(witt, *inputs.signed_permutation(random.Random(5), 276))
    spectrum = poly_mul(poly_linear_power(-5, 253), poly_linear_power(55, 23))
    corpus = [(witt, spectrum), (switched, spectrum)]
    corpus += [(clique_seidel(k), None) for k in range(6, 13)]
    corpus += [(random_seidel(random.Random(t), t).rows, None) for t in (30, 55, 80)]
    krylov, seen = lines._krylov_annihilator, []

    def checked(rows, start):
        ann = krylov(rows, start)
        assert ann == ref_krylov_annihilator(rows, start)
        seen.append(bool(ann))
        return ann

    monkeypatch.setattr(lines, "_krylov_annihilator", checked)
    for rows, expected in corpus:
        assert lines._charpoly_via_minpoly(rows) == expected
    assert len(seen) >= len(corpus) and True in seen and False in seen


def test_integer_roots_scan_is_bounded():
    # degree 17 with a 61-bit constant term and no integer root: trial
    # division up to sqrt|p(0)| would take about 10^9 steps
    p = [2**60 + 1] + [0] * 16 + [1]
    start = time.perf_counter()
    assert lines._integer_roots(p, 135) is None
    assert time.perf_counter() - start < 1.0
    split = poly_mul(poly_linear_power(-5, 1), poly_linear_power(55, 1))
    assert lines._integer_roots(split, 275) == [-5, 55]
    assert lines._integer_roots(split, 54) is None  # 55 lies outside the bound
    assert lines._integer_roots(poly_linear_power(3, 2), 10) is None  # repeated root


def test_minpoly_route_with_three_eigenvalues():
    """Three disjoint copies of K_22, -1 within a block and +1 across: S = J
    - 2B + I for B the block sums, so 23 on the all-ones vector, -43 on the
    other block indicators and 1 off them.  Three roots make the trace
    equations take S^2 from a product, which two eigenvalues never need."""
    block = [i // 22 for i in range(66)]
    rows = [[0 if i == j else 1 - 2 * (block[i] == block[j]) for j in range(66)] for i in range(66)]
    spectrum = reduce(poly_mul, (poly_linear_power(1, 63), poly_linear_power(23, 1),
                                 poly_linear_power(-43, 2)))
    assert lines._charpoly_via_minpoly(rows) == spectrum
    assert seidel_charpoly(SeidelMatrix(rows)) == spectrum


def test_minpoly_route_gives_up_on_cliques_in_bounded_time():
    # 16 cliques of sizes 1..16: degree-17 minimal polynomial whose constant
    # term has 61 bits and whose roots are not all integers
    rows = clique_seidel(16)
    assert len(rows) == 136
    start = time.perf_counter()
    assert lines._charpoly_via_minpoly(rows) is None
    assert time.perf_counter() - start < 5.0


# least_eigenvalue of random_seidel(random.Random(t), t), as (lo, hi) with
# each end given as (numerator, denominator)
RANDOM_LEAST = {
    20: ((-33166367159888321913975, 4722366482869645213696),
         (-265330937279106552052325, 37778931862957161709568)),
    30: ((-352092444803260185935790155980589, 40564819207303340847894502572032),
         (-704184889606520300260571555527809, 81129638414606681695789005144064)),
}


def test_least_eigenvalue_makes_few_budan_counts(monkeypatch):
    # the intervals the Sturm search gave, from the same dyadic grid, with
    # at most 10 full Budan-Fourier counts (Taylor shifts) per call
    calls = []
    shift = exact._taylor_shift

    def counted(q, a, b):
        calls.append((a, b))
        return shift(q, a, b)

    monkeypatch.setattr(exact, "_taylor_shift", counted)
    for t, (lo, hi) in RANDOM_LEAST.items():
        s = random_seidel(random.Random(t), t)
        calls.clear()
        got = least_eigenvalue(s)
        assert got == (Fraction(*lo), Fraction(*hi))
        # the interval halves once per step, from (-B, B] with B the
        # integer bound the search starts from
        bound = cauchy_bound(exact.squarefree_part(seidel_charpoly(s)))
        ratio = 2 * (bound.numerator // bound.denominator + 1) / (got[1] - got[0])
        assert ratio.denominator == 1 and ratio.numerator.bit_count() == 1
        assert 1 <= len(calls) <= 10


def test_witt_minpoly_route_makes_one_square_product(monkeypatch):
    # the degree-2 minimal polynomial needs S^2 once, in the annihilation
    # check, and takes it from sign bits: imatmul_array makes no t x t
    # product; the trace of S is read off S itself
    inputs = benchmark_inputs()
    witt = inputs.seidel_of(inputs.witt_lines()[1])
    t, sizes, squares = len(witt), [], []
    matmul, sign_square = lines.imatmul_array, lines._sign_square

    def counted(a, b):
        sizes.append(len(a))
        return matmul(a, b)

    monkeypatch.setattr(lines, "imatmul_array", counted)
    monkeypatch.setattr(lines, "_sign_square", lambda *args: squares.append(args[1:])
                        or sign_square(*args))
    spectrum = poly_mul(poly_linear_power(-5, 253), poly_linear_power(55, 23))
    for given in (witt, SeidelMatrix(witt).array):
        sizes.clear(), squares.clear()
        assert lines._charpoly_via_minpoly(given) == spectrum
        assert sizes.count(t) == 0 and squares == [(1, -50)]
    sizes.clear()
    assert lines._annihilates(SeidelMatrix(witt).array, [-275, -50, 1])
    assert not lines._annihilates(SeidelMatrix(witt).array, [-275, -49, 1])
    assert sizes == []


def test_switching_and_reordering_preserve_spectrum():
    base = seidel(line_family(D5, equiangular_direct(D5).pairs))
    t, rows = len(base), base.rows
    reference = seidel_charpoly(base)
    rng = random.Random(7)
    for _ in range(12):
        signs = [rng.choice((-1, 1)) for _ in range(t)]
        perm = list(range(t))
        rng.shuffle(perm)
        switched = [
            [signs[i] * signs[j] * rows[perm[i]][perm[j]] for j in range(t)]
            for i in range(t)
        ]
        assert seidel_charpoly(SeidelMatrix(switched)) == reference


def test_absolute_bound_values():
    assert absolute_bound(7) == 28
    assert absolute_bound(23) == 276
    assert absolute_bound(1) == 1
    with pytest.raises(BadParameter):
        absolute_bound(0)


def test_relative_bound_values():
    assert relative_bound(7, Fraction(1, 3)) == 28
    assert relative_bound(23, Fraction(1, 5)) == 276
    assert relative_bound(5, Fraction(1, 3)) == 10
    with pytest.raises(NotApplicable):
        relative_bound(9, Fraction(1, 3))


def test_neumann_check():
    assert neumann_check(28, 7, Fraction(1, 3))
    assert neumann_check(276, 23, Fraction(1, 5))
    # t <= 2n: nothing to check, even though 1/alpha is even
    assert neumann_check(10, 6, Fraction(1, 4))
    assert not neumann_check(13, 6, Fraction(1, 4))


def test_bounds_read_their_arguments_exactly():
    """A float alpha is read exactly or refused: 1/3 as a float lies below
    1/3 and once gave relative_bound 27 and a failed parity test; a rank or
    count must be an integer, and 2.5 once gave absolute_bound 4.0."""
    for call in (lambda a: relative_bound(7, a), lambda a: neumann_check(28, 7, a)):
        with pytest.raises(BadParameter, match=r"pass Fraction\(1, 3\)"):
            call(1 / 3)
        with pytest.raises(BadParameter, match="not an exact rational"):
            call("x")
    for call in (lambda: absolute_bound(2.5), lambda: absolute_bound(Fraction(5, 2)),
                 lambda: relative_bound(Fraction(7, 2), Fraction(1, 3)),
                 lambda: neumann_check(28.5, 7, Fraction(1, 3)),
                 lambda: asymptotic_count(16, "2")):
        with pytest.raises(BadParameter):
            call()
    assert absolute_bound(7.0) == 28 and relative_bound(np.int64(7), Fraction(1, 3)) == 28
    assert neumann_check(28, 7.0, Fraction(1, 3)) and asymptotic_count(16.0, 2) == 30


def test_asymptotic_count():
    assert asymptotic_count(16, 2) == 30
    assert asymptotic_count(100, 3) == 148
    assert asymptotic_count(2, 2) == 2
    with pytest.raises(BadParameter):
        asymptotic_count(10, 1)


def _entries(report):
    return {c["check"]: c for c in report["checks"]}


def test_certify_e8():
    report = certify(e8_family())
    assert report["ok"]
    by = _entries(report)
    assert by["absolute_bound"]["equality"]
    assert by["relative_bound"]["bound"] == 28 and by["relative_bound"]["equality"]
    assert by["neumann"]["applicable"] and by["neumann"]["passed"]
    least = by["least_eigenvalue"]
    assert least["value"] == -3 and least["multiplicity"] == 21
    assert least["interval"] == (-3, -3)
    assert report["annotations"]["known_max_at_rank"] == KNOWN_MAX_LINES[7] == 28


def test_certify_equal_rank_family():
    # A4 yields t = rank = 3: the least eigenvalue stays above -1/alpha
    fam = line_family(A4, equiangular_direct(A4).pairs)
    assert fam.t == fam.rank == 3
    report = certify(fam)
    assert report["ok"]
    least = _entries(report)["least_eigenvalue"]
    assert least["multiplicity"] == 0
    assert least["interval"] == (-1, -1)  # spectrum of J - I at t = 3


def test_certify_d5_strict_bounds():
    report = certify(line_family(D5, equiangular_direct(D5).pairs))
    assert report["ok"]
    by = _entries(report)
    assert by["absolute_bound"]["bound"] == 10 and not by["absolute_bound"]["equality"]
    assert by["least_eigenvalue"]["multiplicity"] == 2


def test_certify_degenerate_family():
    report = certify(line_family(A2, [(1, 0)]))
    assert report["ok"]
    assert report["checks"][0]["check"] == "degenerate"


def test_certify_reports_a_tampered_family():
    # rank or t that disagree with the vectors fail the spectral factorisation
    fam = e8_family()
    for bad, note in (
        (dataclasses.replace(fam, rank=fam.rank - 1), "disagrees with the rank"),
        (dataclasses.replace(fam, t=fam.t + 1), "fails the trace identity"),
    ):
        report = certify(bad)
        assert not report["ok"]
        least = _entries(report)["least_eigenvalue"]
        assert not least["passed"] and note in least["note"]
        assert _entries(report)["rank"]["passed"] == (bad.rank == fam.rank)


@pytest.mark.parametrize("offsets", [
    (1, 2, 5), (-1, 1, 2), (0, 1, 2), (0, 0, 7), (Fraction(-1, 2), 3, 9),
    (Fraction(1, 3), Fraction(1, 2), 4),
])
def test_least_eigenvalue_check_matches_sturm_on_crafted_spectra(monkeypatch, offsets):
    # roots of q at, below and above -1/alpha, for t > rank (E8) and t = rank (A4)
    for fam in (e8_family(), line_family(A4, equiangular_direct(A4).pairs)):
        target, k = -1 / fam.alpha, fam.t - fam.rank
        q = poly_from_roots([target + d for d in offsets])
        monkeypatch.setattr(lines, "_factored_charpoly", lambda f: (q, target, k))
        entry = _entries(certify(fam))["least_eigenvalue"]
        assert entry == ref_least_check(q, target, k, fam.t, fam.rank)
        assert entry["passed"] == (min(offsets) > 0)


def test_certify_never_raises_on_report_entries():
    # alpha = 1/2 at rank 2 fails the relative-bound gate (2*(1/4) < 1 holds,
    # but at rank 4 it would not); build a rank-2 family and check the gate
    fam = hexagon()
    report = certify(fam)
    by = _entries(report)
    assert by["relative_bound"]["applicable"]  # 2/4 < 1
    assert report["ok"]


@pytest.mark.slow
def test_unstructured_276_charpoly():
    # Witt's Seidel matrix with one symmetric pair negated: no small integer
    # spectrum, so only exact.charpoly settles it; trace 0 and the sum of
    # the squared entries fix the two top coefficients
    inputs = benchmark_inputs()
    rows = [list(r) for r in inputs.seidel_of(inputs.witt_lines()[1])]
    rows[0][1], rows[1][0] = -rows[0][1], -rows[1][0]
    n = len(rows)
    start = time.perf_counter()
    p = exact.charpoly(IntMatrix(rows))
    assert time.perf_counter() - start < 60
    assert len(p) == n + 1 and p[n] == 1
    assert p[n - 1] == 0 and p[n - 2] == -n * (n - 1) // 2 == -37950
