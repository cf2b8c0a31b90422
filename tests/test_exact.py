"""Tests for the exact linear algebra core."""

import itertools
import math
import random
import time
from fractions import Fraction as QQ

import numpy as np
import pytest
from oracles import (
    berkowitz,
    count_roots_halfopen,
    minors_gcd,
    poly_from_roots,
    ref_det,
    ref_poly_linear_sub,
    ref_rank,
    smallest_real_root,
    sturm_chain,
)

from eqlat.errors import BadParameter, DimensionMismatch, NotIntegral, NotPositiveDefinite
from eqlat.lattice import GramLattice
from eqlat.exact import (
    IntMatrix,
    RatMatrix,
    _charpoly_primes,
    _is_prime,
    charpoly,
    hnf,
    kernel_basis,
    leading_minors,
    least_root,
    poly_eval,
    poly_linear_sub,
    rank_det,
    root_multiplicity,
    roots_above,
    solve_left,
    squarefree_part,
)

WIDTH = QQ(1, 2**50)


def rand_matrix(rng, nr, nc, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)])


# -- Hermite normal form ----------------------------------------------------


def test_non_integer_entries_are_rejected():
    # int() alone would read these as the Gram [[2, 1], [1, 2]] and as [[2]]
    with pytest.raises(NotIntegral, match="not all integers"):
        GramLattice([[QQ(5, 2), 1], [1, 2]])
    with pytest.raises(NotIntegral, match="not all integers"):
        IntMatrix([[2.7]])
    for bad in ("1", None, float("inf"), float("nan")):
        with pytest.raises(NotIntegral):
            IntMatrix([[1, bad]])
    # integral values of other types are read as the integers they equal
    assert IntMatrix([[2.0, QQ(6, 3), True]]).rows == ((2, 2, 1),)
    assert GramLattice([[QQ(4, 2), 1], [1, 2.0]]) == GramLattice([[2, 1], [1, 2]])


def test_hnf_worked_example():
    m = IntMatrix([[2, 0], [0, 2], [1, 1]])
    h, u = hnf(m)
    assert h.to_lists() == [[1, 1], [0, 2], [0, 0]]
    assert (u @ m) == h
    assert rank_det(u)[1] in (1, -1)


def test_hnf_identity_fixed_point():
    m = IntMatrix.identity(4)
    h, u = hnf(m)
    assert h == m
    assert u == m


def test_hnf_random_properties():
    rng = random.Random(11)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        h, u = hnf(m)
        assert (u @ m) == h
        assert rank_det(u)[1] in (1, -1)
        # Idempotent: H is already in normal form.
        h2, _ = hnf(h)
        assert h2 == h
        # Canonical: invariant under row permutation of the input.
        rows = m.to_lists()
        rng.shuffle(rows)
        h3, _ = hnf(IntMatrix(rows))
        assert h3 == h
        # Echelon shape with positive pivots and reduced columns.
        pivots = []
        for row in h.rows:
            nz = next((j for j, v in enumerate(row) if v != 0), None)
            if nz is None:
                continue
            assert not pivots or nz > pivots[-1][1]
            pivots.append((row[nz], nz))
        for i, (pv, pc) in enumerate(pivots):
            assert pv > 0
            for k in range(i):
                assert 0 <= h.rows[k][pc] < pv


# -- rank / determinant -----------------------------------------------------


def test_rank_det_examples():
    assert rank_det(IntMatrix([[2, 1], [1, 2]])) == (2, 3)
    assert rank_det(IntMatrix([[1, 2], [2, 4]])) == (1, 0)
    assert rank_det(IntMatrix([[0]])) == (0, 0)
    assert rank_det(IntMatrix([[2, 0], [0, 2], [1, 1]])) == (2, None)


def test_rank_det_against_references():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        r, d = rank_det(m)
        assert d == ref_det(m.to_lists())
        assert r == ref_rank(m.to_lists())
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank_det(m)[0] == ref_rank(m.to_lists())


# -- kernels ----------------------------------------------------------------


def test_kernel_worked_example():
    k = kernel_basis(IntMatrix([[2], [4]]))
    assert k.to_lists() == [[2, -1]]


def test_kernel_random_saturated():
    rng = random.Random(37)
    checked = 0
    for _ in range(150):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 4)
        m = rand_matrix(rng, nr, nc, -4, 4)
        ker = kernel_basis(m)
        for row in ker.rows:
            prod = [sum(a * b for a, b in zip(row, col)) for col in zip(*m.rows)]
            assert all(v == 0 for v in prod)
        assert ker.nrows == nr - ref_rank(m.to_lists())
        if ker.nrows:
            assert minors_gcd(ker.to_lists(), ker.nrows) == 1
            checked += 1
    assert checked > 50


# -- Gram elimination --------------------------------------------------------


def test_ldl_rejects_indefinite():
    # the fraction-free elimination behind GramLattice stops at the first
    # leading minor <= 0: indefinite (minor -3) and singular (minor 0)
    for gram in ([[1, 2], [2, 1]], [[0, 0], [0, 1]]):
        with pytest.raises(NotPositiveDefinite):
            GramLattice(gram)
        with pytest.raises(NotPositiveDefinite):
            leading_minors(IntMatrix(gram))


def test_leading_minors_worked_example():
    # A3: leading minors 2, 3, 4; sub holds the columns below each pivot
    delta, sub = leading_minors(IntMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    assert delta == [1, 2, 3, 4]
    assert sub == [[-1, 0], [-2], []]
    assert GramLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]).det == 4


# -- linear solving ---------------------------------------------------------


def test_solve_left_roundtrip():
    rng = random.Random(53)
    for _ in range(80):
        k = rng.randint(1, 4)
        n = k + rng.randint(0, 2)
        b = rand_matrix(rng, k, n)
        c = [rng.randint(-6, 6) for _ in range(k)]
        x = [sum(ci * b[i, j] for i, ci in enumerate(c)) for j in range(n)]
        sol = solve_left(b, x)
        assert sol is not None
        assert all(type(s) is int for s in sol)
        back = [sum(si * b[i, j] for i, si in enumerate(sol)) for j in range(n)]
        assert back == x


def test_solve_left_inconsistent():
    b = IntMatrix([[1, 0, 0], [0, 1, 0]])
    assert solve_left(b, [0, 0, 1]) is None


def test_solve_left_needs_an_integer_solution():
    # (1/2, 0) solves it over Q, but (1, 0) is outside the row lattice
    assert solve_left(IntMatrix([[2, 0], [0, 2]]), [1, 0]) is None
    assert solve_left(IntMatrix([[2, 0], [0, 2]]), [4, -2]) == (2, -1)


def test_solve_left_rejects_non_integer_targets():
    # int() alone truncated 2.7 to 2 and solved for (2, 0) instead
    b = IntMatrix([[1, 1], [2, 0]])
    for x in ([2.7, 0], [QQ(3, 2), 1], [-0.5, 1]):
        with pytest.raises(NotIntegral):
            solve_left(b, x)
    assert solve_left(b, [QQ(2), np.int64(0)]) == solve_left(b, [2, 0]) == (0, 1)


def test_solve_left_dependent_rows():
    # 1 = 3 - 2 needs both dependent rows; a pivot-only solve over Q gives 1/2
    b = IntMatrix([[2, 0], [3, 0], [0, 1]])
    sol = solve_left(b, [1, 5])
    assert sol is not None and all(type(s) is int for s in sol)
    assert [sum(s * b[i, j] for i, s in enumerate(sol)) for j in range(2)] == [1, 5]
    assert solve_left(IntMatrix([[2, 4], [1, 2]]), [1, 3]) is None


def test_rat_inverse():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        if rank_det(m)[1] == 0:
            continue
        r = RatMatrix(m, rng.randint(1, 6))
        prod = r @ r.inverse()
        assert prod == RatMatrix(IntMatrix.identity(n))
    assert RatMatrix([[2, 1], [1, 2]], 3).inverse() == RatMatrix([[2, -1], [-1, 2]])
    with pytest.raises(ZeroDivisionError):
        RatMatrix([[1, 2], [2, 4]], 5).inverse()


# -- characteristic polynomial ----------------------------------------------


def test_berkowitz_gram_example():
    assert berkowitz(IntMatrix([[2, 1], [1, 2]])) == [3, -4, 1]
    assert charpoly(IntMatrix([[2, 1], [1, 2]])) == [3, -4, 1]


def test_berkowitz_triangle_of_lines():
    # Sign matrix of three coplanar lines at mutual 60 degrees.
    s = IntMatrix([[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
    assert berkowitz(s) == [2, -3, 0, 1]
    assert charpoly(s) == [2, -3, 0, 1]


def test_berkowitz_matches_pointwise_determinants():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, -6, 6)
        p = berkowitz(m)
        assert len(p) == n + 1 and p[-1] == 1
        assert charpoly(m) == p
        for x0 in (-3, -1, 0, 2, 7):
            shifted = [
                [x0 * (i == j) - m[i, j] for j in range(n)] for i in range(n)
            ]
            assert poly_eval(p, x0) == ref_det(shifted)


def rand_symmetric(rng, n, lo, hi):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return IntMatrix(rows)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 21, 30, 40])
def test_charpoly_matches_berkowitz(n):
    rng = random.Random(100 + n)
    for m in (rand_matrix(rng, n, n, -2**40, 2**40), rand_symmetric(rng, n, -2**40, 2**40),
              rand_matrix(rng, n, n, -3, 3), rand_symmetric(rng, n, -1, 1),
              rand_matrix(rng, n, n, -2**70, 2**70)):  # past int64: object reduction
        assert charpoly(m) == berkowitz(m)


def test_charpoly_pivot_swaps_and_skipped_columns():
    # 0/+-1/2 entries, mostly zero: subdiagonal zeros with a pivot further
    # down force swaps, and columns zero below the subdiagonal are skipped;
    # triangular, permutation and block matrices take each branch throughout
    rng = random.Random(62)
    corpus = [IntMatrix([[rng.choice((0,) * 6 + (1, -1, 2)) for _ in range(n)]
                         for _ in range(n)]) for n in range(1, 26) for _ in range(4)]
    for n in (3, 7, 12):
        corpus.append(IntMatrix([[int(j > i) for j in range(n)] for i in range(n)]))
        corpus.append(IntMatrix([[int(i > j) * (i - j) for j in range(n)] for i in range(n)]))
        perm = rng.sample(range(n), n)
        corpus.append(IntMatrix([[int(j == perm[i]) for j in range(n)] for i in range(n)]))
        corpus.append(IntMatrix([[2 * (i // 3 == j // 3) - (i == j) for j in range(n)]
                                 for i in range(n)]))
        corpus.append(IntMatrix.zeros(n, n))
    for m in corpus:
        assert charpoly(m) == berkowitz(m)


def test_charpoly_entries_divisible_by_the_first_prime():
    # the first prime sees the zero matrix, or a different pivot pattern
    # than the other primes
    rng = random.Random(63)
    for n in (1, 2, 5, 9, 16, 24):
        p = next(_charpoly_primes(n))
        mult = IntMatrix([[p * rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        mixed = IntMatrix([[rng.choice((0, 1, -1, p, -p, 2 * p)) for _ in range(n)]
                           for _ in range(n)])
        for m in (mult, mixed):
            assert charpoly(m) == berkowitz(m)


def test_charpoly_primes():
    # Miller-Rabin with bases 2, 7, 61 against trial division, and the
    # int64 rule n (p - 1)^2 < 2^63 for the primes charpoly takes
    def trial(k):
        return k > 1 and all(k % d for d in range(2, math.isqrt(k) + 1))

    assert [k for k in range(3, 20000, 2) if _is_prime(k)] == [
        k for k in range(3, 20000, 2) if trial(k)]
    for n in (1, 40, 276, 8192):
        ps = list(itertools.islice(_charpoly_primes(n), 3))
        assert all(map(trial, ps)) and ps == sorted(ps, reverse=True)
        assert n * (ps[0] - 1) ** 2 < 2**63 < 2 * n * ps[0] ** 2
    assert next(_charpoly_primes(8192)) < 2**25
    with pytest.raises(DimensionMismatch):
        charpoly(IntMatrix([[1, 2]]))


# -- Linear substitution -----------------------------------------------------


def test_poly_linear_sub_matches_fraction_horner():
    """p(a*x + b) over Z with one common denominator gives the Fraction
    Horner composition's values: ints when p, a and b are all ints, else
    Fractions, for int and Fraction p, a and b, a = 0 and degree 0."""
    rng = random.Random(151)

    def entry(fraction):
        num = rng.randint(-30, 30)
        return QQ(num, rng.randint(1, 40)) if fraction else num

    for trial in range(600):
        fractions = [trial % 4 == k for k in range(3)]  # one of p, a and b, or none
        p = [entry(fractions[0]) for _ in range(rng.randint(1, 9))]
        a = 0 if trial % 7 == 0 else entry(fractions[1])
        b = entry(fractions[2])
        got = poly_linear_sub(p, a, b)
        assert got == ref_poly_linear_sub(p, a, b) and len(got) == len(p)
        want = int if all(type(v) is int for v in (*p, a, b)) else QQ
        assert all(type(c) is want for c in got), (p, a, b, got)


def test_poly_linear_sub_reduces_its_common_denominator():
    """Coefficients come back in lowest terms when the common denominator
    e d^n shares factors with them, as it does with unreduced inputs."""
    half = QQ(2, 4)
    assert poly_linear_sub([half, half], 2, 1) == [1, 1]  # (1 + 2x + 1) / 2
    assert poly_linear_sub([0, 0, 1], QQ(1, 6), QQ(1, 4)) == [QQ(1, 16), QQ(1, 12), QQ(1, 36)]
    assert poly_linear_sub([QQ(3, 9), QQ(6, 4), 5], QQ(6, 8), QQ(10, 15)) == ref_poly_linear_sub(
        [QQ(1, 3), QQ(3, 2), 5], QQ(3, 4), QQ(2, 3))
    assert poly_linear_sub([7], QQ(5, 6), QQ(1, 6)) == [QQ(7)]  # degree 0
    assert poly_linear_sub([7], 5, 1) == [7] and type(poly_linear_sub([7], 5, 1)[0]) is int
    assert poly_linear_sub([1, 2, 3], 0, QQ(1, 2)) == [QQ(11, 4), 0, 0]  # a = 0


# -- Root isolation: the Sturm oracle and the Budan-Fourier finder ----------


def test_squarefree_part():
    # (x + 1)^3 (x - 3) -> (x + 1)(x - 3)
    p = poly_from_roots([-1, -1, -1, 3])
    assert squarefree_part(p) == [-3, -2, 1]
    assert root_multiplicity(p, -1) == 3
    assert root_multiplicity(p, 3) == 1
    assert root_multiplicity(p, 0) == 0


def test_squarefree_part_of_a_constant_is_one():
    assert squarefree_part([-3]) == [1]
    assert squarefree_part([QQ(5, 7)]) == [1]
    assert squarefree_part([0]) == []


def test_squarefree_part_when_the_prime_cannot_decide():
    # the coprimality check modulo 2^61 - 1 proves nothing when the prime
    # divides the leading coefficient or splits a factor off modulo itself
    prime = 2**61 - 1
    assert squarefree_part([-1, 0, prime]) == [-1, 0, prime]
    assert squarefree_part([prime, 0, 1]) == [prime, 0, 1]  # x^2 modulo the prime
    assert squarefree_part(poly_from_roots([1, 1, prime])) == poly_from_roots([1, prime])


def test_sturm_counts():
    # roots at +-sqrt(2), +-sqrt(3)
    p = [6, 0, -5, 0, 1]
    chain = sturm_chain(p)
    assert count_roots_halfopen(chain, QQ(-2), QQ(2)) == 4
    assert count_roots_halfopen(chain, QQ(0), QQ(2)) == 2
    assert count_roots_halfopen(chain, QQ(3, 2), QQ(2)) == 1
    assert count_roots_halfopen(chain, QQ(-3, 2), QQ(0)) == 1


def test_smallest_root_exact_integer():
    lo, hi = smallest_real_root([-2, 1, 1])  # (x + 2)(x - 1)
    assert lo == hi == -2


def test_smallest_root_triangle_charpoly():
    lo, hi = smallest_real_root([2, -3, 0, 1])  # (x - 1)^2 (x + 2)
    assert lo == hi == -2


def test_smallest_root_j_minus_i():
    # (x + 1)^3 (x - 3): least root -1 with even total sign, so the exact
    # hit matters.
    lo, hi = smallest_real_root(poly_from_roots([-1, -1, -1, 3]))
    assert lo == hi == -1


def test_smallest_root_irrational():
    p = [6, 0, -5, 0, 1]
    lo, hi = smallest_real_root(p)
    assert hi - lo <= WIDTH
    # -sqrt(3) in (lo, hi]: for negative endpoints this squares to
    # lo^2 > 3 >= hi^2.
    assert lo < 0 and hi < 0
    assert lo * lo > 3 >= hi * hi
    sf = squarefree_part(p)
    assert poly_eval(sf, lo) * poly_eval(sf, hi) < 0


def test_smallest_root_random_rational():
    rng = random.Random(67)
    for _ in range(40):
        roots = sorted(
            QQ(rng.randint(-30, 30), rng.choice([1, 1, 2, 4]))
            for _ in range(rng.randint(1, 4))
        )
        lo, hi = smallest_real_root(poly_from_roots(roots))
        assert lo <= roots[0] <= hi
        assert hi - lo <= WIDTH
        if roots[0].denominator == 1:
            assert lo == hi == roots[0]


def test_smallest_root_requires_real_roots():
    with pytest.raises(ValueError):
        smallest_real_root([1, 0, 1])  # x^2 + 1


def random_seidel_charpoly(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((-1, 1))
    return berkowitz(IntMatrix(rows))


# sizes 20..50 over three seeds; the Sturm oracle takes 3 s at n = 50
@pytest.mark.parametrize("seed, n", [(1, 20), (2, 26), (3, 32), (1, 38), (2, 44), (3, 50)])
def test_least_root_matches_sturm_on_seidel_charpolys(seed, n):
    p = random_seidel_charpoly(random.Random(seed), n)
    assert least_root(p) == smallest_real_root(p)


@pytest.mark.slow
@pytest.mark.parametrize("n", [60, 70])
def test_least_root_matches_sturm_on_large_seidel_charpolys(n):
    p = random_seidel_charpoly(random.Random(n), n)
    assert least_root(p) == smallest_real_root(p)


def test_least_root_of_a_random_60_charpoly_is_fast():
    # the Sturm chain took 8 s here; the Budan-Fourier search about 0.03 s
    p = random_seidel_charpoly(random.Random(60), 60)
    start = time.perf_counter()
    lo, hi = least_root(p)
    assert time.perf_counter() - start < 0.3
    assert 0 < hi - lo <= WIDTH and poly_eval(p, lo) * poly_eval(p, hi) < 0


def real_rooted_corpus(seed, count):
    """count seeded integer polynomials with rational roots, some repeated."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        roots = [QQ(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 8]))
                 for _ in range(rng.randint(1, 6))]
        roots += rng.choices(roots, k=rng.randint(0, 3))
        out.append((poly_from_roots(roots), sorted(roots)))
    return out


def test_least_root_matches_sturm_on_rational_roots():
    for p, roots in real_rooted_corpus(67, 200):
        got = least_root(p)
        assert got == smallest_real_root(p)
        assert got[0] <= roots[0] <= got[1]


def test_least_root_width_and_sign_change():
    rng = random.Random(5)
    for width in (QQ(1, 2**10), QQ(1, 3), QQ(1, 2**60)):
        p = random_seidel_charpoly(rng, 16)
        lo, hi = least_root(p, width)
        assert (lo, hi) == smallest_real_root(p, width)
        assert 0 < hi - lo <= width
        assert poly_eval(p, lo) * poly_eval(p, hi) < 0


def test_roots_above_counts_with_multiplicity():
    for p, roots in real_rooted_corpus(68, 60):
        for x in {roots[0], roots[-1], QQ(1, 3), QQ(-7, 2), *roots[1:3]}:
            assert roots_above(p, x) == sum(r > x for r in roots)
    assert roots_above([QQ(6), 0, QQ(-5), 0, 1], 0) == 2  # +-sqrt(2), +-sqrt(3)


def test_root_points_and_widths_are_read_exactly():
    """The point of root_multiplicity and roots_above, and the width of
    least_root and least_eigenvalue, are read by exact._rational.  Read as
    Fraction(0.1) = 3602879701896397 / 2**55, 0.1 gave (10x - 1)^2 the root
    multiplicity 0 there, where 1/10 is a double root; 'x' and None raised
    a bare ValueError or TypeError; a width of 0 bisected forever."""
    from eqlat.lines import SeidelMatrix, least_eigenvalue

    p = [1, -20, 100]
    assert root_multiplicity(p, QQ(1, 10)) == 2 and roots_above(p, 0) == 2
    assert root_multiplicity(p, np.int64(0)) == 0 and roots_above(p, 1.0) == 0
    calls = (lambda v: root_multiplicity(p, v), lambda v: roots_above(p, v),
             lambda v: least_root(p, v))
    for call in calls:
        with pytest.raises(BadParameter, match=r"pass Fraction\(1, 10\)"):
            call(0.1)
        for bad in ("x", None):
            with pytest.raises(BadParameter, match="not an exact rational"):
                call(bad)
    for width in (0, -1):
        with pytest.raises(BadParameter, match="not positive"):
            least_root([-2, 0, 1], width)
    with pytest.raises(BadParameter):
        least_eigenvalue(SeidelMatrix([[0, 1], [1, 0]]), "x")


def test_least_root_refuses_what_it_can_see_is_not_real_rooted():
    with pytest.raises(ValueError):
        least_root([1, 0, 1])  # x^2 + 1: the squared roots sum to -2
    with pytest.raises(ValueError):
        least_root([5])
    # x^4 + 1 has no real root and the squared roots sum to 0, so only the
    # separation bound stops the bisection on its phantom pair of roots
    with pytest.raises(ValueError):
        least_root([1, 0, 0, 0, 1])
