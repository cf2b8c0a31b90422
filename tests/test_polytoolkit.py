"""Differential tests of the exact polynomial toolkit against sympy.

Skipped when sympy is not installed.  Polynomials are seeded random integer
polynomials, about half of them with repeated rational roots built in, so
multiplicities, square-free parts and Sturm counts all have something to
find.
"""

import random
from fractions import Fraction

import pytest
from oracles import berkowitz, count_roots_halfopen, sturm_chain

from eqlat.exact import (
    IntMatrix,
    charpoly,
    poly_divmod,
    poly_eval,
    poly_lcm,
    poly_linear_power,
    poly_linear_sub,
    poly_mul,
    root_multiplicity,
    squarefree_part,
)

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_sympy(p):
    coeffs = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
              for c in reversed(p)]
    return sympy.Poly(coeffs or [0], X, domain="QQ")


def from_sympy(poly):
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return out


def rand_sympy_poly(rng):
    """Random integer polynomial; about half carry repeated rational roots."""
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
    coeffs[0] = coeffs[0] or 1
    poly = sympy.Poly(coeffs, X, domain="ZZ")
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            num, den = rng.randint(-5, 5), rng.randint(1, 3)
            poly *= sympy.Poly([den, -num], X, domain="ZZ") ** rng.randint(1, 4)
    return poly


def rand_poly(rng):
    return [int(c) for c in reversed(rand_sympy_poly(rng).all_coeffs())]


def rand_rational(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 6))


def test_poly_mul_matches_sympy():
    rng = random.Random(101)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        assert poly_mul(a, b) == from_sympy(to_sympy(a) * to_sympy(b))
    assert poly_mul([], [1, 2]) == []


def test_poly_divmod_matches_sympy():
    rng = random.Random(102)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        if rng.random() < 0.3:
            a = poly_mul(a, b)  # exact division: the remainder must be []
        q, r = poly_divmod(a, b)
        sq, sr = sympy.div(to_sympy(a), to_sympy(b))
        assert (q, r) == (from_sympy(sq), from_sympy(sr))
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2], [0])


def test_poly_lcm_matches_sympy():
    rng = random.Random(107)
    for _ in range(60):
        a, b = rand_sympy_poly(rng), rand_sympy_poly(rng)
        if rng.random() < 0.3:
            b *= a  # a divides b: the lcm is b up to its content
        expected = sympy.lcm(a, b).primitive()[1]
        if expected.LC() < 0:
            expected = -expected
        ints = [[int(c) for c in reversed(p.all_coeffs())] for p in (a, b)]
        assert poly_lcm(*ints) == [int(c) for c in reversed(expected.all_coeffs())]
    # monic integer inputs give the monic lcm
    assert poly_lcm([-6, 1, 1], [3, 4, 1]) == [-6, -5, 2, 1]  # (x + 3)(x - 2)(x + 1)


def test_poly_linear_sub_matches_sympy():
    rng = random.Random(108)
    for _ in range(60):
        p = rand_poly(rng)
        a, b = rand_rational(rng) or 1, rand_rational(rng)
        expected = to_sympy(p).as_expr().subs(X, to_sympy([b, a]).as_expr())
        assert poly_linear_sub(p, a, b) == from_sympy(sympy.Poly(expected, X, domain="QQ"))


def test_poly_linear_power_matches_sympy():
    rng = random.Random(109)
    for _ in range(20):
        root, k = rand_rational(rng), rng.randint(0, 12)
        assert poly_linear_power(root, k) == from_sympy(to_sympy([-root, 1]) ** k)


def test_squarefree_part_matches_sympy():
    rng = random.Random(103)
    for _ in range(60):
        p = rand_sympy_poly(rng)
        ints = [int(c) for c in reversed(p.all_coeffs())]
        expected = [int(c) for c in reversed(p.sqf_part().all_coeffs())]
        assert squarefree_part(ints) == expected


def test_root_multiplicity_matches_sympy():
    rng = random.Random(104)
    for _ in range(60):
        p = rand_sympy_poly(rng)
        ints = [int(c) for c in reversed(p.all_coeffs())]
        roots = {}
        for factor, exp in p.factor_list()[1]:
            if factor.degree() == 1:
                u, v = (int(c) for c in factor.all_coeffs())
                roots[Fraction(-v, u)] = exp
        for root, exp in roots.items():
            assert root_multiplicity(ints, root) == exp
        for _ in range(3):
            r = rand_rational(rng)
            if r not in roots:
                assert root_multiplicity(ints, r) == 0


def test_sturm_counts_match_sympy():
    rng = random.Random(105)
    checked = 0
    for _ in range(60):
        p = rand_sympy_poly(rng)
        if p.degree() < 1:
            continue
        ints = [int(c) for c in reversed(p.all_coeffs())]
        chain = sturm_chain(ints)
        sqf = p.sqf_part()
        roots = [Fraction(int(r.p), int(r.q)) for r in sympy.roots(p, filter="Q")]
        for _ in range(4):
            a = rand_rational(rng)
            if poly_eval(ints, a) == 0:
                continue
            # land b on a rational root now and then to test the closed end
            b = rng.choice(roots) if roots and rng.random() < 0.5 else rand_rational(rng)
            if b <= a:
                continue
            # sympy counts distinct roots in [a, b]; a is not a root here
            assert count_roots_halfopen(chain, a, b) == sqf.count_roots(a, b)
            checked += 1
    assert checked > 50


def test_berkowitz_matches_sympy():
    rng = random.Random(106)
    for n in (8, 11, 14, 17, 20):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = [int(c) for c in reversed(sympy.Matrix(rows).charpoly(X).all_coeffs())]
        assert charpoly(IntMatrix(rows)) == expected
        assert berkowitz(IntMatrix(rows)) == expected
