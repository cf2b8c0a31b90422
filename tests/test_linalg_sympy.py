"""Differential tests of the exact integer linear algebra against sympy.

Inputs are seeded integer matrices of size 8-20, full rank and rank
deficient.  The integer solve and the inverse are compared on sizes 8-16.  sympy's Hermite normal form is column-style with its pivots
at the bottom right; reversing rows and columns maps it onto the row HNF
of the column-reversed input, which is how the two are compared.
"""

import random

import pytest

from eqlat.errors import NotPositiveDefinite
from eqlat.exact import (
    IntMatrix,
    RatMatrix,
    hnf,
    kernel_basis,
    leading_minors,
    rank_det,
    solve_left,
)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def dm(m):
    return DomainMatrix.from_Matrix(sympy.Matrix(m)).convert_to(sympy.QQ)


def rand_matrix(rng, nr, nc):
    """Entries in [-9, 9]; every other matrix is a product of lower rank."""
    if rng.random() < 0.5:
        return [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
    k = rng.randint(1, min(nr, nc) - 1)
    b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
    c = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
    return (sympy.Matrix(b) * sympy.Matrix(c)).tolist()


def cases(seed, count=12):
    rng = random.Random(seed)
    return [rand_matrix(rng, rng.randint(8, 20), rng.randint(8, 20))
            for _ in range(count)]


def test_hnf_matches_sympy():
    for m in cases(211):
        h, u = hnf(IntMatrix([row[::-1] for row in m]))
        ours = [list(r) for r in h.rows if any(r)]
        w = hermite_normal_form(sympy.Matrix(m).T).T.tolist()
        assert ours == [row[::-1] for row in w[::-1]]
        assert abs(sympy.Matrix(u.to_lists()).det()) == 1


def test_rank_det_matches_sympy():
    rng = random.Random(223)
    for m in cases(227):
        assert rank_det(IntMatrix(m))[0] == dm(m).rank()
    for _ in range(12):
        n = rng.randint(8, 20)
        m = rand_matrix(rng, n, n)
        assert rank_det(IntMatrix(m)) == (dm(m).rank(), dm(m).det())


def test_kernel_basis_matches_sympy():
    for m in cases(229):
        ker = kernel_basis(IntMatrix(m))
        rational = sympy.Matrix(m).T.nullspace()
        assert ker.nrows == len(rational)
        if not rational:
            continue
        k = sympy.Matrix(ker.to_lists())
        assert k * sympy.Matrix(m) == sympy.zeros(ker.nrows, len(m[0]))
        # the same rational span, and saturated: every invariant factor is 1
        both = k.col_join(sympy.Matrix.hstack(*rational).T)
        assert both.rank() == ker.nrows
        snf = smith_normal_form(k, domain=sympy.ZZ)
        assert all(snf[i, i] == 1 for i in range(ker.nrows))


def test_leading_minors_match_sympy():
    rng = random.Random(233)
    for trial in range(16):
        n = rng.randint(8, 20)
        b = sympy.Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        # B B^T + cI is definite for c > 0; c < 0 usually makes it indefinite
        g = dm(b * b.T + rng.choice((3, -3, -30)) * sympy.eye(n))
        # a real-rooted det(xI - g) has only positive roots exactly when its
        # coefficients alternate in sign
        definite = all(c * (-1) ** k > 0 for k, c in enumerate(g.charpoly()))
        try:
            delta, _ = leading_minors(IntMatrix(g.to_Matrix().tolist()))
        except NotPositiveDefinite:
            assert not definite
            continue
        assert definite
        assert delta[n] == g.det()


def test_rat_inverse_matches_sympy():
    rng = random.Random(239)
    for _ in range(12):
        n = rng.randint(8, 16)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        den = rng.randint(1, 12)
        if not dm(m).det():
            continue
        inv = RatMatrix(m, den).inverse()
        assert sympy.Matrix(inv.num.to_lists()) / inv.den == den * dm(m).inv().to_Matrix()


def test_solve_left_matches_sympy():
    # b has full row rank with an even first row; the right-hand sides are
    # a lattice vector, a vector off the lattice by b_0/2, and a random one
    rng = random.Random(241)
    for _ in range(12):
        k = rng.randint(8, 16)
        n = rng.randint(k, 16)
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        b[0] = [2 * v for v in b[0]]
        if dm(b).rank() < k:
            continue
        c = [rng.randint(-5, 5) for _ in range(k)]
        y = [sum(ci * row[j] for ci, row in zip(c, b)) for j in range(n)]
        for x in (y, [a + v // 2 for a, v in zip(y, b[0])],
                  [rng.randint(-20, 20) for _ in range(n)]):
            try:
                want, _ = sympy.Matrix(b).T.gauss_jordan_solve(sympy.Matrix(x))
            except ValueError:  # inconsistent over Q
                want = None
            if want is not None and any(not w.is_integer for w in want):
                want = None
            got = solve_left(IntMatrix(b), x)
            assert got == (None if want is None else tuple(int(w) for w in want))
    for m in cases(251):
        c = [rng.randint(-5, 5) for _ in m]
        x = [sum(ci * row[j] for ci, row in zip(c, m)) for j in range(len(m[0]))]
        sol = solve_left(IntMatrix(m), x)
        assert sol is not None
        assert sympy.Matrix([sol]) * sympy.Matrix(m) == sympy.Matrix([x])
