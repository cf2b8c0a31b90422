"""Lattices presented by their Gram matrices.

A lattice here is a free Z-module with a chosen basis and the positive
definite Gram matrix of that basis; vectors are integer coordinate tuples
with respect to the basis.  Nothing ever refers to an ambient R^n, so all
constructions (duals, sublattices, orthogonal sections, projections) are
exact Gram-matrix algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadParameter,
    DimensionMismatch,
    NotInLattice,
    NotIntegral,
    NotOdd,
    NotPrimitive,
    VerificationError,
    ZeroVector,
)
from .exact import IntMatrix, RatMatrix, _int_row, _rational, hnf, kernel_basis, leading_minors, solve_left
from .fastops import gram_product, imatmul

Vec = tuple[int, ...]

__all__ = ["GramLattice", "EmbeddedSublattice", "Projection", "dot"]


def dot(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        raise DimensionMismatch(f"lengths {len(x)} and {len(y)}")
    return sum(a * b for a, b in zip(x, y))


@dataclass(frozen=True, slots=True)
class GramLattice:
    """Positive definite lattice given by a rational Gram matrix.

    Hashes and compares by the Gram matrix alone; the optional name is a
    label for reports and, like the derived det, is ignored by equality.
    """

    gram: RatMatrix
    name: str | None = field(default=None, compare=False)
    det: Fraction = field(init=False, compare=False)

    def __post_init__(self):
        gram = self.gram
        if not isinstance(gram, RatMatrix):
            gram = RatMatrix(gram)
        delta, _ = leading_minors(gram.num)  # raises unless gram = gram^T > 0
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "det", Fraction(delta[-1], gram.den**gram.nrows))

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"GramLattice({label}, det={self.det})"

    def with_name(self, name: str) -> "GramLattice":
        return GramLattice(self.gram, name)

    # -- bilinear form -----------------------------------------------------

    def _check(self, x: Sequence[int]) -> Vec:
        """x as a tuple of ints: the one reader of a caller's coordinate vector."""
        try:
            k = len(x)
        except TypeError:  # 5, None
            k = "no"
        if k != self.dim:
            raise DimensionMismatch(f"vector has {k} coordinates, lattice needs {self.dim}")
        try:
            return _int_row(x)  # int() alone truncates 1.5 to 1
        except NotIntegral:
            raise NotInLattice(f"coordinates {tuple(x)} are not all integers") from None

    def _check_all(self, vectors: Iterable[Sequence[int]]) -> list[Vec]:
        """_check of every vector of a caller's collection of vectors."""
        try:
            each = iter(vectors)
        except TypeError:  # 5, None
            raise DimensionMismatch(f"{vectors!r} is not a collection of vectors") from None
        return [self._check(v) for v in each]

    def inner(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        x, y = self._check(x), self._check(y)
        g = self.gram.num.rows
        total = sum(xi * dot(g[i], y) for i, xi in enumerate(x) if xi)
        return Fraction(total, self.gram.den)

    def norm(self, x: Sequence[int]) -> Fraction:
        return self.inner(x, x)

    # -- classification ----------------------------------------------------

    def is_integral(self) -> bool:
        return self.gram.den == 1

    def integrality(self) -> str:
        """One of "even", "odd", "non-integral".

        For integral lattices parity of norms is decided by the Gram
        diagonal: N(x) = sum g_ii x_i^2 mod 2.
        """
        if not self.is_integral():
            return "non-integral"
        diag = [self.gram.num[i, i] for i in range(self.dim)]
        return "even" if all(d % 2 == 0 for d in diag) else "odd"

    # -- derived lattices ----------------------------------------------------

    def dual(self) -> "GramLattice":
        return GramLattice(self.gram.inverse())

    def rescale(self, c) -> "GramLattice":
        """Same module, form multiplied by c > 0."""
        c = _rational(c)
        if c <= 0:
            raise BadParameter("scale must be positive")
        return GramLattice(self.gram.scaled(c))

    def sublattice(self, generators: Iterable[Sequence[int]]) -> "EmbeddedSublattice":
        """Sublattice generated by the given coordinate vectors."""
        gens = self._check_all(generators)
        h, _ = hnf(IntMatrix(gens))
        rows = [r for r in h.rows if any(r)]
        return EmbeddedSublattice(self, IntMatrix(rows))

    def orthogonal_section(self, w: Sequence[int]) -> "EmbeddedSublattice":
        """The saturated sublattice of all vectors orthogonal to w."""
        w = self._check(w)
        if not any(w):
            raise ZeroVector("section along the zero vector")
        col = IntMatrix([[dot(row, w)] for row in self.gram.num.rows])
        ker = kernel_basis(col)
        return EmbeddedSublattice(self, ker)

    def even_part(self) -> "EmbeddedSublattice":
        """Index-2 sublattice of even-norm vectors of an odd lattice."""
        if not self.is_integral():
            raise NotIntegral("even part needs an integral lattice")
        odd = [i for i in range(self.dim) if self.gram.num[i, i] % 2]
        if not odd:
            raise NotOdd("lattice is already even")
        i0 = odd[0]
        rows = []
        for i in range(self.dim):
            e = [0] * self.dim
            if i == i0:
                e[i0] = 2
            elif i in odd:
                e[i] = 1
                e[i0] = 1
            else:
                e[i] = 1
            rows.append(e)
        sub = self.sublattice(rows)
        if sub.induced.integrality() != "even":
            raise VerificationError("even part came out non-even")
        if sub.induced.det != 4 * self.det:
            raise VerificationError("even part does not have index 2")
        return sub

    def project_along(self, v: Sequence[int]) -> "Projection":
        """Orthogonal projection onto the hyperplane v^perp.

        v must be primitive.  The image of the lattice is again a lattice,
        of dimension one less and determinant det / N(v), and is returned
        with the exact coordinate map.
        """
        v = self._check(v)
        if not any(v):
            raise ZeroVector("projection along the zero vector")
        if math.gcd(*v) != 1:
            raise NotPrimitive(f"gcd of coordinates is {math.gcd(*v)}")
        _, u = hnf(IntMatrix([[c] for c in v]))  # u v^T = e_0
        t = hnf(u)[1].transpose()  # hnf(u) = I, so (u^-1)^T; row 0 == v
        if t.rows[0] != v:
            raise VerificationError("basis completion failed")
        # one Bareiss step on g = t G t^T: (g00 gij - g0i g0j) / (den g00)
        g = gram_product(t.rows, self.gram.num.rows)
        g0, n = g[0], self.dim
        proj = [[g0[0] * g[i][j] - g0[i] * g0[j] for j in range(1, n)]
                for i in range(1, n)]
        lat = GramLattice(RatMatrix(proj, self.gram.den * g0[0]) if n > 1 else [])
        if lat.det * g0[0] != self.det * self.gram.den:  # det / N(v)
            raise VerificationError("projected determinant mismatch")
        return Projection(self, v, lat, u.transpose())


@dataclass(frozen=True, slots=True, eq=False)
class EmbeddedSublattice:
    """A sublattice with its basis written in the ambient coordinates.

    basis_rows is k x n of full row rank; induced is the Gram lattice of
    those basis vectors.  Coordinates convert both ways exactly.
    """

    ambient: GramLattice
    basis_rows: IntMatrix
    induced: GramLattice = field(init=False)

    def __post_init__(self):
        if self.basis_rows.nrows and self.basis_rows.ncols != self.ambient.dim:
            raise DimensionMismatch("basis width != ambient dimension")
        g = self.ambient.gram
        num = gram_product(self.basis_rows.rows, g.num.rows)
        object.__setattr__(self, "induced", GramLattice(RatMatrix(num, g.den)))

    @property
    def dim(self) -> int:
        return self.basis_rows.nrows

    def __repr__(self):
        return f"EmbeddedSublattice(dim {self.dim} in {self.ambient!r})"

    def embed(self, c: Sequence[int]) -> Vec:
        """Ambient coordinates of the sublattice vector c."""
        c = self.induced._check(c)
        if not self.dim:
            return (0,) * self.ambient.dim
        return tuple(imatmul([c], self.basis_rows.rows)[0])

    def coords_of(self, x: Sequence[int]) -> Vec:
        """Sublattice coordinates of an ambient vector; NotInLattice if out."""
        sol = solve_left(self.basis_rows, self.ambient._check(x))
        if sol is None:
            raise NotInLattice("vector outside the sublattice")
        return sol

    def contains(self, x: Sequence[int]) -> bool:
        return solve_left(self.basis_rows, self.ambient._check(x)) is not None

    def restrict(self, inner: "EmbeddedSublattice") -> "EmbeddedSublattice":
        """Compose: a sublattice of this sublattice, in ambient coordinates."""
        if inner.ambient != self.induced:
            raise BadParameter("sublattice lives on a different lattice")
        rows = imatmul(inner.basis_rows.rows, self.basis_rows.rows)
        return EmbeddedSublattice(self.ambient, IntMatrix(rows))


@dataclass(frozen=True, slots=True, eq=False)
class Projection:
    """Result of GramLattice.project_along: image lattice plus the map."""

    source: GramLattice
    vector: Vec
    lattice: GramLattice
    _tinv: IntMatrix

    def coords(self, x: Sequence[int]) -> Vec:
        """Coordinates of the projected vector in the image lattice."""
        # x @ tinv, integer since t is unimodular; coordinate 0 runs along v
        return tuple(imatmul([self.source._check(x)], self._tinv.rows)[0][1:])
