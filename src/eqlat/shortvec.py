"""Shortest vectors, norm shells and congruence-class shells, exactly.

The pipeline is LLL reduction followed by a depth-first enumeration of
the quadratic form, both entirely in Python integers on the data of a
Bareiss elimination of the Gram matrix.  LLL keeps the leading minors and
scaled Gram-Schmidt coefficients of its current basis; in the reduced
basis, the same fraction-free Cholesky data gives the form as

    E * N(x) = sum_k g_k * (delta_{k+1} x_k + s_k)^2

with all quantities integral, so pruning needs only integer comparisons
and isqrt, and every reported norm is exact by construction.  The walk
keeps a table of partial centre sums, one row per level, and on entering
a level recomputes only the terms whose coordinates have changed since
its last visit (Schnorr-Euchner), so a node costs a few multiply-adds
instead of one per coordinate above it.

Walks run in LLL bases, so their cost does not depend on how the input
is written.  least_vector answers in the input basis with one walk per
coordinate: the prefix found so far (held at 1) and the next unit vector
on top of an LLL basis of the rest, a coset walk as in Schnorr-Euchner.

Congruence classes mod 2L are enumerated directly by stepping coordinates
in twos; because -x lies in the class of x, the usual sign-halving trick
applies to classes as well, and everything downstream works with one
representative per +-pair.
"""

from __future__ import annotations

import functools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    MixedNorms,
    ZeroVector,
)
from .exact import IntMatrix, RatMatrix, hnf, leading_minors
from .fastops import gram_product, imatmul_rows
from .lattice import GramLattice, Vec

__all__ = [
    "set_threads",
    "get_threads",
    "lll_reduce",
    "minimum",
    "least_vector",
    "shell",
    "shell_count",
    "vectors_upto",
    "coset_shell",
    "coset_minimum",
    "PairSet",
]

_THREADS = 1


def set_threads(n: int) -> None:
    """Worker processes for top-level enumeration splitting; 1 = serial."""
    global _THREADS
    if isinstance(n, bool):
        raise TypeError("thread count must be an integer, not a bool")
    n = operator.index(n)
    if n < 1:
        raise ValueError("thread count must be >= 1")
    _THREADS = n


def get_threads() -> int:
    return _THREADS


# ---------------------------------------------------------------------------
# LLL on the Gram matrix


def lll_reduce(lat: GramLattice) -> tuple[GramLattice, IntMatrix]:
    """LLL-reduce a lattice given only by its Gram matrix, with delta = 99/100.

    Returns (reduced, U) with reduced.gram == U G U^T and det U = +-1.
    Integral LLL (de Weger 1987; Cohen, Alg. 2.6.7): the state is the
    Bareiss data of the current basis, d[k] the k-th leading minor and
    lam[k][l] = d[l+1] mu_kl, so every decision is an integer comparison
    and every update an exact division.
    """
    n = lat.dim
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n <= 1:
        return lat, IntMatrix(u)
    d, sub = leading_minors(lat.gram.num)
    lam = [[sub[l][k - l - 1] for l in range(k)] for k in range(n)]

    def red(k: int, l: int) -> None:
        dl = d[l + 1]
        q = (2 * lam[k][l] + dl) // (2 * dl)  # floor(mu_kl + 1/2)
        if q == 0:
            return
        u[k] = [a - q * b for a, b in zip(u[k], u[l])]
        row = lam[k]
        for j, v in enumerate(lam[l]):
            row[j] -= q * v
        row[l] -= q * dl

    def swap(k: int) -> None:
        u[k - 1], u[k] = u[k], u[k - 1]
        m = lam[k][k - 1]  # unchanged by the swap
        lam[k - 1], lam[k] = lam[k][:k - 1], lam[k - 1] + [m]
        big = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            row, t = lam[i], lam[i][k]
            row[k] = (d[k + 1] * row[k - 1] - m * t) // d[k]
            row[k - 1] = (big * t + m * row[k]) // d[k + 1]
        d[k] = big

    k = 1
    while k < n:
        red(k, k - 1)
        # Lovasz: B_k < (99/100 - mu^2) B_{k-1}, times 100 d[k] d[k-1]
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1

    num = IntMatrix(gram_product(u, lat.gram.num.rows))
    return GramLattice(RatMatrix(num, lat.gram.den)), IntMatrix(u)


# ---------------------------------------------------------------------------
# Fraction-free enumeration data


def _walk_data(num: IntMatrix) -> tuple[list[int], list[list[int]], list[int], int]:
    """Walk data (delta, sub, g, E) of a Gram matrix in its own basis, from
    its Bareiss minors: E * N(x) = sum_k g_k * (delta_{k+1} x_k + s_k)^2."""
    delta, sub = leading_minors(num)
    e = [delta[k] * delta[k + 1] for k in range(num.nrows)]
    escale = math.lcm(*e) if e else 1
    return delta, sub, [escale // ek for ek in e], escale


class _Prep:
    __slots__ = ("lat", "red", "u", "uinv", "n", "den", "delta", "sub", "g", "escale")

    def __init__(self, lat: GramLattice):
        """Enumeration data in the LLL basis of lat."""
        red, u = lll_reduce(lat)
        self.lat = lat
        self.red = red
        self.u = u
        self.uinv = hnf(u)[1]  # the HNF of a unimodular U is I
        self.n = lat.dim
        self.den = red.gram.den
        self.delta, self.sub, self.g, self.escale = _walk_data(red.gram.num)


# Entries kept by each result cache below; least recently used go first.
_CACHE_SIZE = 512


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _prep(lat: GramLattice) -> _Prep:
    return _Prep(lat)


def _search_chunk(payload: dict) -> object:
    """Enumerate the subtrees under the given top-level coordinate values.

    Top-level function so process pools can pick it up by reference.
    mode: "le" collects (scaled_norm, coords) leaves and "shell" the coords
    of exact-norm leaves; "first" stops at the first exact-norm leaf, which
    is the least in the walk's order (each level ascending, top level
    first); "count" counts exact-norm leaves; "mincount" keeps the least
    nonzero scaled norm found as an inclusive bound and returns (best,
    leaves at best).  The exact-norm modes solve the bottom level in closed
    form and take its (at most two) roots in ascending order.

    Centres come from the partial-sum table ps[k][j] = sum over l >= j of
    sub[k][l-k-1] * x_l, with ps[k][n] = 0, so s_k = ps[k][k+1].  stale[k]
    is the highest j whose x_j changed since row k was last brought up to
    date: entering level k refreshes ps[k][j] for j from stale[k] down to
    k+1 only, hands stale[k] down to stale[k-1] and resets it to k+1, the
    one coordinate that changes before level k is entered again unless a
    higher level moves first.
    """
    n = payload["n"]
    delta = payload["delta"]
    sub = payload["sub"]
    g = payload["g"]
    parity = payload["parity"]
    mode = payload["mode"]
    target = payload["target"]
    limit = payload["limit"]
    tops = payload["tops"]
    step = 2 if parity is not None else 1
    exact = mode in ("shell", "first", "count")
    isqrt = math.isqrt
    top = n - 1
    x = [0] * n
    ps = [[0] * (n + 1) for _ in range(n)]
    stale = [top] * n
    out: list = []
    count = 0

    def rec(k: int, acc: int, zero_above: bool) -> None:
        nonlocal count, limit
        row = sub[k]
        p = ps[k]
        j = stale[k]
        s = p[j + 1]
        while j > k:
            s += row[j - k - 1] * x[j]
            p[j] = s
            j -= 1
        if k and stale[k - 1] < stale[k]:
            stale[k - 1] = stale[k]
        stale[k] = k + 1
        d = delta[k + 1]
        gk = g[k]
        kmax = isqrt((limit - acc) // gk)
        lo = -((kmax + s) // d)
        if zero_above and lo < 0:
            lo = 0
        if parity is not None and (lo - parity[k]) % 2:
            lo += 1
        values = tops if k == top else range(lo, (kmax - s) // d + 1, step)
        if k == 0:
            if exact:
                # g_0 (d x_0 + s)^2 = target - acc, roots taken ascending
                q, r = divmod(target - acc, gk)
                if r or q < 0 or not target:  # norm 0 is the zero vector alone
                    return
                kk = isqrt(q)
                if kk * kk != q:
                    return
                for kv in (-kk, kk) if kk else (0,):
                    xv, r = divmod(kv - s, d)
                    if r or xv not in values:
                        continue
                    if mode == "count":
                        count += 1
                        continue
                    x[0] = xv
                    out.append(tuple(x))
                    if mode == "first":
                        limit = -1  # every pending branch now fails its bound
                        return
                return
            for xv in values:
                kv = d * xv + s
                a2 = acc + gk * kv * kv
                if a2 > limit or not a2:
                    continue
                if mode == "le":
                    x[0] = xv
                    out.append((a2, tuple(x)))
                    continue
                if a2 < limit:  # mincount: a smaller norm restarts the count
                    limit = a2
                    count = 0
                count += 1
            return
        for xv in values:
            kv = d * xv + s
            a2 = acc + gk * kv * kv
            if a2 <= limit:
                x[k] = xv
                rec(k - 1, a2, zero_above and not xv)

    if tops:
        rec(top, 0, True)
    if mode == "count":
        return count
    if mode == "mincount":
        return limit, count
    return out


def _top_values(delta: list[int], g: list[int], limit: int, parity) -> list[int]:
    """Top-level values of a walk: at least 0 (sign rule), within the bound."""
    if limit < 0:
        return []
    top = len(g) - 1
    lo, hi = 0, math.isqrt(limit // g[top]) // delta[top + 1]
    if parity is not None and (lo - parity[top]) % 2:
        lo += 1
    step = 2 if parity is not None else 1
    return list(range(lo, hi + 1, step))


def _run(prep: _Prep, mode: str, limit: int, target: int | None, parity) -> object:
    tops = _top_values(prep.delta, prep.g, limit, parity) if prep.n else []
    if not tops:
        return {"count": 0, "mincount": (limit, 0)}.get(mode, [])
    payload = {"n": prep.n, "delta": prep.delta, "sub": prep.sub, "g": prep.g,
               "parity": parity, "mode": mode, "target": target, "limit": limit}
    threads = _THREADS
    if threads <= 1 or len(tops) < 2:
        return _search_chunk(dict(payload, tops=tops))
    jobs = [dict(payload, tops=tops[i::threads]) for i in range(min(threads, len(tops)))]
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        results = list(pool.map(_search_chunk, jobs))
    if mode == "count":
        return sum(results)
    if mode == "mincount":
        best = min(b for b, _ in results)
        return best, sum(c for b, c in results if b == best)
    return [v for r in results for v in r]


# ---------------------------------------------------------------------------
# Coordinate plumbing


def _canonical(v: Vec) -> Vec:
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple(-w for w in v)
    return v


def _map_back(prep: _Prep, coords_red: list[Vec]) -> list[Vec]:
    return [_canonical(tuple(v)) for v in imatmul_rows(coords_red, prep.u.to_lists())]


def _parity_reduced(prep: _Prep, parity: Sequence[int]) -> tuple[int, ...]:
    # x = y U: x has class p mod 2 iff y has class p U^-1 mod 2.
    uinv = prep.uinv.rows
    n = prep.n
    return tuple(
        sum(parity[i] * uinv[i][j] for i in range(n)) % 2 for j in range(n)
    )


def _scaled_target(prep: _Prep, r) -> int | None:
    """target for E * (x num x) == E * r * den, or None if r is unreachable."""
    t = Fraction(r) * prep.den
    if t.denominator != 1:
        return None
    return prep.escale * int(t)


def _scaled_limit(prep: _Prep, r) -> int:
    t = Fraction(r) * prep.den
    return prep.escale * math.floor(t)


# ---------------------------------------------------------------------------
# Public interface

@functools.lru_cache(maxsize=_CACHE_SIZE)
def _min_count(lat: GramLattice) -> tuple[Fraction, int]:
    """(minimum, number of +-pairs at the minimum) from one walk."""
    if lat.dim == 0:
        raise DimensionMismatch("empty lattice has no minimum")
    prep = _prep(lat)
    seed = min(prep.red.gram.num[i, i] for i in range(prep.n))  # attained
    best, count = _run(prep, "mincount", prep.escale * seed, None, None)
    return Fraction(best // prep.escale, prep.den), count


def minimum(lat: GramLattice) -> Fraction:
    """Exact minimum norm of the nonzero vectors.

    One walk finds the minimum and counts its pairs; the count is kept for
    shell_count.
    """
    return _min_count(lat)[0]


def least_vector(lat: GramLattice, r) -> Vec | None:
    """shell(lat, r)[0] without building the shell, or None if it is empty.

    x_i is the least value a norm-r vector extending x_0..x_{i-1} takes (at
    least 0 while that prefix w is 0), found by one "first" walk whose basis
    is, from the top level down, w held at 1 (left out while 0), e_i with
    ascending values, and an LLL basis of span(e_{i+1}, ..), whose Gram is a
    trailing block of G.  So at most dim walks, each one path deep.
    """
    n = lat.dim
    t = Fraction(r) * lat.gram.den
    if not n or t.denominator != 1 or t <= 0:
        return None
    num = lat.gram.num.rows
    x: list[int] = []
    for i in range(n):
        _, u = lll_reduce(GramLattice([row[i + 1:] for row in num[i + 1:]]))
        rows = [[0] * (i + 1) + list(row) for row in u.rows]
        rows.append([int(j == i) for j in range(n)])
        lifted = any(x)
        if lifted:
            rows.append(x + [0] * (n - i))
        delta, sub, g, escale = _walk_data(IntMatrix(gram_product(rows, num)))
        target = escale * int(t)
        found = _search_chunk({
            "n": len(rows), "delta": delta, "sub": sub, "g": g, "parity": None,
            "mode": "first", "target": target, "limit": target,
            "tops": [1] if lifted else _top_values(delta, g, target, None),
        })
        if not found:
            return None
        x.append(found[0][len(rows) - 1 - lifted])
    return tuple(x)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _coset_shell(lat: GramLattice, parity: tuple[int, ...] | None,
                 r: Fraction) -> tuple[Vec, ...]:
    """The sorted norm-r shell, of the class parity mod 2L unless None."""
    prep = _prep(lat)
    target = _scaled_target(prep, r)
    if target is None or target <= 0:
        return ()
    pr = None if parity is None else _parity_reduced(prep, parity)
    return tuple(sorted(_map_back(prep, _run(prep, "shell", target, target, pr))))


def shell(lat: GramLattice, r) -> tuple[Vec, ...]:
    """All +-pairs of vectors of norm exactly r, one representative each.

    Representatives have positive leading coordinate and come sorted, so
    the result is canonical.
    """
    return _coset_shell(lat, None, Fraction(r))


def shell_count(lat: GramLattice, r) -> int:
    """Number of +-pairs of norm exactly r, without storing vectors."""
    r = Fraction(r)
    prep = _prep(lat)
    target = _scaled_target(prep, r)
    if target is None or target <= 0 or not prep.n:
        return 0
    m, count = _min_count(lat)
    if r <= m:
        return count if r == m else 0
    return _run(prep, "count", target, target, None)


def vectors_upto(lat: GramLattice, r) -> list[tuple[Fraction, Vec]]:
    """Sorted (norm, representative) for all +-pairs with 0 < norm <= r."""
    prep = _prep(lat)
    limit = _scaled_limit(prep, r)
    found = _run(prep, "le", limit, None, None)
    es = prep.escale
    vecs = _map_back(prep, [v for _, v in found])
    return sorted(
        (Fraction(a // es, prep.den), v)
        for (a, _), v in zip(found, vecs)
    )


def _check_parity(lat: GramLattice, parity: Sequence[int]) -> tuple[int, ...]:
    if len(parity) != lat.dim:
        raise DimensionMismatch("parity vector has wrong length")
    p = tuple(int(v) % 2 for v in parity)
    if not any(p):
        raise ZeroVector("class of 0 mod 2L is the lattice itself")
    return p


def coset_shell(lat: GramLattice, parity: Sequence[int], r) -> tuple[Vec, ...]:
    """Vectors congruent to parity mod 2L with norm exactly r, as +-pairs.

    parity is read mod 2 coordinatewise.  Since -x = x mod 2L, the class is
    a union of +-pairs and one representative per pair is returned.
    """
    return _coset_shell(lat, _check_parity(lat, parity), Fraction(r))


def coset_minimum(lat: GramLattice, parity: Sequence[int]) -> Fraction:
    """Least norm in the congruence class of parity mod 2L."""
    p = _check_parity(lat, parity)
    prep = _prep(lat)
    seed = lat.norm(p)  # the 0/1 lift itself lies in the class
    pr = _parity_reduced(prep, p)
    best, _ = _run(prep, "mincount", _scaled_limit(prep, seed), None, pr)
    return Fraction(best // prep.escale, prep.den)


@dataclass(frozen=True, slots=True)
class PairSet:
    """A finite set of +-pairs of lattice vectors of one common norm.

    Built from any iterable of vectors; reps holds one canonical
    representative per pair, sorted, and norm is their common norm (None
    when empty).  Equality compares the lattice and the representatives.
    """

    lattice: GramLattice
    reps: tuple[Vec, ...]
    norm: Fraction | None = field(init=False, compare=False)

    def __post_init__(self):
        n = self.lattice.dim
        seen = set()
        for v in self.reps:
            v = _canonical(tuple(int(c) for c in v))
            if not any(v):
                raise ZeroVector("pair sets cannot contain 0")
            if len(v) != n:
                raise DimensionMismatch(f"vector length {len(v)} != {n}")
            seen.add(v)
        reps = tuple(sorted(seen))
        gram = self.lattice.gram
        norms = {sum(map(operator.mul, row, v))
                 for row, v in zip(imatmul_rows(reps, gram.num.to_lists()), reps)}
        if len(norms) > 1:
            raise MixedNorms(f"norms {sorted(Fraction(a, gram.den) for a in norms)}")
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "norm", Fraction(norms.pop(), gram.den) if norms else None)

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self):
        return iter(self.reps)

    def __repr__(self):
        return f"PairSet({len(self.reps)} pairs of norm {self.norm})"

    def signed(self) -> list[Vec]:
        out = []
        for v in self.reps:
            out.append(v)
            out.append(tuple(-c for c in v))
        return out

    def contains(self, v: Sequence[int]) -> bool:
        return _canonical(tuple(int(c) for c in v)) in self.reps
