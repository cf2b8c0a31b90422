"""Shortest vectors, norm shells and congruence-class shells, exactly.

The pipeline is LLL reduction followed by a depth-first enumeration of
the quadratic form, both in integers on the data of one Bareiss elimination
of the Gram numerator divided by its content g.  That changes no decision
and shrinks the k-th leading minor by g**k, so even lattices such as the
Leech relative lattice walk in int64; one gate, _target, answers without a
walk for norms off the grain or below the minimum.  LLL keeps the leading
minors and scaled Gram-Schmidt coefficients of its current basis, and the
walks read them from its final state, fraction-free Cholesky data: A_k =
delta_k * (norm over levels >= k), a Gram determinant, is the integer

    A_k = (delta_k A_{k+1} + (delta_{k+1} x_k + s_k)^2) / delta_{k+1},  A_0 = N(x),

so pruning needs only integer comparisons and isqrt, every reported norm
is exact by construction, and a walk with bound R holds no number above
2 delta_k delta_{k+1} R.

A walk is a value, a frozen Walk, and _run is the one way into it: it
picks the kernel, splits a batched walk forecast past _SPLIT nodes across
the CPUs the process may run on (no option sets the number of processes;
it walks a share, forked workers the others), and returns one frozen
WalkResult, the mode's answer with the nodes of its tree and the kernel
taken, whose value the public functions read.  Every bound is fixed, so
the kernels give the same results and node counts: a walk whose
Gaussian-heuristic forecast passes _BUDGET (4,096) nodes is batched, numpy
steps on _BATCH (2,048) partial vectors in the narrowest exact number type
(int32 on Leech), but a count past _BUDGET and any walk past _SPLIT run in
one process in _class_walk, on the translation classes of their subtrees,
batched only where these rarely merge; any other walk, and least_vector's
"first" walks, the only ones that stop early, run in Python.  Leaves stay
one narrow integer array up to shell's tuples.  A
minimum is the least norm of an "le" walk: one grain below LLL's least
diagonal entry, or at doubling bounds in a class.

Walks run in LLL bases, so their cost does not depend on how the input
is written; least_vector's coset walks (Schnorr-Euchner) answer in it.

Congruence classes mod 2L are enumerated directly by stepping coordinates
in twos, from the class parity in the reduced basis, which is solved over
GF(2); because -x lies in the class of x, the usual sign-halving trick
applies to classes as well, and everything downstream works with one
representative per +-pair.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
import pickle
import struct
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MixedNorms, TooLarge, ZeroVector
from .exact import IntMatrix, RatMatrix, _rational, leading_minors
from .fastops import _BLOCK, _SAFE, _max_abs, gram_product, int_array, row_norms
from .lattice import GramLattice, Vec

__all__ = [
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

# ---------------------------------------------------------------------------
# LLL on the Gram matrix


def lll_reduce(lat: GramLattice) -> tuple[GramLattice, IntMatrix]:
    """LLL-reduce a lattice given only by its Gram matrix, with delta = 99/100.

    Returns (reduced, U) with reduced.gram == U G U^T and det U = +-1.
    """
    u = _lll(lat.gram.num)[0]
    return GramLattice(RatMatrix(gram_product(u.rows, lat.gram.num.rows), lat.gram.den)), u


def _lll(g: IntMatrix) -> tuple[IntMatrix, list[int], list[list[int]]]:
    """(U, leading_minors(U g U^T)) for the LLL transform U of the Gram matrix g.

    Integral LLL (de Weger 1987; Cohen, Alg. 2.6.7): the state is the
    Bareiss data of the current basis, d[k] the k-th leading minor and
    lam[k][l] = d[l+1] mu_kl, so every decision is an integer comparison
    and every update an exact division; the final state is the result.
    """
    n = g.nrows
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d, sub = leading_minors(g)
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

    return IntMatrix(u), d, [[lam[i][k] for i in range(k + 1, n)] for k in range(n)]


# ---------------------------------------------------------------------------
# Fraction-free enumeration data


@dataclass(frozen=True, slots=True)
class _Prep:
    """_lll's data of G, the Gram numerator divided by its content g; seed,
    the least diagonal entry of u G u^T, attained; and grain, gcd(G_ii,
    2 G_ij), which divides every x G x^T: 2 if each G_ii is even, else 1, as
    G has content 1.  Norms in walk units are norms times den."""

    u: IntMatrix
    n: int
    den: Fraction
    delta: tuple[int, ...]
    sub: tuple[tuple[int, ...], ...]
    seed: int
    grain: int


# Entries kept by each result cache below; least recently used go first.
_CACHE_SIZE = 512


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _prep(lat: GramLattice) -> _Prep:
    num, g = _primitive(lat.gram.num.rows)  # LLL's tests are homogeneous
    u, delta, sub = _lll(num)  # unimodular: U G U^T keeps den
    seed = min(row_norms(u.rows, num.rows).tolist(), default=0)
    grain = 1 if any(row[i] % 2 for i, row in enumerate(num.rows)) else 2
    return _Prep(u, lat.dim, Fraction(lat.gram.den, g), tuple(delta), tuple(map(tuple, sub)), seed, grain)


def _primitive(rows: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """(rows / g, g) for the content g of an integer matrix, 1 if empty."""
    g = math.gcd(*(v for row in rows for v in row)) or 1
    return IntMatrix([[v // g for v in row] for row in rows]), g


# Forecast nodes past which a walk is batched, partial vectors per numpy step of
# the batched kernel, and forecast nodes past which _run walks any walk by its
# classes of subtrees, split only where these do not merge.  In fresh `eqlat shell`
# processes on two cores (walk time, 10 pairs), a split lost on E8's norm-20
# count (forecast 4.9e5; 19 -> 25 ms, 3 of 10) and won in 10 of 10 on E8's norms
# 24-36 (9.8e5-4.6e6), A16's 8 and Leech's 4 (1.9e6; 139 -> 115 ms), batched
# counts then; the forecast orders walks loosely, so the split starts twice above
# the largest that lost.  Classes win past it (Leech's norm-4 shell: 25-40 ms,
# 160-260 batched), not below (its x0-class shell at 10: 11-14 ms, 7 batched).
_BUDGET = 4096
_BATCH = 2048
_SPLIT = 1_000_000
# Bytes of leaves past which _class_walk refuses a "shell" or "le" walk, as soon
# as it knows their number and before it stores one: over 5 times Leech's norm-6
# shell (8,386,560 x 24 int8, 201 MB, 495 MB at the peak of `eqlat shell
# --vectors`), under a quarter of its norm-8 shell (4.8 GB).
_STORE = 2**30


@dataclass(frozen=True, slots=True)
class Walk:
    """One walk: the Bareiss data delta (n + 1 leading minors) and sub of its
    basis, the class parity mod 2 or None, the mode, the bound limit, a norm
    of the Gram numerator (x G x^T), and tops, the top-level values it takes.
    Each mode has one answer: "le" the leaves of norm <= limit and "shell"
    those of norm limit, as an integer array, a row per leaf; "count" the
    number of leaves of norm limit; "first" the first of them in the walk's
    order (each level ascending, top level first), as a list of one tuple.
    Every bound is fixed: only a "first" walk stops early.  A "count" walk
    past _BUDGET, and any other past _SPLIT, runs in _class_walk, on its
    classes of subtrees, and never splits unless they do not merge; there a
    walk whose leaves pass _STORE bytes raises TooLarge."""

    delta: tuple[int, ...]
    sub: tuple[tuple[int, ...], ...]
    parity: tuple[int, ...] | None
    mode: str
    limit: int
    tops: tuple[int, ...]

    @classmethod
    def of(cls, prep: _Prep, mode: str, limit: int, parity: tuple[int, ...] | None = None) -> Walk:
        """The walk of prep's basis over every top-level value within the bound."""
        tops = _top_values(prep.delta, limit, parity) if prep.n else ()
        return cls(prep.delta, prep.sub, parity, mode, limit, tops)

    @property
    def n(self) -> int:
        return len(self.delta) - 1

    def forecast(self) -> float:
        """The Gaussian-heuristic node count (Hanrot-Stehle 2007): the sum
        over m of V_m(sqrt R) sqrt(delta_{n-m} / delta_n) / 2, with R / 4 on
        a class, a coset of 2L, and each term capped at e**700."""
        n, delta, log = self.n, self.delta, math.log
        r = log(math.pi) + log(max(self.limit, 1)) - (self.parity is not None) * log(4)
        return sum(math.exp(min(m / 2 * r - math.lgamma(m / 2 + 1)
                                + (log(delta[n - m]) - log(delta[n])) / 2, 700))
                   for m in range(1, n + 1)) / 2


@dataclass(frozen=True, slots=True)
class WalkResult:
    """A walk's answer as its mode asks, nodes below the top level, kernel taken."""

    value: object
    nodes: int
    kernel: str


def _walk(walk: Walk) -> WalkResult:
    """The Python kernel, nodes counting the calls below the top level.
    Each node computes its centre s_k = sum over j > k of sub[k][j-k-1] * x_j
    afresh, so small walks never pay numpy's fixed cost."""
    n, delta, sub, tops = walk.n, walk.delta, walk.sub, walk.tops
    parity, mode, limit = walk.parity, walk.mode, walk.limit
    step = 2 if parity is not None else 1
    isqrt = math.isqrt
    top = n - 1
    x = [0] * n
    out: list = []
    count = 0
    nodes = -1  # the call at the top level is not a node

    def rec(k: int, acc: int, zero_above: bool) -> None:
        # acc is A_{k+1}, at most delta[k+1] * limit
        nonlocal count, limit, nodes
        nodes += 1
        s = sum(map(operator.mul, sub[k], x[k + 1:]))
        d, dk = delta[k + 1], delta[k]
        kmax = isqrt(dk * (d * limit - acc))
        lo = -((kmax + s) // d)
        if zero_above and lo < 0:
            lo = 0
        if parity is not None and (lo - parity[k]) % 2:
            lo += 1
        values = tops if k == top else range(lo, (kmax - s) // d + 1, step)
        if k == 0:
            if mode != "le":
                # (d x_0 + s)^2 = d * limit - acc, roots taken ascending
                q = d * limit - acc
                if q < 0 or not limit:  # norm 0 is the zero vector alone
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
                a2 = (acc + kv * kv) // d  # the norm, as delta[0] = 1
                if 0 < a2 <= limit:  # "le"
                    x[0] = xv
                    out.append(tuple(x))
            return
        acc *= dk
        for xv in values:
            kv = d * xv + s
            a2 = (acc + kv * kv) // d
            if a2 <= dk * limit:
                x[k] = xv
                rec(k - 1, a2, zero_above and not xv)

    if tops:
        rec(top, 0, True)
    if mode in ("shell", "le"):
        out = int_array(out) if out else np.empty((0, n), np.int64)
    return WalkResult(count if mode == "count" else out, max(nodes, 0), "walk")


def _isqrt(q: np.ndarray) -> np.ndarray:
    """floor(sqrt(q)) of nonnegative entries, in q's type: math.isqrt on
    Python integers; for int32 entries, and int64 entries below 2**62, the
    float root, below 2**31 with relative error under 2**-52 and so off by
    at most one, fixed by one integer comparison each way, so no float
    decides a root."""
    if q.dtype == object:
        return np.frompyfunc(math.isqrt, 1, 1)(q)
    r = np.sqrt(q, dtype=np.float64).astype(q.dtype)
    r -= r * r > q
    r += (r + 1) * (r + 1) <= q
    return r


def _ranges(lo: np.ndarray, hi: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) of the values lo[i], lo[i] + step, .. <= hi[i], row by
    row; value in lo's type."""
    cnt = np.maximum((hi - lo) // step + 1, 0).astype(np.intp)
    row = np.repeat(np.arange(len(lo)), cnt)
    first = np.cumsum(cnt) - cnt
    return row, lo.take(row) + (step * (np.arange(len(row)) - first.take(row))).astype(lo.dtype)


def _coordinate_bounds(delta: tuple[int, ...], sub: tuple[tuple[int, ...], ...], limit: int) -> list[int]:
    """The largest |x_k| of a real point of norm sum_k y_k^2 / (delta_k
    delta_{k+1}) <= limit, y = M x with M_kk = delta[k+1] and M_kj =
    sub[k][j-k-1] (j > k), so every node of a walk with that limit has
    |x_k| <= bound[k]: the maximum is sqrt(limit sum_j X_kj^2 delta_j
    delta_{j+1}) / D for X = D M^-1, D = det M.  X is M's adjugate, so each
    column comes in integers by back-substitution with exact divisions."""
    n, d = len(sub), math.prod(delta[1:])
    w = [0] * n
    for j in range(n):
        x = [0] * j + [d // delta[j + 1]]  # X_kj for k <= j, from k = j down
        for k in range(j - 1, -1, -1):
            x[k] = -sum(map(operator.mul, sub[k], x[k + 1:])) // delta[k + 1]
        for k, v in enumerate(x):
            w[k] += v * v * delta[j] * delta[j + 1]
    return [math.isqrt(limit * wk // (d * d)) for wk in w]


def _walk_types(walk: Walk):
    """(number type, coordinate type) of a batched walk.  Every number the
    walk makes is at most 2 delta_k delta_{k+1} limit in absolute value,
    except the centre sums s_k, at most sum_j |sub[k][j]| bound[j], and
    kmax +- s_k.  So it runs in the first of int32 and int64 whose cap (2**30
    and 2**62) lies above that bound and every centre sum, which keeps
    kmax +- s_k below twice the cap, else in object arrays; coordinates take
    the narrowest type that holds _coordinate_bounds."""
    delta, sub, limit = walk.delta, walk.sub, walk.limit
    bound = _coordinate_bounds(delta, sub, limit)
    most = max([2 * max(map(operator.mul, delta, delta[1:])) * max(limit, 1)]
               + [sum(abs(c) * b for c, b in zip(row, bound[k + 1:])) for k, row in enumerate(sub)])
    num = next((t for t, cap in ((np.int32, 2**30), (np.int64, _SAFE)) if most < cap), object)
    return num, _narrowest(max(bound))


def _batched_walk(walk: Walk) -> WalkResult:
    """_walk's record from numpy steps on _BATCH partial vectors at a time:
    the bound is fixed, so the rows it expands below the top level are its nodes.

    Each level queues its rows in _walk's order, with the top-level values
    sorted by absolute value.  A step takes the first _BATCH rows of the
    deepest level that holds that many, else of the highest nonempty level,
    and queues their children at the level below.
    Level k gains rows only from steps at level k + 1, which run only while
    it holds fewer than _BATCH rows and give each row they take at most
    2 bound[k+1] / step + 1 children (_coordinate_bounds), so level k holds
    fewer than _BATCH (2 + 2 bound[k+1] / step) rows; Leech's x0-class shell
    walk at 10 peaks at 7,086 queued rows over all levels, at most 3,956 on one,
    each row 24 int8 coordinates and one int32 A_{k+1}.
    It runs in the number and coordinate types _walk_types proves exact
    (int32 and int8 on Leech), as a node's candidate values are exactly
    those with |y_k| <= kmax.  Rows are gathered with take, about 5 times
    faster than fancy indexing on int8 rows.  A "first" walk raises
    ValueError: only _walk takes it.

    The sign rule, x_k >= 0 where every coordinate above k is 0, concerns
    one row per level, the zero-prefix row.  It is the first row queued at
    its level, so row 0 of the first step there: the top-level value 0
    comes first in any order of walk.tops, and the row's zero child,
    if it has one, is its first child (its values start at 0).  The kernel
    keeps only the level where that row waits; at level 0 its zero child is
    the zero vector, which is no leaf.
    """
    n, delta, sub = walk.n, walk.delta, walk.sub
    parity, mode, limit = walk.parity, walk.mode, walk.limit
    if mode == "first":
        raise ValueError('"first" walks run in _walk alone')
    top = n - 1
    # 0 first: its row is the zero-prefix row
    tops = sorted((t for t in walk.tops if delta[n] * t * t <= delta[top] * limit), key=abs)
    num, dtype = _walk_types(walk)
    step = 2 if parity is not None else 1
    subs = [np.array(r, dtype=num) for r in sub]
    # queue[k]: rows of level k not taken yet, (x, acc = A_{k+1}); the first
    # row queued at level zero has only zeros above it (-1: no such row left)
    queue = [(np.zeros((c, n), dtype), np.zeros(c, num)) for c in [0] * top + [1]]
    zero = top
    nodes = count = 0
    out: list = []
    while True:
        sizes = [len(q[1]) for q in queue]
        k = next((j for j, c in enumerate(sizes) if c >= _BATCH),
                 max((j for j, c in enumerate(sizes) if c), default=-1))
        if k < 0:
            break
        x, acc = (a[:_BATCH] for a in queue[k])
        queue[k] = tuple(a[_BATCH:] for a in queue[k])
        d, dk = delta[k + 1], delta[k]
        if k < top:
            nodes += len(acc)
        s = np.zeros(1, num) if k == top else x[:, k + 1:] @ subs[k]
        kmax = _isqrt(dk * (d * limit - acc))
        lo = -((kmax + s) // d)
        hi = (kmax - s) // d
        za = k == zero and len(lo)  # row 0 has only zeros above it
        if za:
            zero = -1
            lo[0] = max(lo[0], 0)
        if parity is not None:
            lo += (lo - parity[k]) % 2
        if k == 0 and mode != "le":
            # (d x_0 + s)^2 = d * limit - acc, roots taken ascending
            q = d * limit - acc
            kk = _isqrt(np.maximum(q, 0))
            ok = (q >= 0) & (kk * kk == q) & bool(limit)
            row = np.repeat(np.arange(len(acc)), 2)
            ok = np.column_stack([ok, ok & (kk != 0)]).ravel()
            kv = np.column_stack([-kk, kk]).ravel() - s.take(row)
            xv = kv // d
            ok &= kv % d == 0
            if k == top:
                ok &= np.isin(xv, tops)
            else:
                ok &= (lo.take(row) <= xv) & (xv <= hi.take(row)) & ((xv - lo.take(row)) % step == 0)
            hits = np.flatnonzero(ok)
            if mode == "count":
                count += len(hits)
            else:
                leaves = x.take(row.take(hits), axis=0)
                leaves[:, 0] = xv.take(hits)
                out.append(leaves)
            continue
        if k == top:
            row, xv = np.zeros(len(tops), dtype=np.intp), np.array(tops, dtype=num)
        else:
            row, xv = _ranges(lo, hi, step)
        lead = za and len(xv) and not row[0] and not xv[0]  # its zero child
        if lead:
            zero = k - 1
        if k:
            kv = d * xv + s.take(row)
            child = x.take(row, axis=0)
            child[:, k] = xv
            queue[k - 1] = (np.concatenate((queue[k - 1][0], child)),
                            np.concatenate((queue[k - 1][1], (dk * acc.take(row) + kv * kv) // d)))
            continue
        if lead:  # the zero vector is not a leaf
            row, xv = row[1:], xv[1:]
        leaves = x.take(row, axis=0)  # "le": every value is within the bound
        leaves[:, 0] = xv
        out.append(leaves)
    if mode in ("shell", "le"):
        out = np.concatenate(out) if out else np.empty((0, n), dtype)
    return WalkResult(count if mode == "count" else out, nodes, "batched")


def _class_type(walk: Walk):
    """_class_walk's number type, as _walk_types picks it, for numbers at
    most 2 delta_k delta_{k+1} limit, delta_{k+1} X_k for X_k = kmax //
    delta_{k+1} + step + 2, the bound on |x_k|, and the centres b_j of a
    level-k child (M as in _class_walk): below step delta_{j+1} + X_k |M_jk|,
    and reducing entry i, by |q_i| <= b_i / (step delta_{i+1}) + 1, adds at
    most |q_i| step |M_ji| to b_j for each j < i."""
    delta, sub, limit, step = walk.delta, walk.sub, max(walk.limit, 1), 1 + (walk.parity is not None)
    most = [2 * max(map(operator.mul, delta, delta[1:])) * limit]
    for k in range(walk.n):
        x = math.isqrt(delta[k] * delta[k + 1] * limit) // delta[k + 1] + step + 2
        b = [step * delta[j + 1] + x * abs(sub[j][k - j - 1]) for j in range(k)]
        for i in range(k - 1, 0, -1):
            q = b[i] // (step * delta[i + 1]) + 1
            b[:i] = [v + q * step * abs(sub[j][i - j - 1]) for j, v in enumerate(b[:i])]
        most += b + [delta[k + 1] * x]
    return next((t for t, cap in ((np.int32, 2**30), (np.int64, _SAFE)) if max(most) < cap), object)


def _class_walk(walk: Walk) -> WalkResult | None:
    """_walk's record of a "count", "shell" or "le" walk from a dynamic
    program over the levels that pays for a level's distinct subtrees, not
    its nodes.  A level-k row's subtree depends only on its A_{k+1} and the
    centres t_j (j <= k) its coordinates above k give: bounds read y = M x +
    t, M the triangular matrix of levels <= k (M_jj = delta_{j+1}, M_ji =
    sub[j][i-j-1]), so translating x_0..x_k by z (even in a class) maps it
    onto the subtree of t + M z.  A level keeps states (t, A), t reduced to
    0 <= t_j < step delta_{j+1} from the last entry down, with multiplicities
    summed where they meet (sorted by a hash of the column, lexsort on
    object arrays: a collision only keeps two apart), int64 while a level
    sums below 2**63; nodes sum them, and they weight level 0's closed-form
    roots.  The zero-prefix row is the state with A = 0: it keeps the sign
    rule.  A state costs about four batched nodes, so a level of more than
    _BATCH states that are over a quarter of its nodes (a large determinant
    against the norm) gives None, for _run to walk batched in bounded
    memory; Leech's norm-4 tree has 20,238 states for 1,971,697 nodes, at
    most 4.5% of a level's there.

    A count keeps nothing else.  Any other walk keeps each state's edges:
    its row, value and reduction as one translation (x_k, -step q_j), and
    the child's state.  Leaves below each state, summed up the levels, drop
    the edges to none, and past _STORE bytes at the root raise TooLarge
    before any row is built; then the leaves are each state's suffixes,
    built up from level 0 (the leaves of an edge are its child's, translated by it),
    joined at one level to the paths down from the root (true coordinates
    above it, translations below), the level that makes fewest rows.  No
    level makes more rows than the walk has leaves, and the join fills the
    leaves _BLOCK rows at a time, in the batched kernel's coordinate type;
    the leaves come in another order than _walk's."""
    n, delta, sub, parity, limit, mode = walk.n, walk.delta, walk.sub, walk.parity, walk.limit, walk.mode
    step = 2 if parity is not None else 1
    num = _class_type(walk)
    cols = [np.array([sub[j][k - j - 1] for j in range(k)] + [delta[k + 1]], num)[:, None] for k in range(n)]
    mix = np.array([pow(0x9E3779B97F4A7C15, j + 1, 2**64) for j in range(n + 1)], np.uint64)
    tops = np.array([v for v in walk.tops if delta[n] * v * v <= delta[n - 1] * limit], num)  # the root's values
    s, w = np.zeros((n + 1, 1), num), np.ones(1, np.int64)  # level k: columns (t_0..t_k, A_{k+1})
    nodes = count = 0
    edges = []  # level n - 1 down: multiplicities, then (row, child, translation) per edge
    for k in range(n - 1, -1, -1):
        d, dk, t, a = delta[k + 1], delta[k], s[k], s[k + 1]
        level = int(w.sum())
        if len(w) > _BATCH and 4 * len(w) > level:  # the classes do not merge
            return None
        nodes += level if k < n - 1 else 0
        kmax = _isqrt(dk * (d * limit - a))
        lo, hi = -((kmax + t) // d), (kmax - t) // d
        np.maximum(lo, 0, out=lo, where=a == 0)  # the sign rule
        if parity is not None:
            lo += (lo - parity[k]) % 2
        if k == 0 and mode != "le":  # (d x_0 + t_0)^2 = d limit - a, roots as in _batched_walk
            root = (kmax * kmax == d * limit - a) & (limit > 0)
            y = np.stack([-kmax, kmax])
            x, r = (y - t) // d, (y - t) % d  # no divmod on object arrays
            ok = np.stack([root, root & (kmax != 0)]) & (r == 0)
            ok &= np.isin(x, walk.tops) if n == 1 else (x >= lo) & ((x - lo) % step == 0)
            count += sum(int(w[hit].sum()) for hit in ok)
            row, xv = np.nonzero(ok.T)[0], x.T[ok.T]
        else:
            row, xv = _ranges(lo, hi, step) if k < n - 1 else (np.zeros(len(tops), np.intp), tops)
        if k == 0:
            keep = (xv != 0) | (a.take(row) != 0)  # "le": all but the zero vector
            edges.append((w, row[keep], np.zeros(keep.sum(), np.intp), xv[keep, None]))
            break
        y = d * xv + t.take(row)
        s = s[:k + 1].take(row, axis=1)
        s[k] = (dk * a.take(row) + y * y) // d
        s[:k] += cols[k][:-1] * xv
        z = np.empty((k + 1, len(xv)), num)  # x_k, then -step q_j as t_j is reduced
        z[k] = xv
        for j in range(k - 1, -1, -1):
            q = s[j] // (step * delta[j + 1])
            z[j] = -step * q
            s[:j + 1] -= q * (step * cols[j])
        ws, w = w, w.take(row)
        if w.dtype != object and int(w.max(initial=0)) * len(w) >= 2**63:
            w = w.astype(object)
        order = np.lexsort(s) if num is object else np.argsort(mix[:k + 1] @ s.astype(np.uint64))
        s, w = s.take(order, axis=1), w.take(order)
        new = np.append(s.shape[1] > 0, (s[:, 1:] != s[:, :-1]).any(axis=0))
        first = np.flatnonzero(new)
        s, w = s.take(first, axis=1), np.add.reduceat(w, first)
        if mode != "count":
            child = np.empty(len(order), np.intp)
            child[order] = np.cumsum(new) - 1
            edges.append((ws, row, child, z.T))
    if mode == "count":
        return WalkResult(count, nodes, "classes")
    edges.reverse()  # edges[k]: level k's; cnt[k + 1]: leaves below each level-k state
    cnt = [np.ones(1, np.intp)]
    for k, (ws, row, child, z) in enumerate(edges):
        keep = (m := cnt[k].take(child)) > 0
        edges[k] = ws, row[keep], child[keep], z[keep]
        cnt.append(np.bincount(row[keep], m[keep], len(ws)).astype(np.intp))  # exact: far below 2**53
    leaves, coord = int(cnt[-1].sum()), _walk_types(walk)[1]  # leaves below the root
    if (size := leaves * n * np.dtype(coord).itemsize) > _STORE:
        raise TooLarge(f"the {mode} walk would store {leaves:,} vectors ({size / 2**20:,.0f} MiB),"
                       f" past the limit of {_STORE / 2**20:,.0f} MiB")
    suffixes = [int(c.sum()) * (k + 1) for k, c in enumerate(cnt[1:])]
    paths = [int(ws[c > 0].sum()) * n for (ws, *_), c in zip(edges, cnt[1:])]
    mid = min(range(n), key=lambda k: sum(suffixes[:k + 1]) + sum(paths[k:n - 1]))
    s = np.zeros((1, 0), np.int8)  # the suffixes of each state, state by state
    for (_, _, child, z), c in zip(edges[:mid + 1], cnt):
        start = (np.cumsum(c) - c).take(child)
        s = _add_rows(z, s, *_ranges(start, start + c.take(child) - 1, 1))
    p, at = np.zeros((1, n), np.int8), np.zeros(1, np.intp)  # each path and its state
    for ws, row, child, z in edges[:mid:-1]:
        c = np.bincount(row, minlength=len(ws))
        start = (np.cumsum(c) - c).take(at)
        rep, e = _ranges(start, start + c.take(at) - 1, 1)
        p, at = _add_rows(p, z, rep, e), child.take(e)
    c, size = cnt[mid + 1], cnt[mid + 1].take(at)
    ends = np.cumsum(size)
    first = (np.cumsum(c) - c).take(at) - ends + size  # row r of path i is suffix first[i] + r
    out = np.empty((int(ends[-1]) if len(ends) else 0, n), coord)
    num = _narrowest(_max_abs(p) + _max_abs(s))
    for r in range(0, len(out), _BLOCK):
        rows = np.arange(r, min(r + _BLOCK, len(out)))
        i = np.searchsorted(ends, rows, "right")
        out[r:r + _BLOCK] = _add_rows(p, s, i, first.take(i) + rows, num)
    return WalkResult(out, nodes, "classes")


def _add_rows(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray, num=None) -> np.ndarray:
    """a[i] + b[j], b on a's first columns, in num, else the narrowest type that holds it."""
    num = num or _narrowest(_max_abs(a) + _max_abs(b))
    out = a.take(i, axis=0).astype(num, copy=False)
    out[:, :b.shape[1]] += b.take(j, axis=0).astype(num, copy=False)
    return out


def _top_values(delta: tuple[int, ...], limit: int, parity) -> tuple[int, ...]:
    """Top-level values of a walk: at least 0 (sign rule), within the bound."""
    if limit < 0:
        return ()
    d = delta[-1]
    hi = math.isqrt(delta[-2] * d * limit) // d
    return tuple(range(hi + 1) if parity is None else range(parity[-1], hi + 1, 2))


def _share(kernel, walk: Walk, fd: int, parent: int) -> None:
    """A forked worker: it writes to fd the pickled WalkResult of its share,
    or the exception it raised (a signal's too), and leaves by os._exit, 0
    only after a record, never running the parent's finally blocks or stdio
    flushes.  On Linux it dies with the parent, even by SIGKILL."""
    try:
        if sys.platform.startswith("linux"):
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
        if os.getppid() == parent:  # else the parent died before prctl
            try:
                record = kernel(walk)
            except BaseException as exc:  # the parent raises it
                record = exc
            with open(fd, "wb") as pipe:
                pickle.dump(record, pipe)
            os._exit(int(isinstance(record, BaseException)))
    finally:
        os._exit(1)


def _load(pipe):
    """What a worker wrote to pipe, or None if that is no whole record."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # none, or cut short as by the OOM killer
        return None


def _record(record, code: int) -> WalkResult:
    """A worker's WalkResult from what it wrote and its exit status: what a
    worker raised is raised here, and a worker that died or wrote no whole
    record, ChildProcessError."""
    if code == 0 and isinstance(record, WalkResult):
        return record
    raise record if isinstance(record, BaseException) else ChildProcessError(f"a walk worker ended: {code}")


def _run(walk: Walk) -> WalkResult:
    """The one way into a walk.  A "first" walk, whose forecast says nothing
    of its cost as it stops at its first leaf, goes to _walk; a walk whose
    forecast passes _BUDGET, if a count, or _SPLIT too, to _class_walk,
    unsplit, as shares would repeat their common states; any other, or one
    whose classes do not merge, to _batched_walk if its forecast passes
    _BUDGET, else to _walk: each gives Walk's answer.  Past _SPLIT its
    top-level values are dealt to min(top-level values, CPUs) shares, one
    walked here and one by each forked worker, unless the process may run
    on one CPU (taskset limits it) or is a daemonic multiprocessing worker,
    whose caller runs a job per CPU."""
    if walk.mode == "first":
        return _walk(walk)
    forecast = walk.forecast()
    if forecast > _BUDGET and (walk.mode == "count" or forecast > _SPLIT) and (classes := _class_walk(walk)):
        return classes
    kernel = _batched_walk if forecast > _BUDGET else _walk
    workers = 1
    if forecast > _SPLIT:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        mp = sys.modules.get("multiprocessing")  # not imported: no daemon
        workers = 1 if mp and mp.current_process().daemon else min(len(walk.tops), cpus)
    if workers <= 1:
        return kernel(walk)
    shares = [replace(walk, tops=walk.tops[i::workers]) for i in range(workers)]
    parent, children, done = os.getpid(), [], False
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                _share(kernel, share, w, parent)
            children.append((pid, open(r, "rb")))
            os.close(w)
        parts = [kernel(shares[0])]
        records = [_load(pipe) for _, pipe in children]
        done = True
    finally:  # reap every worker, killed first on any exception (a signal the CLI raises)
        codes = []
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, 9)  # SIGKILL
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    parts += map(_record, records, codes)
    values = [part.value for part in parts]
    return WalkResult(sum(values) if walk.mode == "count" else np.concatenate(values),
                      sum(part.nodes for part in parts), parts[0].kernel)


# ---------------------------------------------------------------------------
# Coordinate plumbing


def _narrowest(bound: int):
    """The narrowest of int8, int16, int32 and int64 that holds [-bound,
    bound], else object (Python integers)."""
    types = np.int8, np.int16, np.int32, np.int64
    return next((t for t in types if bound <= np.iinfo(t).max), object)


def _map_back(lat: GramLattice, leaves: np.ndarray) -> np.ndarray:
    """The leaves of a walk in _prep(lat)'s basis, in the input basis:
    leaves @ U, _BLOCK rows at a time, each multiplied in the narrowest type
    holding every product and partial sum (max |leaf| max |U_ij| n), stored
    in the leaves' type, widened to hold each block (int8 on Leech norms 4, 6)."""
    u = int_array(_prep(lat).u.rows)
    num = _narrowest(_max_abs(leaves) * _max_abs(u) * len(u))
    u = u.astype(num)
    out = np.empty(leaves.shape, leaves.dtype)
    for i in range(0, len(leaves), _BLOCK):
        # einsum's integer loop: 16 ms on Leech's norm-4 leaves, matmul's 31 ms
        block = np.einsum("ij,jk->ik", leaves[i:i + _BLOCK].astype(num), u)
        out = out.astype(np.promote_types(out.dtype, _narrowest(_max_abs(block))), copy=False)
        out[i:i + _BLOCK] = block
    return out


def _canonical(rows: np.ndarray, key: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """(rows, key) in a shell's canonical form: each row signed so that its
    first nonzero entry is positive, in the narrowest integer type, sorted
    (by key first if given), without repeats.  Signs flip in place, in rows
    itself if it has that type, so callers pass arrays they own; repeats are
    found _BLOCK rows at a time, so no temporary but the sort's is full size."""
    out = rows.astype(_narrowest(_max_abs(rows)), copy=False)  # -rows fits
    if not out.size:
        return out, key
    for i in range(0, len(out), _BLOCK):
        block = out[i:i + _BLOCK]
        lead = block[np.arange(len(block)), (block != 0).argmax(axis=1)]
        np.negative(block, out=block, where=(lead < 0)[:, None])
    order = np.lexsort([*out.T[::-1], *([] if key is None else [key])])
    out = out.take(order, axis=0)
    new = np.ones(len(out), bool)
    for i in range(1, len(out), _BLOCK):
        j = min(i + _BLOCK, len(out))
        new[i:j] = (out[i:j] != out[i - 1:j - 1]).any(axis=1)
    return out if new.all() else out[new], None if key is None else key.take(order)[new]


# struct's codes of the signed integers of 1, 2, 4 and 8 bytes
_STRUCT = {1: "b", 2: "h", 4: "i", 8: "q"}


def _tuples(rows: np.ndarray) -> tuple[Vec, ...]:
    """Integer rows as tuples of Python integers, each made in C by
    struct.iter_unpack from the array's bytes (copied only if not
    C-contiguous in native order); tuple() sizes the result once from the
    iterator's length hint.  Object and empty arrays go through tolist."""
    if rows.dtype.kind != "i" or not rows.size:
        return tuple(map(tuple, rows.tolist()))
    rows = np.ascontiguousarray(rows, rows.dtype.newbyteorder("="))
    return tuple(struct.iter_unpack(f"={rows.shape[1]}{_STRUCT[rows.itemsize]}", rows))


def _parity_reduced(prep: _Prep, parity: Sequence[int]) -> tuple[int, ...]:
    """y mod 2 for y U = parity mod 2, so x = y U has x's class iff y has y's,
    by elimination over GF(2) on bit-mask rows: U mod 2 is invertible, as U
    is unimodular, so parity's row, appended to U's, reduces to 0 with the
    combination e_n + y."""
    pivots = []  # (lowest bit, row, combination of the rows as a mask)
    for k, row in enumerate((*prep.u.rows, parity)):
        mask, comb = sum((v & 1) << i for i, v in enumerate(row)), 1 << k
        for bit, m, c in pivots:
            if mask & bit:
                mask, comb = mask ^ m, comb ^ c
        pivots.append((mask & -mask, mask, comb))
    return tuple(comb >> k & 1 for k in range(prep.n))


# ---------------------------------------------------------------------------
# Public interface

@functools.lru_cache(maxsize=_CACHE_SIZE)
def _minimum(lat: GramLattice) -> Fraction:
    """The seed is attained and every norm a multiple of the grain, so the
    minimum is the seed unless vectors_upto at seed - grain, walked if that
    is positive, lists a norm below it, the least of which it lists first.
    On Leech (seed 4, grain 2) that "le" walk has 14,978 nodes and no leaf."""
    if lat.dim == 0:
        raise DimensionMismatch("empty lattice has no minimum")
    prep = _prep(lat)
    below = vectors_upto(lat, Fraction(prep.seed - prep.grain, prep.den)) if prep.seed > prep.grain else []
    return below[0][0] if below else Fraction(prep.seed, prep.den)


def minimum(lat: GramLattice) -> Fraction:
    """Exact minimum norm of the nonzero vectors, proven by one walk a grain
    below LLL's least diagonal entry (_minimum)."""
    return _minimum(lat)


def _target(lat: GramLattice, r) -> tuple[_Prep, int] | None:
    """(_prep(lat), r den), the norm r in walk units, or None where no nonzero
    vector has norm r: r den is no positive multiple of the grain, the lattice
    is empty, or r lies below the minimum, asked only below the attained seed."""
    r = _rational(r)
    prep = _prep(lat)
    t = r * prep.den
    if t <= 0 or t % prep.grain or not prep.n or t < prep.seed and r < minimum(lat):
        return None
    return prep, int(t)


def least_vector(lat: GramLattice, r) -> Vec | None:
    """shell(lat, r)[0] without building the shell, or None if it is empty.

    x_i is the least value a norm-r vector extending x_0..x_{i-1} takes (at
    least 0 while that prefix w is 0), found by one "first" walk whose basis
    is, from the top level down, w held at 1 (left out while 0), e_i with
    ascending values, and an LLL basis of span(e_{i+1}, ..), whose Gram is a
    trailing block of G.  So at most dim walks, each one path deep, and
    none where _target rules r out.
    """
    gate = _target(lat, r)
    if gate is None:
        return None
    n, t = lat.dim, gate[1]
    num = _primitive(lat.gram.num.rows)[0].rows  # t is a norm of this Gram
    x: list[int] = []
    for i in range(n):
        u = _lll(IntMatrix([row[i + 1:] for row in num[i + 1:]]))[0]
        rows = [[0] * (i + 1) + list(row) for row in u.rows]
        rows.append([int(j == i) for j in range(n)])
        lifted = any(x)
        if lifted:
            rows.append(x + [0] * (n - i))
        gram, g = _primitive(gram_product(rows, num))
        q, rest = divmod(t, g)  # every norm in the span of rows is a multiple of g
        delta, sub = leading_minors(gram)
        tops = (1,) if lifted else _top_values(delta, q, None)
        found = not rest and _run(Walk(tuple(delta), tuple(map(tuple, sub)), None, "first", q, tops)).value
        if not found:
            return None
        x.append(found[0][len(rows) - 1 - lifted])
    return tuple(x)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _coset_shell(lat: GramLattice, parity: tuple[int, ...] | None, r: Fraction) -> np.ndarray:
    """The norm-r shell, of the class parity mod 2L unless None, as _canonical
    rows, read-only as callers share it: one "shell" walk at r, or empty
    without a walk where _target rules r out."""
    gate = _target(lat, r)
    rows = np.zeros((0, lat.dim), np.int8)
    if gate:
        prep, t = gate
        pr = None if parity is None else _parity_reduced(prep, parity)
        rows, _ = _canonical(_map_back(lat, _run(Walk.of(prep, "shell", t, pr)).value))
    rows.flags.writeable = False
    return rows


def _shell_rows(lat: GramLattice, r, parity: Sequence[int] | None = None) -> np.ndarray:
    """The cached array behind shell(lat, r), or coset_shell(lat, parity, r)."""
    return _coset_shell(lat, None if parity is None else _class_parity(lat._check(parity)), _rational(r))


def shell(lat: GramLattice, r) -> tuple[Vec, ...]:
    """All +-pairs of vectors of norm exactly r, one representative each.

    Representatives have positive leading coordinate and come sorted, so
    the result is canonical.
    """
    return _tuples(_shell_rows(lat, r))


def shell_count(lat: GramLattice, r) -> int:
    """Number of +-pairs of norm exactly r, storing no vectors: 0 where _target
    rules r out, else one "count" walk."""
    gate = _target(lat, r)
    return 0 if gate is None else _run(Walk.of(gate[0], "count", gate[1])).value


def vectors_upto(lat: GramLattice, r) -> list[tuple[Fraction, Vec]]:
    """Sorted (norm, representative) for all +-pairs with 0 < norm <= r, from
    one "le" walk at the largest multiple of the grain at or below r den."""
    prep = _prep(lat)
    if not prep.n:
        return []
    limit = math.floor(_rational(r) * prep.den / prep.grain) * prep.grain
    found = _map_back(lat, _run(Walk.of(prep, "le", limit)).value)
    rows, norms = _canonical(found, row_norms(found, lat.gram.num.rows))
    return [(Fraction(a, lat.gram.den), v) for a, v in zip(norms.tolist(), _tuples(rows))]


def _class_parity(x: Vec) -> tuple[int, ...]:
    p = tuple(v % 2 for v in x)
    if not any(p):
        raise ZeroVector("class of 0 mod 2L is the lattice itself")
    return p


def coset_shell(lat: GramLattice, parity: Sequence[int], r) -> tuple[Vec, ...]:
    """Vectors congruent to parity mod 2L with norm exactly r, as +-pairs.

    parity is read mod 2 coordinatewise.  Since -x = x mod 2L, the class is
    a union of +-pairs and one representative per pair is returned.
    """
    return _tuples(_shell_rows(lat, r, parity))


def _coset_least(lat: GramLattice, parity: Sequence[int]) -> tuple[Fraction, np.ndarray]:
    """(least norm, coset_shell's rows there) in the class of parity mod 2L,
    from the leaves of the first nonempty "le" class walk at m, 2m, 4m, ..
    (m the minimum) capped at N(x), which x attains: 1 + ceil(log2(N(x) / m)) walks at most."""
    x = lat._check(parity)
    prep = _prep(lat)
    pr = _parity_reduced(prep, _class_parity(x))
    cap, limit = int(lat.norm(x) * prep.den), int(minimum(lat) * prep.den)
    while not len(found := _run(Walk.of(prep, "le", min(limit, cap), pr)).value):
        limit *= 2
    found = _map_back(lat, found)
    norms = row_norms(found, lat.gram.num.rows)
    least = norms.min()
    return Fraction(int(least), lat.gram.den), _canonical(found[norms == least])[0]


def coset_minimum(lat: GramLattice, parity: Sequence[int]) -> Fraction:
    """Least norm in the congruence class of parity mod 2L (_coset_least)."""
    return _coset_least(lat, parity)[0]


@dataclass(frozen=True, slots=True)
class PairSet:
    """A finite set of +-pairs of lattice vectors of one common norm.

    Built from an iterable of vectors or an integer array; reps holds one
    representative per pair in shell's canonical form (positive leading
    coordinate, sorted, tuples of Python integers), and norm is their
    common norm (None when empty).  Equality compares the lattice and the
    representatives.
    """

    lattice: GramLattice
    reps: tuple[Vec, ...]
    norm: Fraction | None = field(init=False, compare=False)

    def __post_init__(self):
        lat, rows = self.lattice, self.reps
        if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "bi"):  # casts round 0.99 to 0
            rows = int_array(lat._check_all(rows) or np.zeros((0, lat.dim), np.int8))
        elif rows.shape[1:] != (lat.dim,):
            raise DimensionMismatch(f"vectors are not rows of length {lat.dim}")
        else:
            rows = rows.copy()  # _canonical works on the rows it is given
        if not (rows != 0).any(axis=1).all():
            raise ZeroVector("pair sets cannot contain 0")
        rows, _ = _canonical(rows)
        gram = lat.gram
        norms = set(row_norms(rows, gram.num.rows).tolist())
        if len(norms) > 1:
            raise MixedNorms(f"norms {sorted(Fraction(a, gram.den) for a in norms)}")
        object.__setattr__(self, "reps", _tuples(rows))
        object.__setattr__(self, "norm", Fraction(norms.pop(), gram.den) if norms else None)

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self):
        return iter(self.reps)

    def __repr__(self):
        return f"PairSet({len(self.reps)} pairs of norm {self.norm})"

    def signed(self) -> list[Vec]:
        return [w for v in self.reps for w in (v, tuple(-c for c in v))]

    def contains(self, v: Sequence[int]) -> bool:
        v = self.lattice._check(v)
        return v in self.reps or tuple(-c for c in v) in self.reps
