"""Shortest vectors, norm shells and congruence-class shells, exactly.

The pipeline is LLL reduction followed by a depth-first enumeration of
the quadratic form, both in integers on the data of one Bareiss elimination
of the Gram numerator divided by its content g.  That changes no decision
and shrinks the k-th leading minor by g**k, so even lattices such as the
Leech relative lattice walk in int64; one gate, _target, answers without a
walk for norms off the grain or below the minimum.  LLL keeps the leading minors and
scaled Gram-Schmidt coefficients of its current basis, and the walks read
them from its final state: that fraction-free Cholesky data gives A_k =
delta_k * (norm over levels >= k), a Gram determinant, as the integer

    A_k = (delta_k A_{k+1} + (delta_{k+1} x_k + s_k)^2) / delta_{k+1},  A_0 = N(x),

so pruning needs only integer comparisons and isqrt, every reported norm
is exact by construction, and a walk with bound R holds no number above
2 delta_k delta_{k+1} R.

Two kernels walk the same tree and return the same results, and one rule
picks between them: a walk whose Gaussian-heuristic forecast passes
_BUDGET (4,096) nodes is batched, any other walk runs in Python.  The
Python kernel recomputes each centre from the coordinates above it, so
small walks never pay numpy's fixed cost; it alone takes least_vector's
"first" walks, which stop at their first leaf.  The batched kernel walks
level by level on up to _BATCH (2,048) partial vectors at a time: in numpy
int32 when every number of the walk is proven to stay below 2**30 (every
Leech walk), in int64 below 2**62, else in object arrays of Python integers.
Both kernels hand their leaves over as one integer array, which stays one
array through the map back to the input basis, the sign canonicalisation
and the sort, and is cached as it is: only shell and coset_shell make
tuples of it.  A walk one grain below LLL's least diagonal entry proves
the minimum and keeps no vectors: every shell is walked for itself.

No option sets the number of processes.  A walk forecast past _SPLIT nodes
(five times the Leech norm-4 count's) is split by its top-level
values across the CPUs the process may run on, unless it is a "mincount"
walk, or the process may run on one CPU only or is a daemon (_run); the
split changes no result.

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
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MixedNorms, ZeroVector
from .exact import IntMatrix, RatMatrix, _rational, leading_minors, solve_left
from .fastops import _SAFE, _max_abs, gram_product, imatmul, imatmul_array, int_array, row_norms
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
    delta: list[int]
    sub: list[list[int]]
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
    return _Prep(u, lat.dim, Fraction(lat.gram.den, g), delta, sub, seed, grain)


def _primitive(rows: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """(rows / g, g) for the content g of an integer matrix, 1 if empty."""
    g = math.gcd(*(v for row in rows for v in row)) or 1
    return IntMatrix([[v // g for v in row] for row in rows]), g


# Forecast nodes past which a walk is batched, partial vectors per numpy step
# of the batched kernel, and forecast nodes past which _run splits a walk
# across processes.  Fresh `eqlat shell --norm r` processes on two cores, two
# workers against one, were faster in k of 10 alternating pairs (medians):
#   Leech r=4 (forecast 1.91e6)  7   0.45 -> 0.39 s
#   E8 r=36   (4.6e6)            4   0.38 -> 0.40 s
#   D16 r=8   (3.0e6)            8   0.56 -> 0.48 s
#   E8 r=40   (6.9e6)            9   0.47 -> 0.39 s
#   E8 r=50   (1.63e7)           9   0.69 -> 0.53 s
#   D16 r=10  (1.54e7)          10   1.61 -> 1.04 s
# The forecast orders these walks loosely, so the split starts twice above
# the largest that lost, and above every walk of the benchmark's workloads.
_BUDGET = 4096
_BATCH = 2048
_SPLIT = 10_000_000


def _search_chunk(payload: dict) -> object:
    """Enumerate the subtrees under the given top-level coordinate values.

    Top-level function so process pools can pick it up by reference.
    limit is a norm in units of the Gram numerator (x G x^T).  mode: "le"
    collects (norm, coords) leaves with norm <= limit and "shell" the coords
    of leaves with norm == limit; "first" stops at the first leaf of norm
    limit, which is the least in the walk's order (each level ascending, top
    level first); "count" counts leaves of norm limit; "mincount" keeps the
    least nonzero norm found as an inclusive bound, restarts its count
    whenever it lowers that bound, and returns (best, number of leaves at
    best), (limit, 0) if none lies within the bound; it keeps no leaves.  The
    exact-norm modes solve the bottom level in closed form and take its (at
    most two) roots in ascending order.

    A walk whose _forecast passes _BUDGET goes to _batched_walk, any other
    to _walk.  The two kernels share only this contract, so the forecast
    decides no result: both return "shell" and "le" leaves as one integer
    array, a row per leaf ("le" puts the norm in column 0).  "first" walks
    are _walk's alone, which returns the leaf as a list of one tuple.
    """
    return (_batched_walk if _forecast(payload) > _BUDGET else _walk)(payload)[0]


def _forecast(payload: dict) -> float:
    """The Gaussian-heuristic node count of the walk (Hanrot-Stehle 2007):
    the sum over m of V_m(sqrt R) sqrt(delta_{n-m} / delta_n) / 2, with
    R / 4 on a class, a coset of 2L, and each term capped at e**700."""
    n, delta, log = payload["n"], payload["delta"], math.log
    r = log(math.pi) + log(max(payload["limit"], 1)) - (payload["parity"] is not None) * log(4)
    return sum(math.exp(min(m / 2 * r - math.lgamma(m / 2 + 1)
                            + (log(delta[n - m]) - log(delta[n])) / 2, 700))
               for m in range(1, n + 1)) / 2


def _walk(payload: dict) -> tuple[object, int]:
    """The Python kernel: (result, nodes), nodes counting the calls below the
    top level.  Each node computes its centre s_k = sum over j > k of
    sub[k][j-k-1] * x_j afresh.
    """
    n, delta, sub, tops = payload["n"], payload["delta"], payload["sub"], payload["tops"]
    parity, mode, limit = payload["parity"], payload["mode"], payload["limit"]
    step = 2 if parity is not None else 1
    exact = mode in ("shell", "first", "count")
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
            if exact:
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
                if a2 > limit or not a2:
                    continue
                if mode == "le":
                    x[0] = xv
                    out.append((a2, *x))
                else:  # mincount: a smaller norm restarts the count
                    limit, count = a2, (count + 1 if a2 == limit else 1)
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
        out = int_array(out) if out else np.empty((0, n + (mode == "le")), np.int64)
    return {"count": count, "mincount": (limit, count)}.get(mode, out), max(nodes, 0)


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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _ellipsoid(delta: tuple[int, ...], sub: tuple[tuple[int, ...], ...]) -> tuple[tuple, int]:
    # (w, e): w[k] / e = sum_i N_ki^2 delta_i delta_{i+1}, once per walk basis
    inv = RatMatrix([[0] * k + [delta[k + 1], *row] for k, row in enumerate(sub)]).inverse()
    return tuple(sum(v * v * a * b for v, a, b in zip(row, delta, delta[1:]))
                 for row in inv.num.rows), inv.den**2


def _coordinate_bounds(delta: list[int], sub: list[list[int]], limit: int) -> list[int]:
    """The largest |x_k| of a real point of norm sum_k y_k^2 / (delta_k
    delta_{k+1}) <= limit, y = M x with M_kk = delta[k+1] and M_kj =
    sub[k][j-k-1] (j > k), so every node of a walk with that limit has
    |x_k| <= bound[k]: the maximum is sqrt(limit * w[k] / e) for N = M^-1."""
    w, e = _ellipsoid(tuple(delta), tuple(map(tuple, sub)))
    return [math.isqrt(limit * wk // e) for wk in w]


def _walk_types(delta: list[int], sub: list[list[int]], limit: int):
    """(number type, coordinate type) of a batched walk.  Every number the
    walk makes is at most 2 delta_k delta_{k+1} limit in absolute value,
    except the centre sums s_k, at most sum_j |sub[k][j]| bound[j], and
    kmax +- s_k.  So it runs in the first of int32 and int64 whose cap (2**30
    and 2**62) lies above that bound and every centre sum, which keeps
    kmax +- s_k below twice the cap, else in object arrays; coordinates take
    the narrowest type that holds _coordinate_bounds."""
    bound = _coordinate_bounds(delta, sub, limit)
    most = max([2 * max(map(operator.mul, delta, delta[1:])) * max(limit, 1)]
               + [sum(abs(c) * b for c, b in zip(row, bound[k + 1:])) for k, row in enumerate(sub)])
    num = next((t for t, cap in ((np.int32, 2**30), (np.int64, _SAFE)) if most < cap), object)
    return num, _narrowest(max(bound))


def _batched_walk(payload: dict) -> tuple[object, int]:
    """_walk's result from numpy steps on _BATCH partial vectors at a time,
    with nodes, the rows it expanded below the top level.

    Each level queues its rows in _walk's order, with the top-level values
    sorted by absolute value.  A step takes the first _BATCH rows of the
    deepest level that holds that many, else of the highest nonempty level,
    and queues their children at the level below.
    Level k gains rows only from steps at level k + 1, which run only while
    it holds fewer than _BATCH rows and give each row they take at most
    2 bound[k+1] / step + 1 children (_coordinate_bounds), so level k holds
    fewer than _BATCH (2 + 2 bound[k+1] / step) rows; the Leech minimum walk
    peaks at 33,935 queued rows over all levels, at most 5,898 on one, each
    row 24 int8 coordinates and one int32 A_{k+1}.
    A node's candidate values are exactly those with |y_k| <= kmax, so no
    number but the centre sums exceeds 2 delta_k delta_{k+1} limit; the walk
    runs in int32 or int64 where _walk_types proves it exact (int32 on
    Leech), in object arrays of Python integers otherwise.  Coordinates take
    the narrowest type, int8 on Leech.  Rows are gathered with take, which
    is about 5 times faster than fancy indexing on int8 rows.  A "first"
    walk raises ValueError: it stops at its first leaf, which only _walk
    takes.

    The sign rule, x_k >= 0 where every coordinate above k is 0, concerns
    one row per level, the zero-prefix row.  It is the first row queued at
    its level, so row 0 of the first step there: the top-level value 0
    comes first in any order of payload["tops"], and the row's zero child,
    if it has one, is its first child (its values start at 0).  The kernel
    keeps only the level where that row waits; at level 0 its zero child is
    the zero vector, which is no leaf.

    "mincount" lowers its bound at leaves, which _walk sees at once but a
    step takes in only when its rows were already made, so rows are checked
    against the live bound when they are taken.  So nodes is _walk's count
    wherever the bound never lowers: every "le", "shell" and "count" walk,
    and a "mincount" walk that starts at its minimum.  Otherwise it lies
    between _walk's count and that of the "count" walk at the first bound,
    whose tree holds every row made here.
    """
    n, delta, sub = payload["n"], payload["delta"], payload["sub"]
    parity, mode, limit = payload["parity"], payload["mode"], payload["limit"]
    if mode == "first":
        raise ValueError('"first" walks run in _walk alone')
    top = n - 1
    # 0 first: its row is the zero-prefix row
    tops = sorted((t for t in payload["tops"] if delta[n] * t * t <= delta[top] * limit), key=abs)
    num, dtype = _walk_types(delta, sub, limit)
    step = 2 if parity is not None else 1
    exact = mode in ("shell", "count")
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
        if mode == "mincount" and acc.max() > d * limit:
            keep = np.flatnonzero(acc <= d * limit)  # never the zero-prefix row: its acc is 0
            x, acc = x.take(keep, axis=0), acc.take(keep)
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
        if k == 0 and exact:
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
        kv = d * xv + s.take(row)
        a2 = (dk * acc.take(row) + kv * kv) // d
        if k:
            child = x.take(row, axis=0)
            child[:, k] = xv
            queue[k - 1] = (np.concatenate((queue[k - 1][0], child)),
                            np.concatenate((queue[k - 1][1], a2)))
            continue
        if lead:  # the zero vector is not a leaf
            row, xv, a2 = row[1:], xv[1:], a2[1:]
        if mode == "le":
            leaves = np.empty((len(a2), n + 1), dtype=num)
            leaves[:, 1:] = x.take(row, axis=0)
            leaves[:, 0] = a2
            leaves[:, 1] = xv
            out.append(leaves)
        elif len(a2):  # mincount
            best = int(a2.min())
            if best < limit:
                limit, count = best, 0
            count += int(np.count_nonzero(a2 == limit))
    if mode in ("shell", "le"):
        out = np.concatenate(out) if out else np.empty((0, n + (mode == "le")), num)
    return {"count": count, "mincount": (limit, count)}.get(mode, out), nodes


def _top_values(delta: list[int], limit: int, parity) -> list[int]:
    """Top-level values of a walk: at least 0 (sign rule), within the bound."""
    if limit < 0:
        return []
    d = delta[-1]
    hi = math.isqrt(delta[-2] * d * limit) // d
    return list(range(hi + 1) if parity is None else range(parity[-1], hi + 1, 2))


def _run(prep: _Prep, mode: str, limit: int, parity) -> object:
    """The walk's result, split across min(top-level values, CPUs) worker
    processes, each taking every workers-th top-level value, when all hold:
    its _forecast passes _SPLIT; it is no "mincount" walk, whose forecast is
    taken at a bound the walk lowers, and whose workers would each lower
    their own; the process may run on more than one CPU (its affinity mask
    where the platform has one, so taskset limits it, else os.cpu_count());
    and it is no daemon, which may start no children (a multiprocessing.Pool
    worker).  Else it walks in this process."""
    tops = _top_values(prep.delta, limit, parity) if prep.n else []
    payload = {"n": prep.n, "delta": prep.delta, "sub": prep.sub, "parity": parity,
               "mode": mode, "limit": limit, "tops": tops}
    workers = 1
    if mode != "mincount" and _forecast(payload) > _SPLIT:
        import multiprocessing  # only a walk past _SPLIT pays this import

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = 1 if multiprocessing.current_process().daemon else min(len(tops), cpus)
    if workers <= 1:
        return _search_chunk(payload)
    from concurrent.futures import ProcessPoolExecutor

    jobs = [dict(payload, tops=tops[i::workers]) for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_search_chunk, jobs))
    return sum(results) if mode == "count" else np.concatenate(results)


# ---------------------------------------------------------------------------
# Coordinate plumbing


def _narrowest(bound: int):
    """The narrowest of int8, int16, int32 and int64 that holds [-bound,
    bound], else object (Python integers)."""
    types = np.int8, np.int16, np.int32, np.int64
    return next((t for t in types if bound <= np.iinfo(t).max), object)


def _canonical(rows: np.ndarray, key: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """(rows, key) in a shell's canonical form, rows left as they are: each
    row signed so that its first nonzero entry is positive, in the narrowest
    integer type, sorted (by key first if given) and without repeats."""
    if not rows.size:
        return rows.astype(np.int8), key
    rows = rows.astype(_narrowest(_max_abs(rows)), copy=False)  # so -rows fits
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    rows = np.where((lead < 0)[:, None], -rows, rows)
    order = np.lexsort([*rows.T[::-1], *([] if key is None else [key])])
    rows = rows.take(order, axis=0)
    new = np.ones(len(rows), bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new], None if key is None else key[order][new]


def _tuples(rows: np.ndarray) -> tuple[Vec, ...]:
    """Integer rows as tuples of Python integers, a block at a time, in a list
    made at full length: a growing list leaves its old copies in the heap."""
    out = [None] * len(rows)
    for i in range(0, len(rows), _BATCH):
        out[i:i + _BATCH] = map(tuple, rows[i:i + _BATCH].tolist())
    return tuple(out)


def _parity_reduced(prep: _Prep, parity: Sequence[int]) -> tuple[int, ...]:
    # x = y U: x has class p mod 2 iff y, the solution of y U = p, has it mod 2
    return tuple(v % 2 for v in solve_left(prep.u, parity))


# ---------------------------------------------------------------------------
# Public interface

@functools.lru_cache(maxsize=_CACHE_SIZE)
def _min_count(lat: GramLattice) -> tuple[Fraction, int | None]:
    """(minimum, number of +-pairs there or None where no walk counted them).
    The seed is attained and every norm a multiple of the grain, so the
    minimum is the seed unless a "mincount" walk at seed - grain, made if
    that is positive, finds a leaf: then its best and count.  On Leech (seed
    4, grain 2) that walk has 14,978 nodes; counting the pairs at 4, 1,971,697."""
    if lat.dim == 0:
        raise DimensionMismatch("empty lattice has no minimum")
    prep = _prep(lat)
    best, count = _run(prep, "mincount", prep.seed - prep.grain, None) if prep.seed > prep.grain else (0, 0)
    return (Fraction(best, prep.den), count) if count else (Fraction(prep.seed, prep.den), None)


def minimum(lat: GramLattice) -> Fraction:
    """Exact minimum norm of the nonzero vectors, proven by a walk one grain
    below LLL's least diagonal entry that keeps no vectors (_min_count)."""
    return _min_count(lat)[0]


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
        found = not rest and _walk({
            "n": len(rows), "delta": delta, "sub": sub, "parity": None, "mode": "first",
            "limit": q, "tops": [1] if lifted else _top_values(delta, q, None),
        })[0]
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
        rows, _ = _canonical(imatmul_array(_run(prep, "shell", t, pr), prep.u.rows))
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
    rules r out, the minimum's count where its walk made one, else a "count" walk."""
    gate = _target(lat, r)
    if gate is None:
        return 0
    prep, t = gate
    if t < prep.seed:  # past the gate, so the minimum's walk counted the pairs at m
        m, count = _min_count(lat)
        if t == m * prep.den:
            return count
    return _run(prep, "count", t, None)


def vectors_upto(lat: GramLattice, r) -> list[tuple[Fraction, Vec]]:
    """Sorted (norm, representative) for all +-pairs with 0 < norm <= r, from
    one "le" walk at the largest multiple of the grain at or below r den."""
    prep = _prep(lat)
    if not prep.n:
        return []
    found = _run(prep, "le", math.floor(_rational(r) * prep.den / prep.grain) * prep.grain, None)
    rows, norms = _canonical(imatmul_array(found[:, 1:], prep.u.rows), found[:, 0])
    return [(Fraction(a, prep.den), v) for a, v in zip(norms.tolist(), _tuples(rows))]


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


def coset_minimum(lat: GramLattice, parity: Sequence[int]) -> Fraction:
    """Least norm in the congruence class of parity mod 2L."""
    x = lat._check(parity)
    prep = _prep(lat)
    pr = _parity_reduced(prep, _class_parity(x))
    lifts = [imatmul([pr], prep.u.rows)[0], x]  # both in the class
    norm = Fraction(min(row_norms(lifts, lat.gram.num.rows).tolist()), lat.gram.den)
    best, _ = _run(prep, "mincount", int(norm * prep.den), pr)
    return Fraction(best, prep.den)


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
