"""Shell sizes against theta series (tests/oracles.py::theta_series).

The series are closed forms in integers, so they share nothing with the
walks: LLL, the walk data, the content division, both kernels and the map
back to the input basis are checked at once, on standard bases, on skewed
copies and on skewed copies scaled by 2, whose Gram content the walks
divide out.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from oracles import theta_series
from test_mod2 import skewed_basis

from eqlat import shortvec
from eqlat.constructions import leech, root_lattice
from eqlat.exact import IntMatrix
from eqlat.lattice import GramLattice
from eqlat.shortvec import shell, shell_count, vectors_upto

FAMILIES = [("Z", n) for n in (1, 2, 3, 5, 8)] + [("D", n) for n in range(4, 17)] + [("E", 8)]

# each lattice is checked at every norm up to the first whose walk forecasts
# more than NODES nodes, and at most up to TOP
NODES, TOP = 1000, 10


def standard(name, n):
    return GramLattice(IntMatrix.identity(n)) if name == "Z" else root_lattice(name, n).lattice


def top_norm(lat):
    """The first norm whose walk on lat forecasts more than NODES, at most TOP."""
    prep = shortvec._prep(lat)
    return next(r for r in range(1, TOP + 1) if r == TOP or shortvec._forecast(
        {"n": prep.n, "delta": prep.delta, "limit": r, "parity": None}) > NODES)


def norms(lat, rows):
    """The norm of each row in lat's input basis, v G v^T in numpy int64
    (the entries here are small)."""
    v = np.array(rows, dtype=np.int64).reshape(len(rows), lat.dim)
    num = (v @ np.array(lat.gram.num.rows, dtype=np.int64) * v).sum(axis=1)
    return [Fraction(a, lat.gram.den) for a in num.tolist()]


@pytest.mark.parametrize("budget, batch", [(0, shortvec._BATCH), (0, 16), (math.inf, None)],
                         ids=["batched", "small-batches", "python"])
def test_shell_sizes_match_theta_series(monkeypatch, budget, batch):
    """shell_count, len(shell) and the vectors_upto histogram give half the
    theta coefficient at every norm, and every vector has its norm in the
    input basis, with every walk in the one kernel the budget forces: 0
    sends each to the batched kernel, also with batches of 16 rows, which
    split the levels, and inf to the Python kernel."""
    monkeypatch.setattr(shortvec, "_BUDGET", budget)
    if batch:
        monkeypatch.setattr(shortvec, "_BATCH", batch)
    rng = random.Random(163)
    for name, n in FAMILIES:
        base = standard(name, n)
        top = top_norm(base)
        want = [c // 2 for c in theta_series(name, n, top + 1)]
        skew = skewed_basis(base, rng)
        for lat, scale in ((base, 1), (skew, 1), (skew.rescale(2), 2)):
            for cache in (shortvec._min_count, shortvec._coset_shell):
                cache.cache_clear()
            for r in range(1, top + 1):
                found = shell(lat, scale * r)
                assert shell_count(lat, scale * r) == len(found) == want[r], (name, n, scale, r)
                assert set(norms(lat, found)) <= {scale * r}
            upto = vectors_upto(lat, scale * top)
            assert Counter(a for a, _ in upto) == {scale * r: c for r, c in enumerate(want) if r and c}
            assert norms(lat, [v for _, v in upto]) == [a for a, _ in upto]


def test_theta_series_closed_forms():
    """The series themselves: Z^3 and D4 by hand, 240 sigma_3(k) on E8, and
    Leech's 196,560 and 16,773,120 with no vector of norm 2."""
    assert theta_series("Z", 3, 6) == [1, 6, 12, 8, 6, 24]
    assert theta_series("D", 4, 7) == [1, 0, 24, 0, 24, 0, 96]
    assert theta_series("E", 8, 9) == [1, 0, 240, 0, 2160, 0, 6720, 0, 17520]
    assert theta_series("Leech", 24, 9) == [1, 0, 0, 0, 196_560, 0, 16_773_120, 0, 398_034_000]


def test_leech_shells_match_theta_series():
    """The Leech minimum and its 98,280 pairs, from the minimum walk."""
    lat = leech().lattice
    want = theta_series("Leech", 24, 5)
    assert shortvec.minimum(lat) == 4
    assert shell_count(lat, 4) == len(shell(lat, 4)) == want[4] // 2


@pytest.mark.slow
def test_leech_norm_6_count_matches_theta_series():
    """8,386,560 pairs of norm 6 from E_4^3 - 720 Delta, counted by the
    batched kernel (66.5M nodes) without storing a vector."""
    assert shell_count(leech().lattice, 6) == theta_series("Leech", 24, 7)[6] // 2 == 8_386_560
