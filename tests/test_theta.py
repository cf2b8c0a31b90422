"""Shell sizes against theta series (tests/oracles.py::theta_series).

The series are closed forms in integers, so they share nothing with the
walks: LLL, the walk data, the content division, the kernels and the map
back to the input basis are checked at once, on standard bases, on skewed
copies and on skewed copies scaled by 2 (by 3 for the D11-D16 counts),
whose Gram content the walks divide out.
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
    return next(r for r in range(1, TOP + 1)
                if r == TOP or shortvec.Walk.of(prep, "count", r).forecast() > NODES)


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
    sends each to its numpy kernel (_class_walk for the counts, the
    batched kernel for the others), also with batches of 16 rows, which
    split the batched levels (and may hand a class count back to a batched
    walk), and inf to the Python kernel."""
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
            for cache in (shortvec._minimum, shortvec._coset_shell):
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


@pytest.mark.parametrize("n", range(11, 17))
def test_dn_counts_match_theta_series_at_every_norm(walks, n):
    """shell_count gives half the theta coefficient of D_n at every norm up
    to TOP, past the NODES forecast where the shell checks stop, on the
    standard basis, a skewed copy and that copy scaled by 3: the larger
    counts (D16 at 10 forecasts 1.5e7 nodes) go to _class_walk, which pays
    for their states alone."""
    rng = random.Random(167 + n)
    base = standard("D", n)
    want = [c // 2 for c in theta_series("D", n, TOP + 1)]
    skew = skewed_basis(base, rng)
    for lat, scale in ((base, 1), (skew, 1), (skew.rescale(3), 3)):
        assert [shell_count(lat, scale * r) for r in range(TOP + 1)] == want, (n, scale)
    assert {result.kernel for _, result in walks} == {"walk", "classes"}


def test_leech_counts_far_past_the_split_match_theta_series(walks):
    """199,017,000 pairs of norm 8 and 2,314,690,560 of norm 10, half the
    coefficients of E_4^3 - 720 Delta, each counted in one process from the
    states of _class_walk, for trees of 1,021,332,069 and 9,319,857,116
    nodes."""
    lat = leech().lattice
    want = theta_series("Leech", 24, 11)
    assert [shell_count(lat, r) for r in (8, 10)] == [want[8] // 2, want[10] // 2] == [199_017_000, 2_314_690_560]
    assert [(result.kernel, result.nodes) for _, result in walks] == [("classes", 1_021_332_069),
                                                                      ("classes", 9_319_857_116)]


@pytest.mark.slow
def test_leech_norm_6_count_matches_theta_series():
    """8,386,560 pairs of norm 6 from E_4^3 - 720 Delta, counted by
    _class_walk (66.5M tree nodes) without storing a vector."""
    assert shell_count(leech().lattice, 6) == theta_series("Leech", 24, 7)[6] // 2 == 8_386_560
