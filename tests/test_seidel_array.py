"""The array checks of SeidelMatrix and line_family against the scans they
replaced (tests/oracles.py): the same exception class and message, or the
same result, on random inputs with at most one planted fault.

Skipped when hypothesis is not installed.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import ref_equiangular_pairs, ref_seidel_rows

from eqlat.constructions import root_lattice
from eqlat.errors import EqlatError, NotEquiangular
from eqlat.exact import row_rank
from eqlat.lines import SeidelMatrix, absolute_bound, line_family
from eqlat.shortvec import PairSet, minimum, shell

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FAULTS = ("none", "integral values", "short row", "long row", "diagonal",
          "entry", "asymmetry", "non-integer")
ROOTS = ([("A", n) for n in range(2, 8)] + [("D", n) for n in range(4, 8)]
         + [("E", n) for n in (6, 7, 8)])


def outcome(fn, *args):
    try:
        return fn(*args)
    except EqlatError as err:
        return type(err), str(err)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(st.integers(min_value=0, max_value=9), st.sampled_from(FAULTS),
                  st.randoms(use_true_random=False))
def test_seidel_checks_match_the_scalar_scan(t, fault, rng):
    rows = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            rows[i][j] = rows[j][i] = rng.choice((-1, 1))
    if t:
        i = rng.randrange(t)
        j = (i + 1 + rng.randrange(t - 1)) % t if t > 1 else i  # j != i when t > 1
        if fault == "short row":
            rows[i].pop()
        elif fault == "long row":
            rows[i].append(rng.choice((-1, 0, 1)))
        elif fault == "diagonal":
            rows[i][i] = rng.choice((-1, 1, 2))
        elif fault == "non-integer":
            rows[i][j] = rng.choice((Fraction(1, 2), 1.5, -0.5, "1", None))
        elif t > 1 and fault == "integral values":
            rows[i][j] = rows[j][i] = rng.choice((1.0, Fraction(-1), np.int64(1)))
        elif t > 1 and fault == "entry":
            rows[i][j] = rows[j][i] = rng.choice((0, 2, -3, 2**70))
        elif t > 1 and fault == "asymmetry":
            rows[i][j] = -rows[i][j]
    want = outcome(ref_seidel_rows, rows)
    assert outcome(lambda r: SeidelMatrix(r).rows, rows) == want
    if isinstance(want, tuple) and want and isinstance(want[0], tuple):
        assert SeidelMatrix(np.array(want, dtype=np.int64).reshape(t, t)).rows == want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(ROOTS), st.booleans(), st.randoms(use_true_random=False))
def test_line_family_reports_the_first_bad_pair(root, doubled, rng):
    lat = root_lattice(*root).lattice
    vectors = shell(lat, 2 * minimum(lat) if doubled else minimum(lat))
    hypothesis.assume(len(vectors) > 1)
    pairs = PairSet(lat, rng.sample(vectors, rng.randint(2, min(12, len(vectors)))))
    hypothesis.assume(len(pairs) <= absolute_bound(row_rank(pairs.reps)))
    want = outcome(ref_equiangular_pairs, lat, pairs.reps)
    if want == 0:  # after the pair scan, line_family rejects c = 0
        want = (NotEquiangular, "orthogonal lines: the common inner product is 0")
    assert outcome(lambda: line_family(lat, pairs).c) == want
