"""The benchmark's checkers accept correct outputs and reject corrupted ones.

    python3 -m pytest benchmark/test_checks.py

The correct outputs are built here from closed forms (inputs.py); each
corruption is one flipped coordinate, a wrong multiplicity, a dropped
vector or a wrong count.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest

import checks as K
import inputs as I

X0, WITT = I.witt_lines()
Z24 = I.identity(24)  # Gram I/8: norm 10 reads 80, products +-2 read +-16


def witt_report():
    return {
        "t": 276, "rank": 23, "alpha": "1/5", "m": 4, "certified": True,
        "source": {"minimum": "4", "s": 98280, "det": "1", "dim": 24, "name": "Leech"},
        "spectrum": {"least": ["-5", "-5"], "multiplicity": 253, "passed": True},
        "bounds": {"absolute": {"applicable": True, "bound": 276, "equality": True,
                                "passed": True}},
        "x0": list(X0),
        "vectors": [list(v) for v in WITT],
    }


def d4_shell():
    """The 12 canonical root pairs +-e_i +- e_j of D4 (Gram I, norm 2)."""
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                v = [0] * 4
                v[i], v[j] = 1, s
                out.append(v)
    return out


def flip(vectors, i, k):
    out = [list(v) for v in vectors]
    out[i][k] = -out[i][k]
    return out


# -- closed forms agree with an independent floating-point spectrum ----------


def test_closed_form_spectra_match_numpy():
    for vecs, want in ((WITT, {-5: 253, 55: 23}), (I.lines28(), {-3: 21, 9: 7})):
        ev = np.linalg.eigvalsh(np.array(I.seidel_of(vecs), dtype=float))
        got = {}
        for e in np.rint(ev).astype(int):
            got[int(e)] = got.get(int(e), 0) + 1
        assert got == want
        assert np.allclose(ev, np.rint(ev), atol=1e-8)


def test_poly_from_roots():
    assert K.poly_from_roots({-3: 2, 1: 1}) == [-9, 3, 5, 1]  # (x+3)^2 (x-1)


def test_golay_and_lines():
    words = I.golay_words()
    assert len(words) == 4096
    assert len(WITT) == 276 and len(I.lines28()) == 28


def test_unimodular_inverse():
    import random
    u, uinv = I.unimodular(random.Random(7), 9)
    assert I.matmul(u, uinv) == I.identity(9)
    assert abs(K.bareiss_det(u)) == 1


# -- families ----------------------------------------------------------------


def test_family_accepts_witt():
    assert K.check_family(WITT, Z24, X0, 276, 80, 16) == []


def test_family_rejects_flipped_coordinate():
    assert K.check_family(flip(WITT, 5, 3), Z24, X0, 276, 80, 16)


def test_family_rejects_dropped_vector():
    assert K.check_family(WITT[1:], Z24, X0, 276, 80, 16)


def test_family_rejects_repeated_line():
    vecs = [list(v) for v in WITT]
    vecs[1] = [-c for c in vecs[0]]
    assert K.check_family(vecs, Z24, X0, 276, 80, 16)


def test_family_rejects_vector_outside_the_class():
    vecs = [list(v) for v in I.lines28()]
    ones = [1] * 8
    assert K.check_family(vecs, I.identity(8), ones, 28, 24, 8) == []
    vecs[0] = [3, 3, -1, -1, -1, -1, -1, -1][::-1]  # a repeat: caught as such
    assert K.check_family(vecs, I.identity(8), ones, 28, 24, 8)


# -- shells ----------------------------------------------------------------


def test_shell_accepts_d4_roots():
    assert K.check_shell(d4_shell(), I.identity(4), 2, 12) == []


def test_shell_rejects_wrong_count():
    assert K.check_shell(d4_shell(), I.identity(4), 2, 13)


def test_shell_rejects_dropped_vector():
    assert K.check_shell(d4_shell()[1:], I.identity(4), 2, 12)


def test_shell_rejects_flipped_coordinate():
    # negating a coordinate gives another root (a repeat) or a
    # non-canonical sign; doubling one changes the norm
    assert K.check_shell(flip(d4_shell(), 0, 1), I.identity(4), 2, 12)
    assert K.check_shell(flip(d4_shell(), 0, 0), I.identity(4), 2, 12)
    bad = [list(v) for v in d4_shell()]
    bad[3][0] *= 2
    assert K.check_shell(bad, I.identity(4), 2, 12)


# -- spectra ---------------------------------------------------------------


def test_charpoly_rejects_wrong_multiplicity():
    assert K.check_charpoly(K.WITT_CHARPOLY, K.WITT_CHARPOLY) == []
    assert K.check_charpoly(K.poly_from_roots({-5: 252, 55: 24}), K.WITT_CHARPOLY)
    assert K.check_charpoly(K.poly_from_roots({-3: 20, 9: 8}), K.LINES28_CHARPOLY)


def test_least_rejects_wrong_multiplicity():
    entry = {"interval": (Fraction(-5), Fraction(-5)), "multiplicity": 253, "passed": True}
    assert K.check_least(entry, -5, 253) == []
    assert K.check_least(dict(entry, multiplicity=252), -5, 253)
    assert K.check_least(dict(entry, passed=False), -5, 253)
    assert K.check_least(dict(entry, interval=(Fraction(-6), Fraction(-5))), -5, 253)


def test_above_rejects_interval_at_the_bound():
    entry = {"interval": (Fraction(-2), Fraction(-2)), "multiplicity": 0, "passed": True}
    assert K.check_above(entry, -3) == []
    assert K.check_above(dict(entry, interval=(Fraction(-3), Fraction(-3))), -3)


def test_interval_against_numpy():
    import random
    rows = I.random_seidel(random.Random(3), 12)
    lam = Fraction(float(np.linalg.eigvalsh(np.array(rows, dtype=float))[0]))
    assert K.check_interval(rows, (lam - Fraction(1, 2**45), lam + Fraction(1, 2**45))) == []
    assert K.check_interval(rows, (lam + Fraction(1, 10), lam + Fraction(1, 10)))
    assert K.check_interval(rows, (lam - 1, lam + 1))  # too wide to certify


# -- lattices and CLI reports ------------------------------------------------


def test_gram_checks():
    e8ish = [[2, -1], [-1, 2]]  # A2: det 3, even
    assert K.check_gram(e8ish, 1, 2, det=3, even=True) == []
    assert K.check_gram(e8ish, 1, 2, det=1)
    assert K.check_gram([[2, -1], [0, 2]], 1, 2)
    assert K.check_gram([[3, -1], [-1, 2]], 1, 2, even=True)


def test_relative_det_formula_on_a1_plus_a1():
    # L = A1 + A1 (Gram 2I), x0 = (1, 0): <x0, 2L> cap x0^perp = Z(0, 2),
    # of norm 8 = 4^(n-2) det(L) N(x0) = 1 * 4 * 2
    gram, x0 = [[2, 0], [0, 2]], [1, 0]
    assert K.check_relative([[0, 2]], gram, 1, x0, [[8]], 1, 4, 6) == []
    assert K.check_relative([[0, 1]], gram, 1, x0, [[2]], 1, 4, 6)  # not in <x0, 2L>
    assert K.check_relative([[1, 2]], gram, 1, x0, [[10]], 1, 4, 6)  # not orthogonal


def test_witt_report_accepts_closed_form():
    assert K.check_witt_report(witt_report(), Z24, 8, X0) == []
    assert K.check_witt_report(witt_report(), Z24, 8, None) == []


@pytest.mark.parametrize("corrupt", [
    lambda d: d["vectors"].pop(),                                   # dropped vector
    lambda d: d["vectors"][7].__setitem__(2, -d["vectors"][7][2]),  # flipped coordinate
    lambda d: d["spectrum"].__setitem__("multiplicity", 252),       # wrong multiplicity
    lambda d: d["source"].__setitem__("s", 98279),                  # wrong count
    lambda d: d.__setitem__("t", 275),                              # wrong count
    lambda d: d.__setitem__("rank", 22),
    lambda d: d["x0"].__setitem__(0, 3),
])
def test_witt_report_rejects(corrupt):
    doc = copy.deepcopy(witt_report())
    corrupt(doc)
    assert K.check_witt_report(doc, Z24, 8, X0)


def test_root_closed_forms():
    assert [K.root_count("A", 4), K.root_count("D", 4), K.root_count("E", 8)] == [20, 24, 240]
    assert [K.root_family_size("A", 5), K.root_family_size("D", 6),
            K.root_family_size("E", 7)] == [4, 8, 16]
