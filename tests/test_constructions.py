"""Named lattices, the Golay/Leech builders, classification scan, searches."""

import contextlib
import hashlib
import io
import re
from fractions import Fraction

import numpy as np
import pytest

from eqlat import cli, shortvec
from eqlat.constructions import (
    all_ones_exception_gram,
    dn_projection_gram,
    golay_code,
    integral_dual,
    leech,
    min3_classification_scan,
    reconstruct_odd,
    root_equiangular_table,
    root_lattice,
    section_search,
    standard_x0,
)
from eqlat.errors import BadParameter, NotEquiangular, NotEven, VNotValid
from eqlat.lines import absolute_bound, line_family
from eqlat.lattice import GramLattice
from eqlat.mod2 import mod2_class, relative_lattice
from eqlat.shortvec import minimum, shell, shell_count


# -- root lattices ---------------------------------------------------------


def test_a2_gram_and_roots():
    nl = root_lattice("A", 2)
    assert nl.lattice.gram.num.to_lists() == [[2, 1], [1, 2]]
    assert nl.lattice.det == 3
    assert minimum(nl.lattice) == 2
    assert shell_count(nl.lattice, 2) == 3
    assert nl.family == "A" and nl.params == (2,)


def test_a1_smallest_case():
    nl = root_lattice("A", 1)
    assert nl.lattice.gram.num.to_lists() == [[2]]


def test_d4_and_d5():
    d4 = root_lattice("D", 4)
    assert d4.lattice.det == 4
    assert minimum(d4.lattice) == 2
    assert shell_count(d4.lattice, 2) == 12
    d5 = root_lattice("D", 5)
    assert d5.lattice.gram.num.to_lists() == [
        [2, 0, 1, 0, 0],
        [0, 2, -1, 0, 0],
        [1, -1, 2, -1, 0],
        [0, 0, -1, 2, -1],
        [0, 0, 0, -1, 2],
    ]


def test_e_family_dets_and_kissing():
    expected = {8: (1, 120), 7: (2, 63), 6: (3, 36)}
    for n, (det, s) in expected.items():
        nl = root_lattice("E", n)
        assert nl.lattice.det == det
        assert nl.lattice.integrality() == "even"
        assert minimum(nl.lattice) == 2
        assert shell_count(nl.lattice, 2) == s


def test_root_lattice_basis_marks_match_gram():
    for fam, n in (("A", 3), ("D", 6), ("E", 7)):
        nl = root_lattice(fam, n)
        rows = nl.marks["eps_rows"]
        den = nl.marks["eps_den"]
        dim = nl.lattice.dim
        for i in range(dim):
            for j in range(dim):
                dot = sum(a * b for a, b in zip(rows[i], rows[j]))
                assert Fraction(dot, den * den) == nl.lattice.gram[i, j]


def test_root_lattice_rejects():
    with pytest.raises(BadParameter):
        root_lattice("A", 0)
    with pytest.raises(BadParameter):
        root_lattice("D", 3)
    with pytest.raises(BadParameter):
        root_lattice("E", 5)
    with pytest.raises(BadParameter):
        root_lattice("F", 4)
    # int(n) truncated: D 4.9 built D4, A 2.5 built A2
    for fam, n in (("D", 4.9), ("A", 2.5), ("E", Fraction(15, 2)), ("A", "4"), ("A", None)):
        with pytest.raises(BadParameter):
            root_lattice(fam, n)
    with pytest.raises(BadParameter):
        standard_x0("A", 4.5)  # built A4, then a bare TypeError
    assert root_lattice("E", 8.0).lattice == root_lattice("E", np.int64(8)).lattice
    assert standard_x0("D", 5.0) == standard_x0("D", np.int64(5)) == (0, 1, 0, 0, 0)


def test_integer_parameters_reject_non_integers():
    # each raised a bare TypeError, min3_classification_scan VerificationError
    e8 = root_lattice("E", 8).lattice
    for call in (lambda: dn_projection_gram(2.5), lambda: all_ones_exception_gram(3, 2.5),
                 lambda: all_ones_exception_gram(3.5, 2), lambda: root_equiangular_table(4.5),
                 lambda: section_search(e8, 2.5, 1), lambda: section_search(e8, 2, 1.5),
                 lambda: min3_classification_scan(4.5), lambda: dn_projection_gram("3")):
        with pytest.raises(BadParameter):
            call()
    # a non-integral float is no integer, and no hint to pass a Fraction
    # that would be refused in turn: _integer once read it through _rational
    for call in (dn_projection_gram, lambda v: root_lattice("A", v)):
        for bad, shown in ((2.5, "2.5"), (Fraction(5, 2), "Fraction(5, 2)"), (np.float64(2.5), "np.float64(2.5)")):
            with pytest.raises(BadParameter, match=rf"^{re.escape(shown)} is not an integer$"):
                call(bad)
    assert dn_projection_gram(4.0).lattice == dn_projection_gram(np.int64(4)).lattice
    assert root_lattice("A", 4.0).lattice == root_lattice("A", np.int64(4)).lattice
    assert all_ones_exception_gram(3.0, np.int64(3)).marks == all_ones_exception_gram(3, 3).marks
    assert [e["s"] for e in section_search(e8, 2.0, np.int64(1))] == [120, 63]


def test_standard_x0_norm_and_position():
    assert standard_x0("A", 4) == (1, 0, 0, 0)
    assert standard_x0("D", 5) == (0, 1, 0, 0, 0)
    for fam, n in (("A", 6), ("D", 7), ("E", 6), ("E", 7), ("E", 8)):
        nl = root_lattice(fam, n)
        assert nl.lattice.norm(standard_x0(fam, n)) == 2


def test_glue_vector_lies_in_every_section():
    # e survives both cuts: its doubled ambient coordinates are (1, ..., 1).
    for n in (6, 7, 8):
        nl = root_lattice("E", n)
        x0 = standard_x0("E", n)
        rows = nl.marks["eps_rows"]
        amb = [sum(c * row[j] for c, row in zip(x0, rows)) for j in range(8)]
        assert amb == [1] * 8


def test_root_equiangular_table_values():
    rows = root_equiangular_table(6)
    assert ("A", 5, 4, 4) in rows
    assert ("D", 6, 8, 5) in rows
    assert ("E", 6, 10, 5) in rows
    with pytest.raises(BadParameter):
        root_equiangular_table(3)


def test_root_equiangular_table_relations():
    for fam, n, t, r in root_equiangular_table(9):
        assert r == n - 1
        if fam == "A":
            assert t == r
        elif fam == "D":
            assert t == 2 * r - 2


# -- projection family -----------------------------------------------------


def test_projection_gram_small():
    p2 = dn_projection_gram(2)
    assert p2.lattice.gram.num.to_lists() == [[3, -1], [-1, 3]]
    assert minimum(p2.lattice) == 3
    p3 = dn_projection_gram(3)
    assert p3.lattice.gram.num.to_lists() == [[3, -1, 1], [-1, 3, 1], [1, 1, 3]]
    assert shell_count(p3.lattice, 3) == 4


def test_projection_gram_counts():
    for n in (4, 6, 12):
        p = dn_projection_gram(n)
        assert minimum(p.lattice) == 3
        assert shell_count(p.lattice, 3) == 2 * (n - 1)


def test_projection_gram_rejects():
    with pytest.raises(BadParameter):
        dn_projection_gram(1)


def test_projection_minimal_vectors_are_lines():
    p = dn_projection_gram(6)
    fam = line_family(p.lattice, shell(p.lattice, 3))
    assert fam.alpha == Fraction(1, 3)
    assert fam.rank == 6


# -- Golay code and Leech --------------------------------------------------


def golay_weights():
    g = golay_code()
    counts = {}
    for c in range(4096):
        w = [0] * 24
        for i in range(12):
            if c >> i & 1:
                w = [(a + b) % 2 for a, b in zip(w, g.rows[i])]
        counts[sum(w)] = counts.get(sum(w), 0) + 1
    return counts


def test_golay_shape_and_weights():
    g = golay_code()
    assert g.nrows == 12 and g.ncols == 24
    assert all(v in (0, 1) for row in g.rows for v in row)
    counts = golay_weights()
    assert counts == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_golay_contains_all_ones():
    assert golay_weights()[24] == 1


def test_leech_defining_properties():
    nl = leech()
    assert nl.lattice.dim == 24
    assert nl.lattice.det == 1
    assert nl.lattice.integrality() == "even"
    x0 = nl.marks["x0"]
    assert nl.lattice.norm(x0) == 6


def test_leech_reproducible():
    assert leech().lattice == leech().lattice


@pytest.mark.slow
def test_leech_minimum_and_kissing():
    lat = leech().lattice
    assert minimum(lat) == 4
    assert shell_count(lat, 4) == 98280


# -- duals -----------------------------------------------------------------


def test_dual_a4_lines():
    d = integral_dual(root_lattice("A", 4))
    assert d.det == 125
    assert minimum(d) == 4
    fam = line_family(d, shell(d, 4))
    assert fam.t == 5
    assert fam.alpha == Fraction(1, 4)


def test_dual_e7_is_the_28_line_lattice():
    d = integral_dual(root_lattice("E", 7))
    assert (d.det, minimum(d), shell_count(d, 3)) == (64, 3, 28)


def test_dual_e6_construct_only():
    d = integral_dual(root_lattice("E", 6))
    assert d.det == 243
    assert minimum(d) == 4


def test_dual_scale_is_minimal():
    # det(c G^{-1}) = c^n / det(G); for A_4 the minimal c is 5.
    d = integral_dual(root_lattice("A", 4))
    assert d.gram.den == 1
    assert d.det * 5 == 5**4


# -- odd reconstruction ----------------------------------------------------


def test_reconstruct_round_trip_on_projection_lattice():
    p = dn_projection_gram(4)
    ep = p.lattice.even_part()
    half = ep.induced.rescale(Fraction(1, 2))
    assert half.integrality() == "even"
    x0 = shell(p.lattice, 3)[0]
    v = ep.coords_of(tuple(2 * c for c in x0))
    assert half.norm(v) == 6
    back = reconstruct_odd(half, v)
    fingerprint = (back.det, minimum(back), shell_count(back, 3),
                   shell_count(back, 6))
    original = (p.lattice.det, 3, shell_count(p.lattice, 3),
                shell_count(p.lattice, 6))
    assert fingerprint == original


def test_reconstruct_e7_deep_class():
    e7 = root_lattice("E", 7)
    rows = min3_classification_scan(7)["rows"]
    v = next(r["v"] for r in rows if r["label"] == "E7")
    out = reconstruct_odd(e7, v)
    assert (out.det, minimum(out), shell_count(out, 3)) == (64, 3, 28)


def test_reconstruct_rejects():
    a3 = root_lattice("A", 3)
    with pytest.raises(VNotValid, match="v/2"):
        reconstruct_odd(a3, (2, 0, 0))
    with pytest.raises(VNotValid, match="even m"):
        reconstruct_odd(a3, (1, 1, -1))  # norm 4
    with pytest.raises(NotEven):
        reconstruct_odd(dn_projection_gram(3).lattice, (1, 0, 0))


# -- classification scan ---------------------------------------------------


def scan_row(report, label, case=None):
    for r in report["rows"]:
        if r["label"] == label and (case is None or r["case"] == case):
            return r
    raise AssertionError(f"no row {label}/{case}")


def test_scan_dimension_three():
    rep = min3_classification_scan(3)
    assert rep["max_full_rank_s"] == 4
    row = scan_row(rep, "A1+A1+A1")
    assert (row["s"], row["rank"], row["admissible"]) == (4, 3, True)


def test_scan_dimension_four():
    rep = min3_classification_scan(4)
    row = scan_row(rep, "A1+A3")
    assert (row["s"], row["rank"]) == (6, 4)
    assert rep["max_full_rank_s"] == 6


def test_scan_d_cases():
    rep = min3_classification_scan(6)
    a = scan_row(rep, "A1+D5", "a")
    b = scan_row(rep, "A1+D5", "b")
    assert (a["s"], a["rank"]) == (10, 6)  # 2(n-1) solutions, full rank
    assert (b["s"], b["rank"]) == (8, 5)   # 8 solutions, rank 5


def test_scan_exceptional_dimensions():
    assert scan_row(min3_classification_scan(5), "A5")["s"] == 10
    assert scan_row(min3_classification_scan(6), "D6")["s"] == 16
    e7 = scan_row(min3_classification_scan(7), "E7")
    assert (e7["s"], e7["rank"], e7["classes"]) == (28, 7, 1)


def test_scan_e_composites():
    rep7 = min3_classification_scan(7)
    assert scan_row(rep7, "A1+E6")["rank"] == 6
    rep8 = min3_classification_scan(8)
    row8 = scan_row(rep8, "A1+E7")
    assert (row8["s"], row8["rank"]) == (28, 7)
    assert rep8["max_full_rank_s"] == 14
    rep9 = min3_classification_scan(9)
    row9 = scan_row(rep9, "A1+E8")
    assert (row9["s"], row9["rank"]) == (16, 9)
    assert rep9["max_full_rank_s"] == 16


def test_scan_generic_maximum_matches_projection_family():
    for n in (3, 4, 8, 9):
        rep = min3_classification_scan(n)
        assert rep["expected"] == 2 * (n - 1)
        assert rep["max_full_rank_s"] == shell_count(
            dn_projection_gram(n).lattice, 3)


def test_scan_walks_each_lattice_once(monkeypatch):
    # rows (a) and (b) share A1+D_{n-1}: its norm-6 classes come from one walk
    real = shortvec.vectors_upto
    for n in range(3, 10):
        calls = {}

        def counted(lat, r):
            key = (lat.gram.num.rows, lat.gram.den)
            calls[key] = calls.get(key, 0) + 1
            return real(lat, r)

        monkeypatch.setattr(shortvec, "vectors_upto", counted)
        min3_classification_scan(n)
        assert calls and set(calls.values()) == {1}, (n, sorted(calls.values()))


def test_scan_rejects():
    with pytest.raises(BadParameter):
        min3_classification_scan(2)
    with pytest.raises(BadParameter):
        min3_classification_scan(10)


# -- exceptional Gram ------------------------------------------------------


def test_exception_gram_values():
    x = all_ones_exception_gram(3, 3)
    assert x.lattice.gram.num.to_lists() == [[4, 0, 1], [0, 2, 1], [1, 1, 2]]
    assert (x.marks["minimum"], x.marks["s"]) == (2, 3)
    assert all_ones_exception_gram(5, 2).lattice.gram.num.to_lists() == [
        [6, 0], [0, 4]]
    assert all_ones_exception_gram(5, 4).marks["minimum"] == 4
    assert all_ones_exception_gram(7, 3).marks["s"] == 3


def test_exception_gram_sits_below_nominal_minimum():
    for m in (3, 5, 7):
        x = all_ones_exception_gram(m, 4)
        assert x.marks["minimum"] == m - 1


def test_exception_gram_rejects():
    with pytest.raises(BadParameter):
        all_ones_exception_gram(4, 3)
    with pytest.raises(BadParameter):
        all_ones_exception_gram(1, 3)
    with pytest.raises(BadParameter):
        all_ones_exception_gram(5, 1)


# -- section search --------------------------------------------------------


def e8_relative():
    e8 = root_lattice("E", 8)
    return relative_lattice(e8.lattice, standard_x0("E", 8)).induced


def test_section_search_budget_zero():
    assert section_search(e8_relative(), 0) == []


def test_section_search_depth_zero_records_input():
    rel = e8_relative()
    chain = section_search(rel, budget=3, depth=0)
    assert len(chain) == 1
    assert chain[0]["depth"] == 0
    assert chain[0]["s"] == 28
    assert chain[0]["w"] is None


def test_section_search_chain_shape():
    chain = section_search(e8_relative(), budget=3, depth=2)
    assert [e["dim"] for e in chain] == [7, 6, 5]
    assert [e["depth"] for e in chain] == [0, 1, 2]
    # greedy winners: a rescaled E6, then a rescaled A5
    assert (chain[1]["minimum"], chain[1]["s"]) == (8, 36)
    assert chain[1]["lattice"].det == 4**6 * 3
    assert (chain[2]["minimum"], chain[2]["s"]) == (8, 15)
    assert chain[2]["lattice"].det == 4**5 * 6


def test_section_search_deterministic():
    a = section_search(e8_relative(), budget=3, depth=2)
    b = section_search(e8_relative(), budget=3, depth=2)
    assert [(e["w"], e["s"], e["minimum"]) for e in a] == [
        (e["w"], e["s"], e["minimum"]) for e in b]


def test_section_search_equiangular_entries_respect_bound():
    # the bound constrains line families; apply it exactly where the entry's
    # minimal pairs do form one (depth 0 here; deeper entries are kissing
    # configurations of rescaled root lattices and stay counts only).
    for entry in section_search(e8_relative(), budget=3, depth=2):
        try:
            fam = line_family(entry["lattice"], entry["pairs"])
        except NotEquiangular:
            continue
        if fam.alpha is not None:
            assert fam.t <= absolute_bound(fam.rank)


def test_named_lattice_is_immutable():
    nl = root_lattice("A", 2)
    with pytest.raises(AttributeError):
        nl.family = "B"
    with pytest.raises(TypeError):
        nl.marks["x"] = 1


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _chain(entries):
    """(depth, dim, w, minimum, s) of each entry, with a digest of its Gram
    matrix and pairs."""
    return [(e["depth"], e["dim"], e["w"], e["minimum"], e["s"],
             _digest((e["lattice"].gram.num.to_lists(), e["lattice"].gram.den, e["pairs"].reps)))
            for e in entries]


def _min3_json():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["report", "--suite", "min3", "--json"]) == 0
    return out.getvalue()


def _second(c):
    return c.first, c.minimizers.reps, c.second, len(c.second_shell), _digest(c.second_shell.reps)


def test_each_question_walks_its_tree_once(walks, monkeypatch):
    """No call below walks one tree twice: no (Gram, limit, class) repeats
    among its walks, whatever their modes, which only pick the leaves kept.
    A walk's Gram is that of the last lattice _prep was asked for before it,
    as every walk is planned from its lattice's _prep.  The answers are
    those of the code before this rule, which walked 27, 12, 8, 3 and 30
    times here: the section search measured candidates by count walks and
    walked the shell at the minimum again for its candidates, mod2_class
    walked its class shell at the least norm again, and the min3 suite
    counted each P_n shell twice."""
    prep, asked = shortvec._prep, []

    def noted(lat):
        asked.append((len(walks), lat.gram))
        return prep(lat)

    monkeypatch.setattr(shortvec, "_prep", noted)

    def once(call, made):
        for cache in (prep, shortvec._minimum, shortvec._coset_shell):
            cache.cache_clear()
        walks.clear()
        asked.clear()
        out = call()
        grams = [next(g for k, g in reversed(asked) if k <= i) for i in range(len(walks))]
        trees = [(g, w.limit, w.parity) for g, (w, _) in zip(grams, walks)]
        assert len(set(trees)) == len(trees) == made
        return out

    e8 = root_lattice("E", 8).lattice
    assert _chain(once(lambda: section_search(e8, 24, 1), 16)) == [
        (0, 8, None, 2, 120, "f595a75ebde1a818"),
        (1, 7, (0, 0, 0, 0, 0, 0, 1, -1), 2, 63, "e871e1ae04f462f7")]
    rel = e8_relative()
    assert _chain(once(lambda: section_search(rel, 3, 2), 5)) == [
        (0, 7, None, 6, 28, "0e3d57e118e7fae3"),
        (1, 6, (1, -1, -1, 0, 0, 0, 0), 8, 36, "940df7f8a5097636"),
        (2, 5, (0, 0, 0, 0, 0, 1), 8, 15, "e6b00b78e1a95bc9")]
    # three pairs at the minimum, fewer than the budget: candidates up to norm 2
    z3 = GramLattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert _chain(once(lambda: section_search(z3, 5, 1), 4)) == [
        (0, 3, None, 1, 3, "6f59ee81c24b5d27"),
        (1, 2, (0, 0, 1), 1, 2, "431561b60c1ced50")]
    c = once(lambda: mod2_class(e8, (1, 0, 0, 0, 0, 0, 0, 0), with_second=True), 2)
    assert _second(c) == (2, ((1, 0, 0, 0, 0, 0, 0, 0),), 6, 28, "42d2e2eeb67dcedb")
    assert once(_min3_json, 20) == (
        '{"rows": [[3, 3, 4], [4, 3, 6], [5, 3, 8], [6, 3, 10], [7, 3, 12], [8, 3, 14], '
        '[9, 3, 16], [10, 3, 18], [11, 3, 20], [12, 3, 22]], "suite": "min3"}\n')
