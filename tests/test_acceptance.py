"""Acceptance gate: ten numbered criteria, one printed pass/fail line each,
plus a differential check of certify on the same families."""

import time
from fractions import Fraction as QQ

import pytest
import test_properties as props
from oracles import ref_least_check

from eqlat.constructions import (
    dn_projection_gram,
    leech,
    min3_classification_scan,
    root_equiangular_table,
    root_lattice,
    section_search,
    standard_x0,
)
from eqlat.errors import NotEquiangular
from eqlat.fastops import imatmul
from eqlat.lines import (
    _factored_charpoly,
    absolute_bound,
    certify,
    line_family,
    neumann_check,
    relative_bound,
)
from eqlat.mod2 import equiangular_direct, equiangular_via_s0, relative_lattice
from eqlat.shortvec import PairSet, minimum, shell, shell_count

ROOT_CASES = (
    [("A", n) for n in range(4, 13)]
    + [("D", n) for n in range(4, 13)]
    + [("E", n) for n in (6, 7, 8)]
)


def announce(capsys, num, problems, detail):
    verdict = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:>2}: {verdict}  {detail}")
    assert not problems, "; ".join(problems)


def expect(problems, cond, msg):
    if not cond:
        problems.append(msg)


@pytest.fixture(scope="module")
def big():
    return leech()


@pytest.fixture(scope="module")
def witt(big):
    return equiangular_direct(big.lattice, big.marks["x0"])


@pytest.fixture(scope="module")
def root_families():
    out = {}
    for fam, n in ROOT_CASES:
        lat = root_lattice(fam, n).lattice
        out[fam, n] = (lat, equiangular_direct(lat, standard_x0(fam, n)))
    return out


@pytest.fixture(scope="module")
def e8_relative():
    return relative_lattice(root_lattice("E", 8).lattice, standard_x0("E", 8))


@pytest.fixture(scope="module")
def witt_relative(big):
    return relative_lattice(big.lattice, big.marks["x0"])


@pytest.fixture(scope="module")
def families(root_families, big, witt, e8_relative, witt_relative):
    fams = []
    for (fam, n), (lat, es) in root_families.items():
        fams.append((f"{fam}{n}", line_family(lat, es.pairs)))
    fams.append(("Witt", line_family(big.lattice, witt.pairs)))
    for tag, rel in (("E8-relative", e8_relative), ("Leech-relative", witt_relative)):
        ind = rel.induced
        fams.append((tag, line_family(ind, shell(ind, minimum(ind)))))
    for n in range(3, 13):
        lat = dn_projection_gram(n).lattice
        fams.append((f"P{n}", line_family(lat, shell(lat, 3))))
    return fams


def test_criterion_01_root_table(capsys):
    t0 = time.time()
    problems = []
    rows = {(f, n): (t, r) for f, n, t, r in root_equiangular_table(12)}
    expect(problems, len(rows) == 21, f"{len(rows)} rows, expected 21")
    for n in range(4, 13):
        expect(problems, rows.get(("A", n)) == (n - 1, n - 1), f"A{n}: {rows.get(('A', n))}")
        expect(problems, rows.get(("D", n)) == (2 * (n - 1) - 2, n - 1),
               f"D{n}: {rows.get(('D', n))}")
    for n, tr in ((8, (28, 7)), (7, (16, 6)), (6, (10, 5))):
        expect(problems, rows.get(("E", n)) == tr, f"E{n}: {rows.get(('E', n))}")
    dt = time.time() - t0
    expect(problems, dt < 10, f"took {dt:.1f}s, budget 10s")
    announce(capsys, 1, problems, f"21 root families exact in {dt:.1f}s (budget 10s)")


def test_criterion_02_witt_design(capsys, big, witt):
    t0 = time.time()
    problems = []
    lat = big.lattice
    g = lat.gram.num.to_lists()
    alt = (1,) + (0,) * 23
    expect(problems, lat.norm(alt) == 6, "alternate x0 does not have norm 6")
    runs = [("bundled x0", witt), ("basis x0", equiangular_direct(lat, alt))]
    for tag, es in runs:
        expect(problems, (len(es), es.rank, es.alpha) == (276, 23, QQ(1, 5)),
               f"{tag}: (t, rank, alpha) = {(len(es), es.rank, es.alpha)}")
        reps = [list(v) for v in es.pairs.reps]
        rg = imatmul(reps, g)
        prod = imatmul(rg, [list(c) for c in zip(*reps)])
        expect(problems, all(prod[i][i] == 10 for i in range(len(reps))),
               f"{tag}: family norms off 10")
        offs = {abs(prod[i][j]) for i in range(len(reps)) for j in range(i + 1, len(reps))}
        expect(problems, offs == {2}, f"{tag}: |inner products| {sorted(offs)}")
        dots = {sum(a * b for a, b in zip(row, es.x0)) for row in rg}
        expect(problems, dots == {0}, f"{tag}: family not orthogonal to x0")
    dt = time.time() - t0
    expect(problems, dt <= 600, f"took {dt:.0f}s, budget 600s")
    announce(capsys, 2, problems,
             f"276 pairs, rank 23, alpha 1/5, inners +-2, both base points, {dt:.1f}s (budget 600s)")


def test_criterion_03_leech_properties(capsys, big):
    t0 = time.time()
    problems = []
    lat = big.lattice
    expect(problems, lat.integrality() == "even", f"integrality {lat.integrality()}")
    expect(problems, lat.det == 1, f"det {lat.det}")
    expect(problems, minimum(lat) == 4, f"minimum {minimum(lat)}")
    s = shell_count(lat, 4)
    expect(problems, s == 98280, f"s = {s}")
    announce(capsys, 3, problems,
             f"even, det 1, minimum 4, s = 98280 in {time.time() - t0:.1f}s")


def test_criterion_04_relative_lattices(capsys, root_families, witt,
                                        e8_relative, witt_relative):
    problems = []
    cases = (
        ("E8", e8_relative, root_families["E", 8][0], root_families["E", 8][1], 2, 6),
        ("Leech", witt_relative, witt.lattice, witt, 6, 10),
    )
    for tag, rel, lat, es, mp, msec in cases:
        ind = rel.induced
        expect(problems, lat.norm(es.x0) == mp, f"{tag}: N(x0) = {lat.norm(es.x0)}")
        expect(problems, ind.dim == lat.dim - 1, f"{tag}: dim {ind.dim}")
        expect(problems, minimum(ind) == msec, f"{tag}: minimum {minimum(ind)}")
        back = PairSet(lat, [rel.embed(c) for c in shell(ind, msec)])
        expect(problems, back.reps == es.pairs.reps, f"{tag}: S(L) differs from E")
    announce(capsys, 4, problems,
             "E8 and Leech relatives: dim n-1, minima 6 and 10, S(L) = E")


def test_criterion_05_s0_bijection(capsys, root_families, big, witt):
    problems = []
    lattices = [(f"{fam}{n}", lat, es) for (fam, n), (lat, es) in root_families.items()]
    lattices.append(("Leech", big.lattice, witt))
    for tag, lat, direct in lattices:
        via = equiangular_via_s0(lat, direct.x0)
        expect(problems, via.pairs == direct.pairs, f"{tag}: pair sets differ")
        expect(problems, (via.rank, via.alpha) == (direct.rank, direct.alpha),
               f"{tag}: rank or alpha differs")
    announce(capsys, 5, problems,
             f"slice route = class route on {len(lattices)} lattices; "
             "rank E = rank S0 - 1 enforced in route")


def test_criterion_06_minimum3_counts(capsys):
    problems = []
    for n in range(3, 13):
        lat = dn_projection_gram(n).lattice
        expect(problems, minimum(lat) == 3, f"P{n}: minimum {minimum(lat)}")
        s = len(shell(lat, 3))
        expect(problems, s == 2 * (n - 1), f"P{n}: s = {s}")
    def scan_case(n, label, case):
        for row in min3_classification_scan(n)["rows"]:
            if row["label"] == label and row["case"] == case:
                return row["s"], row["rank"]
        return None
    expect(problems, scan_case(4, "A1+A3", "y") == (6, 4),
           f"A1+A3: {scan_case(4, 'A1+A3', 'y')}")
    for n in range(5, 10):
        a = scan_case(n, f"A1+D{n - 1}", "a")
        b = scan_case(n, f"A1+D{n - 1}", "b")
        expect(problems, a == (2 * (n - 1), n), f"A1+D{n - 1} case a: {a}")
        expect(problems, b == (8, 5), f"A1+D{n - 1} case b: {b}")
    announce(capsys, 6, problems,
             "P_n minimum 3 with s = 2(n-1) for n = 3..12; scans match the proof counts")


def test_criterion_07_spectral_identity(capsys, families):
    problems = []
    exact_root = acute = 0
    for tag, fam in families:
        expect(problems, fam.t >= 2, f"{tag}: t = {fam.t} < 2")
        cert = certify(fam)
        expect(problems, cert["ok"], f"{tag}: certificate failed")
        chk = next(c for c in cert["checks"] if c["check"] == "least_eigenvalue")
        if fam.t > fam.rank:
            exact_root += 1
            expect(problems, chk["value"] == -1 / fam.alpha and
                   chk["multiplicity"] == fam.t - fam.rank,
                   f"{tag}: root {chk['value']} multiplicity {chk['multiplicity']}")
        else:
            acute += 1
            expect(problems, chk["multiplicity"] == 0,
                   f"{tag}: -1/alpha occurs with t = rank")
    announce(capsys, 7, problems,
             f"{len(families)} families certified: {exact_root} with least eigenvalue "
             f"-1/alpha of multiplicity t - rank, {acute} acute (t = rank) strictly above")


def test_certify_matches_the_sturm_oracle(families):
    # the Budan-Fourier counts and least_root give the entry Sturm gave
    assert len(families) == 34
    for tag, fam in families:
        chk = next(c for c in certify(fam)["checks"] if c["check"] == "least_eigenvalue")
        assert chk == ref_least_check(*_factored_charpoly(fam), fam.t, fam.rank), tag


def test_criterion_08_bounds(capsys, root_families, witt, families):
    problems = []
    expect(problems, absolute_bound(7) == 28, f"absolute_bound(7) = {absolute_bound(7)}")
    expect(problems, absolute_bound(23) == 276, f"absolute_bound(23) = {absolute_bound(23)}")
    e8 = root_families["E", 8][1]
    expect(problems, len(e8) == 28 and e8.rank == 7, "E8 family misses the bound")
    expect(problems, len(witt) == 276 and witt.rank == 23, "Witt family misses the bound")
    rb = relative_bound(23, QQ(1, 5))
    expect(problems, rb == 276, f"relative_bound(23, 1/5) = {rb}")
    hit = 0
    for tag, fam in families:
        if fam.t > 2 * fam.rank:
            hit += 1
            expect(problems, neumann_check(fam.t, fam.rank, fam.alpha),
                   f"{tag}: parity test failed")
    expect(problems, hit >= 5, f"only {hit} families with t > 2n")
    announce(capsys, 8, problems,
             f"Gerzon 28/276 met with equality, relative bound 276, parity on {hit} families")


def test_criterion_09_property_suites(capsys):
    t0 = time.time()
    problems = []
    steps = [
        ("congruent pairs", props.test_congruent_pair_facts_in_bulk),
        ("equality cases", props.test_equality_case_from_orthogonal_roots),
        ("scalar bounds", props.test_scalar_bound_on_same_norm_class_vectors),
        ("enumeration oracle", props.test_enumeration_matches_grid_oracle_in_bulk),
        ("slice minimum 4", props.test_slice_products_at_minimum_four),
        ("slice antipodal", props.test_slice_may_hold_a_single_antipodal_pair),
        ("slice wrong norm", props.test_slice_products_reject_wrong_norm_axis),
        ("even parts min 3", props.test_even_parts_of_minimum3_family),
        ("even part min 5", props.test_even_part_of_minimum5_section),
    ]
    steps[4:4] = [
        (f"slice products {f}{n}",
         lambda f=f, n=n: props.test_slice_products_on_root_lattices(f, n))
        for f, n in props.ROOT_CASES
    ]
    for name, fn in steps:
        try:
            fn()
        except Exception as exc:
            problems.append(f"{name}: {exc}")
    announce(capsys, 9, problems,
             f"congruence sweeps (>= 10^3 pairs), 200-lattice oracle match, "
             f"slice products, even parts in {time.time() - t0:.1f}s")


def test_criterion_10_section_search(capsys, witt_relative):
    t0 = time.time()
    problems = []
    rel = witt_relative.induced
    runs = [section_search(rel, budget=3, depth=1) for _ in range(2)]
    norm = [
        [(r["depth"], r["dim"], r["w"], r["minimum"], r["s"], r["pairs"].reps)
         for r in out]
        for out in runs
    ]
    expect(problems, norm[0] == norm[1], "reruns disagree")
    out = runs[0]
    expect(problems, [r["dim"] for r in out] == [23, 22],
           f"chain dims {[r['dim'] for r in out]}")
    certified = counts_only = 0
    for row in out:
        try:
            fam = line_family(row["lattice"], row["pairs"])
        except NotEquiangular:
            counts_only += 1
            continue
        certified += 1
        expect(problems, certify(fam)["ok"],
               f"depth {row['depth']}: emitted family fails certification")
    expect(problems, certified >= 1, "no emitted family at all")
    dt = time.time() - t0
    announce(capsys, 10, problems,
             f"n = 23 -> 22 within budget 3, deterministic, {certified} emitted "
             f"family certified, {counts_only} counts-only section, {dt:.1f}s")
