"""One benchmark process: build a workload's inputs or run its operations.

    python3 benchmark/workloads.py MODE WORKLOAD SEED WORKDIR

MODE is `setup` (build the inputs with eqlat's constructors and write
WORKDIR/inputs.json), `ops` (run the operations on those inputs),
`untraced` (setup then ops in this one process) or `traced` (the same with
every layer wrapped by tracing.install()).  run.py starts these processes
and times them from outside; a hostclock.Clock runs from the start of
main() to the end of the set-up or the operations and writes its reading
to WORKDIR/clock.json, so that run.py can scale the wall time by the
host's speed.

After each operation completes, its name and duration in seconds are
appended to WORKDIR/progress, so a process killed at its deadline still
tells which operations finished.
Outputs are checked here with checks.py, after the operations; the time
spent checking is reported as check_s so the parent can leave it out of
the measured wall time.  The peak RSS is likewise read before
the checks start.  WORKDIR/result.json receives
{"problems", "check_s", "import_s", "ops_rss_mb", "metrics"}.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks as K
import hostclock
import inputs as I

ROOT = Path(__file__).resolve().parent.parent

SKEWED = ([("A", n) for n in range(4, 17)] + [("D", n) for n in range(4, 17)]
          + [("E", n) for n in (6, 7, 8)])
ROOT_DET = {"A": lambda n: n + 1, "D": lambda n: 4, "E": lambda n: {6: 3, 7: 2, 8: 1}[n]}
RANDOM_SEIDEL_SIZES = (24, 40)
SECTION_BUDGET = 24

# operation names, one per completed operation, in order
OPS = {
    "leech-cli": ["equi --x0 --emit-relative"],
    "leech-slice": ["leech", "minimum", "shell", "equiangular_via_s0"],
    "spectra": ([f"{f}.{op}" for f in ("witt", "witt_copy", "l28", "l28_copy")
                 for op in ("line_family", "certify", "seidel", "seidel_charpoly")]
                + ["witt_switched.seidel_charpoly", "l28_switched.seidel_charpoly"]
                + [f"random{t}.least_eigenvalue" for t in RANDOM_SEIDEL_SIZES]),
    "skewed-bases": ([f"{f}{n}.{op}" for f, n in SKEWED
                      for op in ("minimum", "shell_count", "equiangular_direct",
                                 "line_family", "certify", "relative_lattice")]
                     + ["E8.section_search"]),
}


def eq(name: str):
    return importlib.import_module(f"eqlat.{name}")


def _lattice(gram, den=1):
    exact, lattice = eq("exact"), eq("lattice")
    return lattice.GramLattice(exact.RatMatrix(exact.IntMatrix(gram), den))


def _gram_of(lat):
    return lat.gram.num.to_lists(), lat.gram.den


# ---------------------------------------------------------------------------
# Inputs


def setup_spectra(seed: int) -> dict:
    rng = random.Random(seed)
    x0, witt = I.witt_lines()
    l28 = I.lines28()
    perm24, signs24 = I.signed_permutation(rng, 24)
    perm8, signs8 = I.signed_permutation(rng, 8)
    ones = [1] * 8  # the 28 lines are orthogonal and congruent to it
    copy = I.apply_signed_permutation
    doc = {
        "families": {
            "witt": {"gram": 24, "den": 8, "x0": x0, "vectors": witt},
            "witt_copy": {"gram": 24, "den": 8, "x0": copy([x0], perm24, signs24)[0],
                          "vectors": copy(witt, perm24, signs24)},
            "l28": {"gram": 8, "den": 1, "x0": ones, "vectors": l28},
            "l28_copy": {"gram": 8, "den": 1, "x0": copy([ones], perm8, signs8)[0],
                         "vectors": copy(l28, perm8, signs8)},
        },
        "switched": {
            name: I.switch(I.seidel_of(vecs), *I.signed_permutation(rng, len(vecs)))
            for name, vecs in (("witt_switched", witt), ("l28_switched", l28))
        },
        "random": {f"random{t}": I.random_seidel(rng, t) for t in RANDOM_SEIDEL_SIZES},
    }
    # the program's loaders validate every input
    lines = eq("lines")
    for fam in doc["families"].values():
        _lattice(I.identity(fam["gram"]), fam["den"])
    for rows in list(doc["switched"].values()) + list(doc["random"].values()):
        lines.SeidelMatrix(rows)
    return doc


def setup_skewed(seed: int) -> dict:
    rng = random.Random(seed)
    cons = eq("constructions")
    out = []
    for fam, n in SKEWED:
        nl = cons.root_lattice(fam, n)
        x0 = cons.standard_x0(fam, n)
        u, uinv = I.unimodular(rng, n)
        gram, den = _gram_of(nl.lattice)
        skew = I.matmul(I.matmul(u, gram), I.transpose(u))
        _lattice(skew, den)
        out.append({"family": fam, "n": n, "gram": skew, "den": den,
                    "x0": I.matmul([list(x0)], uinv)[0]})
    return {"lattices": out}


def setup(workload: str, seed: int, work: Path) -> dict:
    if workload == "leech-slice":
        eq("constructions").leech()
        return {}
    if workload == "spectra":
        return setup_spectra(seed)
    if workload == "skewed-bases":
        return setup_skewed(seed)
    if workload == "leech-cli":
        run_cli(["make", "--family", "leech", "--out", "leech.json"])
        return {}
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations: each returns what the checks need, calling done() per op


def run_cli(argv: list[str]) -> str:
    cli = eq("cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"eqlat {' '.join(argv)} exited {code}")
    return buf.getvalue()


def equi_args(work: Path) -> list[str]:
    """The leech-cli operation that completes: the Witt family from the marked x0."""
    x0 = json.loads((work / "leech.json").read_text())["provenance"]["x0"]
    return ["equi", "leech.json", "--x0", ",".join(map(str, x0)), "--json",
            "--emit-relative", "rel.json"]


def ops_leech_cli(doc, work: Path, done) -> dict:
    out = run_cli(equi_args(work))  # relative paths: the process runs in work
    done("equi --x0 --emit-relative")
    return {"stdout": out}


def ops_leech_slice(doc, work: Path, done) -> dict:
    cons, sv, mod2 = eq("constructions"), eq("shortvec"), eq("mod2")
    nl = cons.leech()
    done("leech")
    lat, x0 = nl.lattice, nl.marks["x0"]
    m = sv.minimum(lat)
    done("minimum")
    sh = sv.shell(lat, 4)
    done("shell")
    es = mod2.equiangular_via_s0(lat, x0)
    done("equiangular_via_s0")
    return {"lat": lat, "x0": x0, "m": m, "shell": sh, "es": es}


def ops_spectra(doc, work: Path, done) -> dict:
    lines = eq("lines")
    res = {}
    for name, fam in doc["families"].items():
        lat = _lattice(I.identity(fam["gram"]), fam["den"])
        lf = lines.line_family(lat, fam["vectors"])
        done(f"{name}.line_family")
        cert = lines.certify(lf)
        done(f"{name}.certify")
        s = lines.seidel(lf)
        done(f"{name}.seidel")
        res[name] = (lf, cert, lines.seidel_charpoly(s))
        done(f"{name}.seidel_charpoly")
    for name, rows in doc["switched"].items():
        res[name] = lines.seidel_charpoly(lines.SeidelMatrix(rows))
        done(f"{name}.seidel_charpoly")
    for name, rows in doc["random"].items():
        res[name] = lines.least_eigenvalue(lines.SeidelMatrix(rows))
        done(f"{name}.least_eigenvalue")
    return res


def ops_skewed(doc, work: Path, done) -> dict:
    sv, mod2, lines, cons = eq("shortvec"), eq("mod2"), eq("lines"), eq("constructions")
    res = {}
    for entry in doc["lattices"]:
        tag = f"{entry['family']}{entry['n']}"
        lat = _lattice(entry["gram"], entry["den"])
        m = sv.minimum(lat)
        done(f"{tag}.minimum")
        s = sv.shell_count(lat, m)
        done(f"{tag}.shell_count")
        es = mod2.equiangular_direct(lat, entry["x0"])
        done(f"{tag}.equiangular_direct")
        lf = lines.line_family(lat, es.pairs)
        done(f"{tag}.line_family")
        cert = lines.certify(lf)
        done(f"{tag}.certify")
        rel = mod2.relative_lattice(lat, entry["x0"])
        done(f"{tag}.relative_lattice")
        res[tag] = (m, s, es, cert, rel)
        if tag == "E8":
            e8 = lat
    res["section_search"] = cons.section_search(e8, SECTION_BUDGET, 1)
    done("E8.section_search")
    return res


OPERATIONS = {"leech-cli": ops_leech_cli, "leech-slice": ops_leech_slice,
              "spectra": ops_spectra, "skewed-bases": ops_skewed}


# ---------------------------------------------------------------------------
# Checks (plain data handed to checks.py)


def _least(cert) -> dict:
    return next(c for c in cert["checks"] if c["check"] == "least_eigenvalue")


def check_leech_cli(doc, res, work: Path) -> list[str]:
    lat = json.loads((work / "leech.json").read_text())
    bad = K.check_gram(lat["gram"], lat["den"], 24, det=1, even=True)
    report = json.loads(res["stdout"])
    bad += K.check_witt_report(report, lat["gram"], lat["den"], lat["provenance"]["x0"])
    rel = json.loads((work / "rel.json").read_text())
    return bad + K.check_relative(None, lat["gram"], lat["den"], report["x0"],
                                  rel["gram"], rel["den"], 1, 10)


def check_leech_slice(doc, res, work: Path) -> list[str]:
    gram, den = _gram_of(res["lat"])
    x0 = list(res["x0"])
    es = res["es"]
    bad = K.check_gram(gram, den, 24, det=1, even=True)
    if K.products([x0], gram)[0][0] != 6 * den:
        bad.append("marked x0 does not have norm 6")
    if res["m"] != 4:
        bad.append(f"minimum {res['m']} != 4")
    bad += K.check_shell(res["shell"], gram, 4 * den, K.LEECH_PAIRS)
    if (es.rank, es.alpha, es.m) != (23, Fraction(1, 5), 4):
        bad.append(f"via_s0 family rank {es.rank} alpha {es.alpha} m {es.m}")
    return bad + K.check_family(list(es.pairs.reps), gram, x0, 276, 10 * den, 2 * den)


def check_spectra(doc, res, work: Path) -> list[str]:
    bad = []
    want = {"witt": (276, 23, Fraction(1, 5), K.WITT_CHARPOLY, 253),
            "l28": (28, 7, Fraction(1, 3), K.LINES28_CHARPOLY, 21)}
    for name, fam in doc["families"].items():
        t, r, alpha, poly, mult = want[name.split("_")[0]]
        lf, cert, charpoly = res[name]
        if (lf.t, lf.rank, lf.alpha) != (t, r, alpha):
            bad.append(f"{name}: t, rank, alpha = {lf.t}, {lf.rank}, {lf.alpha}")
        if not cert["ok"]:
            bad.append(f"{name}: certificate failed")
        bad += [f"{name}: {p}" for p in K.check_least(_least(cert), -1 / alpha, mult)]
        bad += [f"{name}: {p}" for p in K.check_charpoly(charpoly, poly)]
        den, norm = fam["den"], {276: 10, 28: 24}[t]
        bad += [f"{name}: {p}" for p in K.check_family(
            [list(v) for v in lf.pairs.reps], I.identity(fam["gram"]), fam["x0"], t,
            norm * den, alpha * norm * den)]
    for name in doc["switched"]:
        poly = want[name.split("_")[0]][3]
        bad += [f"{name}: {p}" for p in K.check_charpoly(res[name], poly)]
    for name, rows in doc["random"].items():
        bad += [f"{name}: {p}" for p in K.check_interval(rows, res[name])]
    return bad


def check_skewed(doc, res, work: Path) -> list[str]:
    bad = []
    for entry in doc["lattices"]:
        fam, n = entry["family"], entry["n"]
        tag = f"{fam}{n}"
        m, s, es, cert, rel = res[tag]
        gram, den, x0 = entry["gram"], entry["den"], entry["x0"]
        t = K.root_family_size(fam, n)
        problems = []
        if m != 2 or s != K.root_count(fam, n) // 2:
            problems.append(f"minimum {m}, pairs {s}")
        if (es.rank, es.alpha) != (n - 1, Fraction(1, 3)) or not cert["ok"]:
            problems.append(f"family rank {es.rank} alpha {es.alpha} ok {cert['ok']}")
        problems += K.check_family([list(v) for v in es.pairs.reps], gram, x0, t,
                                   6 * den, 2 * den)
        least = _least(cert)
        problems += (K.check_least(least, -3, t - (n - 1)) if t > n - 1
                     else K.check_above(least, -3))
        rgram, rden = _gram_of(rel.induced)
        problems += K.check_relative(rel.basis_rows.to_lists(), gram, den, x0,
                                     rgram, rden, ROOT_DET[fam](n), 6)
        bad += [f"{tag}: {p}" for p in problems]
    chain = res["section_search"]
    got = [(c["dim"], c["minimum"], c["s"]) for c in chain]
    if got != [(8, 2, 120), (7, 2, 63)]:
        bad.append(f"section_search on E8 gave {got}, expected E8 then E7")
    return bad


CHECKS = {"leech-cli": check_leech_cli, "leech-slice": check_leech_slice,
          "spectra": check_spectra, "skewed-bases": check_skewed}


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    clock = hostclock.Clock()
    clock.start()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("eqlat.cli")  # imports every layer
    import_s = time.perf_counter() - t0
    rec = None
    if mode == "traced":
        import tracing
        rec = tracing.install()
    if mode == "ops":
        doc = json.loads((work / "inputs.json").read_text())
    else:
        doc = setup(workload, seed, work)
        if mode == "setup":
            (work / "inputs.json").write_text(json.dumps(doc))
            clock.stop_to(work / "clock.json")
            return 0
    with open(work / "progress", "a") as progress:
        last = [time.perf_counter()]

        def done(name: str) -> None:
            now = time.perf_counter()
            progress.write(f"{name}\t{now - last[0]!r}\n")
            progress.flush()
            last[0] = now

        res = OPERATIONS[workload](doc, work, done)
    clock.stop_to(work / "clock.json")
    ops_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    c0 = time.perf_counter()
    result = {"problems": CHECKS[workload](doc, res, work), "import_s": import_s,
              "ops_rss_mb": ops_rss_mb}
    if "stdout" in res:
        result["stdout_sha256"] = hashlib.sha256(res["stdout"].encode()).hexdigest()
    if rec is not None:
        result["metrics"] = tracing.layer_metrics(rec.spans, import_s)
        rec.dump(str(work / "trace.json"))
    result["check_s"] = time.perf_counter() - c0
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
