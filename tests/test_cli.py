"""End-to-end command tests: files, exit codes, determinism, schemas."""

import json
from concurrent.futures import ProcessPoolExecutor
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from eqlat import cli, shortvec
from eqlat.cli import main
from eqlat.constructions import dn_projection_gram, root_lattice
from eqlat.exact import IntMatrix, solve_left
from eqlat.lattice import GramLattice
from eqlat.shortvec import minimum, shell_count


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_doc(tmp_path, filename, **doc):
    path = tmp_path / filename
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def load_schema(which):
    text = (files("eqlat") / "schemas" / f"{which}.schema.json").read_text()
    return json.loads(text)


A2 = {"name": "A2", "dim": 2, "den": 1, "gram": [[2, 1], [1, 2]]}


# -- make --------------------------------------------------------------------


def test_make_e8_to_stdout(capsys):
    rc, out, _ = run(capsys, "make", "--family", "E", "--dim", "8")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("lattice"))
    assert (doc["name"], doc["dim"], doc["den"]) == ("E8", 8, 1)
    assert GramLattice(doc["gram"]).det == 1


def test_make_writes_file(capsys, tmp_path):
    out_path = tmp_path / "d4.json"
    rc, out, _ = run(capsys, "make", "--family", "D", "--dim", "4",
                     "--out", str(out_path))
    assert rc == 0
    assert out == f"wrote {out_path} name=D4 dim=4\n"
    doc = json.loads(out_path.read_text())
    assert doc["gram"][0][0] == 2


def test_make_projection_family(capsys):
    rc, out, _ = run(capsys, "make", "--family", "P", "--dim", "3")
    assert rc == 0
    assert json.loads(out)["gram"] == [[3, -1, 1], [-1, 3, 1], [1, 1, 3]]


def test_make_leech(capsys):
    rc, out, _ = run(capsys, "make", "--family", "leech")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 24
    assert len(doc["provenance"]["x0"]) == 24


def test_make_rejects_bad_params(capsys):
    rc, _, err = run(capsys, "make", "--family", "A", "--dim", "0")
    assert rc == 2
    assert "n >= 1" in err
    assert run(capsys, "make", "--family", "A")[0] == 2
    assert run(capsys, "make", "--family", "leech", "--dim", "23")[0] == 2


def test_make_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "make", "--family", "E", "--dim", "7", "--out", str(a))
    run(capsys, "make", "--family", "E", "--dim", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# -- load validation ---------------------------------------------------------


def test_min_and_shell_text(capsys, tmp_path):
    path = write_doc(tmp_path, "a2.json", **A2)
    assert run(capsys, "min", path) == (0, "m=2 s=3\n", "")
    assert run(capsys, "shell", path, "--norm", "6") == (0, "s_6=3\n", "")


def test_min_json(capsys, tmp_path):
    path = write_doc(tmp_path, "a2.json", **A2)
    rc, out, _ = run(capsys, "min", path, "--json")
    assert rc == 0
    assert json.loads(out) == {"m": "2", "s": 3}


def test_shell_lists_vectors(capsys, tmp_path):
    path = write_doc(tmp_path, "a2.json", **A2)
    rc, out, _ = run(capsys, "shell", path, "--norm", "2", "--vectors")
    lines = out.splitlines()
    assert lines[0] == "s_2=3"
    assert sorted(lines[1:]) == ["0,1", "1,-1", "1,0"]
    rc, out, _ = run(capsys, "shell", path, "--norm", "2", "--vectors", "--json")
    assert json.loads(out)["vectors"] == [[0, 1], [1, -1], [1, 0]]


def test_shell_count_builds_no_shell(capsys, tmp_path, monkeypatch):
    """Without --vectors, eqlat shell prints the count of E8's norm-4 shell,
    byte for byte as before, without building or caching the shell."""
    path = e8_file(capsys, tmp_path)
    rc, out, _ = run(capsys, "shell", path, "--norm", "4", "--vectors")
    assert rc == 0 and out.splitlines()[0] == "s_4=1080" and len(out.splitlines()) == 1081

    def refuse(*args):
        raise AssertionError("the shell was built")

    monkeypatch.setattr(cli, "shell", refuse)
    monkeypatch.setattr(shortvec, "_coset_shell", refuse)
    assert run(capsys, "shell", path, "--norm", "4") == (0, "s_4=1080\n", "")
    assert run(capsys, "shell", path, "--norm", "4", "--json") == (0, '{"norm": "4", "s": 1080}\n', "")


def test_shell_rejects_bad_norm(capsys, tmp_path):
    path = write_doc(tmp_path, "a2.json", **A2)
    assert run(capsys, "shell", path, "--norm", "x")[0] == 2
    assert run(capsys, "shell", path, "--norm", "-2")[0] == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2, "den": 1, "gram": [[2, 1], [1, 2]]},            # no name
        {"name": "x", "dim": 2, "den": 0, "gram": [[2, 1], [1, 2]]},
        {"name": "x", "dim": 2, "den": 1, "gram": [[2, 1], [1, 2]], "extra": 1},
        {"name": "x", "dim": 3, "den": 1, "gram": [[2, 1], [1, 2]]},
        {"name": "x", "dim": 2, "den": 1, "gram": [[2, 1], [0, 2]]},  # asymmetric
        {"name": "x", "dim": 2, "den": 1, "gram": [[1, 3], [3, 1]]},  # indefinite
        {"name": "x", "dim": 2, "den": 1, "gram": [[2, 0.5], [0.5, 2]]},
        {"name": "x", "dim": 2, "den": 1, "gram": [[2, 1], [1]]},    # ragged
        {"name": "b", "dim": True, "den": True, "gram": [[2]]},      # JSON true
        {"name": "b", "dim": True, "den": 1, "gram": [[2]]},
        {"name": "b", "dim": 1, "den": True, "gram": [[2]]},
        {"name": "b", "dim": 1, "den": 1, "gram": [[True]]},
        {"name": "x", "dim": 2, "den": 1, "gram": [[0, 0], [0, 1]]},  # singular
        [[2, 1], [1, 2]],                                            # not an object
    ],
)
def test_load_rejects_invalid_documents(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc) + "\n")
    rc, _, err = run(capsys, "min", str(path))
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_load_keeps_big_entries_exact(capsys, tmp_path):
    big = 10**39 + 7  # 40 digits, far beyond int64
    path = write_doc(tmp_path, "big.json", name="big", dim=1, den=1, gram=[[big]])
    assert run(capsys, "min", path) == (0, f"m={big} s=1\n", "")


def test_load_rejects_non_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json\n")
    assert run(capsys, "min", str(path))[0] == 2
    assert run(capsys, "min", str(tmp_path / "absent.json"))[0] == 2


def test_saved_file_round_trips(capsys, tmp_path):
    first = tmp_path / "e6.json"
    run(capsys, "make", "--family", "E", "--dim", "6", "--out", str(first))
    doc = json.loads(first.read_text())
    # loading and re-serializing the canonical file reproduces the bytes
    reloaded = json.dumps(doc, sort_keys=True) + "\n"
    assert reloaded == first.read_text()


# -- equi --------------------------------------------------------------------


def e8_file(capsys, tmp_path):
    path = tmp_path / "e8.json"
    run(capsys, "make", "--family", "E", "--dim", "8", "--out", str(path))
    return str(path)


def test_equi_e8_text(capsys, tmp_path):
    rc, out, _ = run(capsys, "equi", e8_file(capsys, tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "source name=E8 dim=8 det=1 minimum=2 s=120"
    assert lines[2] == "family t=28 rank=7 alpha=1/3 m=2"
    assert lines[3] == "spectrum least=-3 multiplicity=21 certified=pass"
    assert lines[4] == "bounds absolute=pass[28,eq] relative=pass[28,eq] neumann=pass"
    assert lines[5] == "vectors 28"
    assert len(lines) == 34


def test_equi_e8_json_schema(capsys, tmp_path):
    rc, out, _ = run(capsys, "equi", e8_file(capsys, tmp_path), "--json")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("report"))
    assert (doc["t"], doc["rank"], doc["alpha"]) == (28, 7, "1/3")
    assert doc["spectrum"] == {"least": ["-3", "-3"], "multiplicity": 21,
                               "passed": True}
    assert doc["bounds"]["absolute"]["equality"] is True
    assert doc["certified"] is True
    assert len(doc["vectors"]) == 28


def test_equi_deterministic(capsys, tmp_path):
    path = e8_file(capsys, tmp_path)
    first = run(capsys, "equi", path, "--json")
    second = run(capsys, "equi", path, "--json")
    assert first == second


def test_equi_explicit_x0_matches_default(capsys, tmp_path):
    path = e8_file(capsys, tmp_path)
    _, out, _ = run(capsys, "equi", path, "--json")
    x0 = ",".join(str(c) for c in json.loads(out)["x0"])
    rc, out2, _ = run(capsys, "equi", path, "--x0", x0, "--json")
    assert rc == 0 and out2 == out


def test_equi_emit_relative(capsys, tmp_path):
    rel = tmp_path / "rel.json"
    rc, _, _ = run(capsys, "equi", e8_file(capsys, tmp_path),
                   "--emit-relative", str(rel))
    assert rc == 0
    doc = json.loads(rel.read_text())
    jsonschema.validate(doc, load_schema("lattice"))
    assert doc["dim"] == 7
    lat = GramLattice(doc["gram"])
    assert minimum(lat) == 6
    assert shell_count(lat, 6) == 28


def test_equi_exit_3_when_no_base_vector(capsys, tmp_path):
    path = write_doc(tmp_path, "z2.json", name="Z2", dim=2, den=1,
                     gram=[[1, 0], [0, 1]])
    rc, _, err = run(capsys, "equi", path)
    assert rc == 3
    assert "norm 2m - 2" in err


def test_equi_exit_4_when_class_is_empty(capsys, tmp_path):
    path = write_doc(tmp_path, "aa.json", name="A1+A1", dim=2, den=1,
                     gram=[[2, 0], [0, 2]])
    rc, out, _ = run(capsys, "equi", path, "--json")
    assert rc == 4
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("report"))
    assert doc["t"] == 0
    assert doc["alpha"] == "1/3"
    assert "empty" in doc["reason"]


def test_equi_exit_4_when_an_odd_minimum_leaves_no_angle(capsys, tmp_path):
    """P5 (minimum 3) and E8 projected along e1 and doubled (minimum 3) have
    class shells at 2m + 2 = 8 with orthogonal lines: a failed hypothesis,
    exit 4 with the reason on stderr, not a self-check's traceback."""
    p5 = tmp_path / "p5.json"
    run(capsys, "make", "--family", "P", "--dim", "5", "--out", str(p5))
    projected = tmp_path / "e8p.json"
    run(capsys, "project", e8_file(capsys, tmp_path), "--v", "1,0,0,0,0,0,0,0",
        "--rescale", "2", "--out", str(projected))
    for path in (p5, projected):
        rc, out, err = run(capsys, "equi", str(path))
        assert (rc, out) == (4, "")
        assert err.startswith("error: odd minimum 3: the class shell is not equiangular")


def test_equi_x0_errors(capsys, tmp_path):
    path = e8_file(capsys, tmp_path)
    rc, _, err = run(capsys, "equi", path, "--x0", "2,0,0,0,0,0,0,0")  # norm 8
    assert rc == 3 and "need 2m - 2" in err
    assert run(capsys, "equi", path, "--x0", "1,0")[0] == 2
    assert run(capsys, "equi", path, "--x0", "a,b,c,d,e,f,g,h")[0] == 2


# -- project and section -----------------------------------------------------


def test_project_reproduces_projection_family(capsys, tmp_path):
    d5 = tmp_path / "d5.json"
    out_path = tmp_path / "p4.json"
    run(capsys, "make", "--family", "D", "--dim", "5", "--out", str(d5))
    rc, _, _ = run(capsys, "project", str(d5), "--v", "1,0,0,0,0",
                   "--rescale", "2", "--out", str(out_path))
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["provenance"] == {"op": "project", "source": "D5",
                                 "v": [1, 0, 0, 0, 0], "rescale": "2"}
    got = GramLattice(doc["gram"]) if doc["den"] == 1 else None
    ref = dn_projection_gram(4).lattice
    assert got is not None
    assert (got.det, minimum(got), shell_count(got, 3)) == (
        ref.det, 3, shell_count(ref, 3))


def test_project_rejects_non_primitive(capsys, tmp_path):
    d5 = tmp_path / "d5.json"
    run(capsys, "make", "--family", "D", "--dim", "5", "--out", str(d5))
    rc, _, err = run(capsys, "project", str(d5), "--v", "2,0,0,0,0")
    assert rc == 2 and "gcd" in err
    assert run(capsys, "project", str(d5), "--v", "0,0,0,0,0")[0] == 2
    assert run(capsys, "project", str(d5), "--v", "1,0,0,0,0",
               "--rescale", "0")[0] == 2


def test_section_e8_gives_e7(capsys, tmp_path):
    path = e8_file(capsys, tmp_path)
    marks = root_lattice("E", 8).marks
    eps = IntMatrix([list(r) for r in marks["eps_rows"]])
    c = solve_left(eps, [0, 0, 0, 0, 0, 0, 2, -2])  # eps_7 - eps_8, doubled
    w = ",".join(str(int(x)) for x in c)
    rc, out, _ = run(capsys, "section", path, "--w", w)
    assert rc == 0
    doc = json.loads(out)
    lat = GramLattice(doc["gram"], name=doc["name"])
    assert (doc["dim"], lat.det, minimum(lat), shell_count(lat, 2)) == (7, 2, 2, 63)
    assert doc["provenance"]["op"] == "section"


def test_section_rejects_zero(capsys, tmp_path):
    path = e8_file(capsys, tmp_path)
    assert run(capsys, "section", path, "--w", "0,0,0,0,0,0,0,0")[0] == 2


@pytest.mark.parametrize("argv", [("project", "--v"), ("section", "--w")])
def test_a_section_of_dimension_0_writes_no_file(capsys, tmp_path, argv):
    # exited 0 and wrote "dim": 0, which load_lattice rejects
    path = write_doc(tmp_path, "line.json", name="line", dim=1, den=1, gram=[[2]])
    out = tmp_path / "out.json"
    for extra in ((), ("--out", str(out))):
        rc, stdout, err = run(capsys, argv[0], path, argv[1], "1", *extra)
        assert (rc, stdout) == (3, "")
        assert "dimension 0" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("project", "--v"), ("section", "--w"), ("equi", "--x0")])
def test_vectors_of_the_wrong_length_exit_2(capsys, tmp_path, argv):
    path = e8_file(capsys, tmp_path)
    cmd, flag = argv
    rc, out, err = run(capsys, cmd, path, flag, "1,0")
    assert (rc, out) == (2, "")
    assert "vector has 2 coordinates, lattice needs 8" in err


# -- report suites -----------------------------------------------------------


def test_report_roots_text(capsys):
    rc, out, _ = run(capsys, "report", "--suite", "roots")
    assert rc == 0
    assert out.splitlines() == [
        "A_n t=n-1 rank=n-1 (n=4..12 verified)",
        "D_n t=2(n-1)-2 rank=n-1 (n=4..12 verified)",
        "E_6 t=10 rank=5",
        "E_7 t=16 rank=6",
        "E_8 t=28 rank=7",
    ]


def test_report_roots_json(capsys):
    rc, out, _ = run(capsys, "report", "--suite", "roots", "--json")
    rows = [tuple(r) for r in json.loads(out)["rows"]]
    assert ("E", 8, 28, 7) in rows
    assert ("D", 12, 20, 11) in rows
    assert ("A", 12, 11, 11) in rows


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, stdout", [
    (("equi", str(GOLDEN / "e8.json"), "--json"), "equi_e8.stdout"),
    (("report", "--suite", "roots", "--json"), "report_roots.stdout"),
    (("report", "--suite", "min3", "--json"), "report_min3.stdout"),
])
def test_json_stdout_matches_golden(capsys, argv, stdout):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out.encode() == (GOLDEN / stdout).read_bytes()


def test_text_stdout_and_relative_file_match_golden(capsys, tmp_path):
    rc, out, _ = run(capsys, "equi", str(GOLDEN / "e8.json"))
    assert rc == 0
    assert out.encode() == (GOLDEN / "equi_e8_text.stdout").read_bytes()
    rel = tmp_path / "rel.json"
    rc, out, _ = run(capsys, "equi", str(GOLDEN / "d5.json"), "--emit-relative", str(rel))
    assert rc == 0
    assert out.encode() == (GOLDEN / "equi_d5_relative.stdout").read_bytes()
    assert rel.read_bytes() == (GOLDEN / "rel_d5.json").read_bytes()


def test_leech_family_and_relative_file_match_golden(capsys, tmp_path):
    src = GOLDEN / "leech.json"
    x0 = json.loads(src.read_text())["provenance"]["x0"]
    rel = tmp_path / "rel.json"
    rc, out, _ = run(capsys, "equi", str(src), "--x0", ",".join(map(str, x0)),
                     "--json", "--emit-relative", str(rel))
    assert rc == 0
    assert out.encode() == (GOLDEN / "equi_leech_x0.stdout").read_bytes()
    assert rel.read_bytes() == (GOLDEN / "rel_leech.json").read_bytes()


def test_report_min3(capsys):
    rc, out, _ = run(capsys, "report", "--suite", "min3", "--json")
    assert rc == 0
    assert json.loads(out)["rows"] == [[n, 3, 2 * (n - 1)] for n in range(3, 13)]


def test_report_leech(capsys):
    rc, out, _ = run(capsys, "report", "--suite", "leech")
    assert rc == 0
    assert out == "n=23, t=276, alpha=1/5\n"


def test_report_table(capsys):
    rc, out, _ = run(capsys, "report", "--suite", "table", "--json")
    assert rc == 0
    doc = json.loads(out)
    rows = {r["n"]: r for r in doc["rows"]}
    assert rows[23]["status"] == "asserted t=276"
    assert rows[22] == {"n": 22, "lattice": 176, "max_known": "176",
                        "status": "reference"}
    assert rows[18]["max_known"] == "57..59"
    assert all(rows[n]["status"] == "reference" for n in range(14, 23))


# -- global flags ------------------------------------------------------------


def test_walks_split_across_processes_print_the_same_bytes(capsys, monkeypatch):
    """With _SPLIT 0 every walk but "mincount" with two top-level values or
    more is split across the process's CPUs; the output stays the golden
    bytes."""
    pools = []

    class Recorded(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(shortvec, "_SPLIT", 0)
    monkeypatch.setattr(shortvec.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorded)
    shortvec._min_count.cache_clear()
    shortvec._coset_shell.cache_clear()
    rc, out, _ = run(capsys, "equi", str(GOLDEN / "e8.json"), "--json")
    assert rc == 0
    assert out.encode() == (GOLDEN / "equi_e8.stdout").read_bytes()
    assert pools and set(pools) == {2}


def test_verbose_goes_to_stderr(capsys, tmp_path):
    path = write_doc(tmp_path, "a2.json", **A2)
    rc, out, err = run(capsys, "min", path, "--verbose")
    assert rc == 0
    assert out == "m=2 s=3\n"
    assert "A2" in err


def test_no_command_prints_help(capsys):
    rc, out, _ = run(capsys)
    assert rc == 2
    assert "exit codes" in out


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for phrase in ("0  success", "2  input error", "3  structural", "4  hypothesis"):
        assert phrase in out
