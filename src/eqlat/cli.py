"""Command-line front end for building, inspecting and certifying lattices.

Lattice files are line-oriented JSON, one document per file, holding an
integer Gram matrix and a denominator (the true Gram matrix is gram/den);
symmetry and positive definiteness are validated on every load.  All output
is deterministic: vector lists use the canonical shell order, JSON is
emitted with sorted keys, and nothing carries a timestamp, so re-running a
command on the same input reproduces the bytes.

The exit codes are listed in `eqlat --help` (_EPILOG); _EXIT_CODES maps each
library error a command lets through to its code.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from fractions import Fraction
from typing import Sequence

import numpy as np

# the layers every command needs; each command imports the rest that it runs
# (make: constructions; min, shell: shortvec; equi: shortvec, lines, mod2;
# report: all), so `eqlat make` compiles and builds no enumeration code
from .errors import (
    BadParameter,
    DimensionMismatch,
    EmptyClass,
    EqlatError,
    NotEquiangular,
    NotEven,
    NotIntegral,
    NotPositiveDefinite,
    NotPrimitive,
    TooLarge,
    WrongNormX0,
    ZeroVector,
)
from .exact import IntMatrix, RatMatrix
from .fastops import _BLOCK
from .lattice import GramLattice

OK, USAGE, PRECONDITION, HYPOTHESIS, TOO_LARGE = 0, 2, 3, 4, 5
INTERRUPTED, CLOSED = 130, 141  # 128 + SIGINT (Ctrl-C) or SIGPIPE, as a shell reports them

# the exit code of each library error a command lets through; any other is a bug
_EXIT_CODES = {DimensionMismatch: USAGE, ZeroVector: USAGE, NotPrimitive: USAGE,
               BadParameter: PRECONDITION, EmptyClass: PRECONDITION, WrongNormX0: PRECONDITION,
               NotEven: PRECONDITION, NotIntegral: PRECONDITION, NotEquiangular: HYPOTHESIS,
               TooLarge: TOO_LARGE}


class _Terminated(BaseException):
    """SIGTERM or SIGHUP (its number in args[0]) during main.  Like
    KeyboardInterrupt it is no error: it unwinds the command, so a split
    walk ends its workers on the way out."""


def _terminated(signum, frame):
    raise _Terminated(signum)


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _frac(x) -> str:
    return str(Fraction(x))


def _fraction(obj) -> str:
    """json's default: a Fraction as its string, "3/2" or "4"."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, default=_fraction)


def _print_json(doc) -> None:
    print(_dumps(doc))


def _parse_vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise _Exit(USAGE, f"bad vector {text!r}: expected comma-separated integers")


def _positive(text: str, what: str) -> Fraction:
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _Exit(USAGE, f"bad {what} {text!r}")
    if c <= 0:
        raise _Exit(USAGE, f"{what} must be positive")
    return c


def _note(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Lattice files


def _lattice_doc(lat: GramLattice, name: str, provenance: dict | None = None) -> dict:
    if not lat.dim:  # load_lattice rejects dim 0
        raise _Exit(PRECONDITION, f"{name} has dimension 0: no lattice file can hold it")
    doc = {
        "name": name,
        "dim": lat.dim,
        "den": lat.gram.den,
        "gram": lat.gram.num.to_lists(),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is not 1


def load_lattice(path: str) -> tuple[GramLattice, dict]:
    """Read and validate one lattice document; raises _Exit(2) on any flaw."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _Exit(USAGE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _Exit(USAGE, f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise _Exit(USAGE, f"{path}: expected one JSON object")
    extra = set(doc) - {"name", "dim", "den", "gram", "provenance"}
    if extra:
        raise _Exit(USAGE, f"{path}: unknown fields {sorted(extra)}")
    for field in ("name", "dim", "den", "gram"):
        if field not in doc:
            raise _Exit(USAGE, f"{path}: missing field {field!r}")
    name, dim, den, gram = doc["name"], doc["dim"], doc["den"], doc["gram"]
    if not isinstance(name, str):
        raise _Exit(USAGE, f"{path}: name must be a string")
    if not _is_int(dim) or dim < 1:
        raise _Exit(USAGE, f"{path}: dim must be a positive integer")
    if not _is_int(den) or den < 1:
        raise _Exit(USAGE, f"{path}: den must be a positive integer")
    if (
        not isinstance(gram, list)
        or len(gram) != dim
        or any(
            not isinstance(row, list)
            or len(row) != dim
            or not all(_is_int(v) for v in row)
            for row in gram
        )
    ):
        raise _Exit(USAGE, f"{path}: gram must be a {dim}x{dim} integer matrix")
    try:
        lat = GramLattice(RatMatrix(IntMatrix(gram), den), name=name)
    except NotPositiveDefinite as exc:
        raise _Exit(USAGE, f"{path}: Gram matrix is not positive definite ({exc})")
    except DimensionMismatch as exc:
        raise _Exit(USAGE, f"{path}: {exc}")
    return lat, doc


def _write_doc(args, doc: dict, out: str | None, kind: str,
               quiet: bool = False) -> int:
    line = _dumps(doc)
    if out is None:
        print(line)
        return OK
    try:
        with open(out, "w") as fh:
            fh.write(line + "\n")
    except OSError as exc:
        raise _Exit(USAGE, f"cannot write {out}: {exc}")
    if quiet:
        # stdout already carries this command's report; keep it one document
        _note(args, f"wrote {kind} {out}")
    elif args.json:
        _print_json({"wrote": out, "kind": kind, "name": doc["name"], "dim": doc["dim"]})
    else:
        print(f"wrote {out} name={doc['name']} dim={doc['dim']}")
    return OK


# ---------------------------------------------------------------------------
# Commands


def cmd_make(args) -> int:
    from .constructions import dn_projection_gram, leech, root_lattice
    fam = args.family
    try:
        if fam == "leech":
            if args.dim not in (None, 24):
                raise BadParameter("the Leech lattice is 24-dimensional")
            nl = leech()
            prov = {"family": "leech", "note": nl.note, "x0": list(nl.marks["x0"])}
        else:
            if args.dim is None:
                raise BadParameter(f"family {fam} needs --dim")
            if fam == "P":
                nl = dn_projection_gram(args.dim)
            else:
                nl = root_lattice(fam, args.dim)
            prov = {"family": fam, "dim": args.dim, "note": nl.note}
    except BadParameter as exc:
        raise _Exit(USAGE, str(exc))
    return _write_doc(args, _lattice_doc(nl.lattice, nl.lattice.name, prov),
                      args.out, "lattice")


def cmd_min(args) -> int:
    from .shortvec import minimum, shell_count
    lat, _ = load_lattice(args.file)
    _note(args, f"enumerating minimal vectors of {lat.name}")
    m = minimum(lat)
    s = shell_count(lat, m)
    if args.json:
        _print_json({"m": m, "s": s})
    else:
        print(f"m={_frac(m)} s={s}")
    return OK


def cmd_shell(args) -> int:
    from .shortvec import _shell_rows, shell_count
    lat, _ = load_lattice(args.file)
    r = _positive(args.norm, "norm")
    _note(args, f"enumerating the norm-{r} shell of {lat.name}")
    if not args.vectors:  # the count alone stores no shell
        s = shell_count(lat, r)
        if args.json:
            _print_json({"norm": r, "s": s})
        else:
            print(f"s_{_frac(r)}={s}")
        return OK
    rows = _shell_rows(lat, r)
    if args.json:
        # json.dumps's own bytes, with the vectors streamed between "[" and "]}"
        print(_dumps({"norm": r, "s": len(rows), "vectors": []})[:-2], end="")
        _write_rows(rows, "[", ", ", "]", ", ")
        print("]}")
    else:
        print(f"s_{_frac(r)}={len(rows)}")
        _write_rows(rows, "", ",", "\n", "")
    return OK


# str(v) of the int8 value v at the index of its byte, v mod 256
_INT8_TEXT = np.array([str(v - 256 * (v > 127)) for v in range(256)], object)


def _write_rows(rows, start: str, inner: str, end: str, sep: str) -> None:
    """start + the entries of v joined by inner + end for each row v of rows,
    joined by sep, written _BLOCK rows at a time, so no text and no tuple of
    the whole shell is ever held.  int8 entries are read from _INT8_TEXT by
    their bytes, one block at a time; wider and object rows go through %."""
    from .shortvec import _tuples
    fmt = start + inner.join(["%d"] * rows.shape[1]) + end
    for i in range(0, len(rows), _BLOCK):
        block = rows[i:i + _BLOCK]
        if block.dtype == np.int8:
            text = start + (end + sep + start).join(map(inner.join, _INT8_TEXT[block.view(np.uint8)].tolist())) + end
        else:
            text = sep.join(map(fmt.__mod__, _tuples(block)))
        sys.stdout.write((sep if i else "") + text)


def _spectrum_summary(cert: dict) -> dict:
    entry = next(c for c in cert["checks"] if c["check"] == "least_eigenvalue")
    lo, hi = entry["interval"]
    return {
        "least": [lo, hi],
        "multiplicity": entry["multiplicity"],
        "passed": entry["passed"],
    }


def _bound_summary(cert: dict) -> dict:
    out = {}
    for c in cert["checks"]:
        if c["check"] == "absolute_bound":
            out["absolute"] = {"applicable": True, "bound": c["bound"],
                               "equality": c["equality"], "passed": c["passed"]}
        elif c["check"] == "relative_bound":
            entry = {"applicable": c["applicable"], "passed": c["passed"]}
            if c["applicable"]:
                entry.update(bound=c["bound"], equality=c["equality"])
            out["relative"] = entry
        elif c["check"] == "neumann":
            out["neumann"] = {"applicable": c["applicable"], "passed": c["passed"]}
    return out


def _render_bound(label: str, entry: dict) -> str:
    if not entry["applicable"]:
        return f"{label}=n/a"
    word = "pass" if entry["passed"] else "FAIL"
    if "bound" in entry:
        word += f"[{entry['bound']}{',eq' if entry['equality'] else ''}]"
    return f"{label}={word}"


def cmd_equi(args) -> int:
    from .lines import certify
    from .mod2 import equiangular_direct, relative_lattice
    from .shortvec import shell_count
    lat, _ = load_lattice(args.file)
    x0 = _parse_vec(args.x0) if args.x0 else None
    _note(args, f"running the congruence pipeline on {lat.name}")
    es = equiangular_direct(lat, x0)
    source = {"name": lat.name or "?", "dim": lat.dim, "det": lat.det,
              "minimum": es.m, "s": shell_count(lat, es.m)}
    report = {
        "source": source,
        "x0": list(es.x0),
        "m": int(es.m),
        "t": es.t,
        "rank": es.rank,
        "alpha": Fraction(1, int(es.m) + 1),
    }
    if es.t == 0:
        report["reason"] = es.reason or (
            f"the class shell at norm {2 * int(es.m) + 2} is empty"
        )
    elif es.t >= 2:
        _note(args, f"certifying {es.t} lines")
        cert = certify(es)
        report["spectrum"] = _spectrum_summary(cert)
        report["bounds"] = _bound_summary(cert)
        report["certified"] = cert["ok"]
    else:
        report["note"] = "a single line carries no angle; nothing to certify"
    if es.t:
        report["vectors"] = [list(v) for v in es.pairs.reps]
    (_print_json if args.json else _print_equi_text)(report)
    if not es.t:
        return HYPOTHESIS
    if args.emit_relative:
        rel = relative_lattice(lat, es.x0)
        prov = {"op": "relative", "source": lat.name, "x0": list(es.x0)}
        _write_doc(args, _lattice_doc(rel.induced, f"rel({lat.name})", prov),
                   args.emit_relative, "relative lattice", quiet=True)
    return OK


def _print_equi_text(report: dict) -> None:
    src = report["source"]
    print(f"source name={src['name']} dim={src['dim']} det={_frac(src['det'])}"
          f" minimum={_frac(src['minimum'])} s={src['s']}")
    print("x0 " + ",".join(str(c) for c in report["x0"]))
    print(f"family t={report['t']} rank={report['rank']}"
          f" alpha={_frac(report['alpha'])} m={report['m']}")
    if "reason" in report:
        print(f"reason {report['reason']}")
        return
    if "note" in report:
        print(f"note {report['note']}")
    else:
        spec = report["spectrum"]
        lo, hi = spec["least"]
        where = f"least={_frac(lo)}" if lo == hi else f"least_in=[{_frac(lo)},{_frac(hi)}]"
        word = "pass" if spec["passed"] else "FAIL"
        print(f"spectrum {where} multiplicity={spec['multiplicity']} certified={word}")
        b = report["bounds"]
        print("bounds " + " ".join(_render_bound(k, b[k])
                                   for k in ("absolute", "relative", "neumann")))
        print(f"vectors {report['t']}")
    for v in report["vectors"]:
        print(",".join(str(c) for c in v))


def cmd_project(args) -> int:
    lat, _ = load_lattice(args.file)
    v = _parse_vec(args.v)
    out = lat.project_along(v).lattice
    prov = {"op": "project", "source": lat.name, "v": list(v)}
    if args.rescale != "1":
        c = _positive(args.rescale, "rescale factor")
        out = out.rescale(c)
        prov["rescale"] = c
    name = f"project({lat.name or '?'})"
    return _write_doc(args, _lattice_doc(out, name, prov), args.out, "projection")


def cmd_section(args) -> int:
    lat, _ = load_lattice(args.file)
    w = _parse_vec(args.w)
    sec = lat.orthogonal_section(w)
    prov = {"op": "section", "source": lat.name, "w": list(w)}
    name = f"section({lat.name or '?'})"
    return _write_doc(args, _lattice_doc(sec.induced, name, prov), args.out,
                      "section")


# ---------------------------------------------------------------------------
# Report suites


def _suite_roots(args) -> None:
    from .constructions import root_equiangular_table
    rows = root_equiangular_table(12)
    if args.json:
        _print_json({"suite": "roots", "rows": [list(r) for r in rows]})
        return
    print("A_n t=n-1 rank=n-1 (n=4..12 verified)")
    print("D_n t=2(n-1)-2 rank=n-1 (n=4..12 verified)")
    for fam, n, t, r in rows:
        if fam == "E":
            print(f"E_{n} t={t} rank={r}")


def _suite_min3(args) -> None:
    from .constructions import dn_projection_gram
    # dn_projection_gram certifies minimum 3 and the count
    rows = [(n, 3, dn_projection_gram(n).marks["s"]) for n in range(3, 13)]
    if args.json:
        _print_json({"suite": "min3", "rows": [list(r) for r in rows]})
        return
    for n, m, s in rows:
        print(f"n={n} minimum={m} s={s}")


def _witt_row(args) -> tuple[int, int, Fraction]:
    from .constructions import leech
    from .mod2 import equiangular_direct
    nl = leech()
    _note(args, "enumerating the Witt design class on the Leech lattice")
    es = equiangular_direct(nl.lattice, nl.marks["x0"])
    t, rank = len(es.pairs), es.rank
    if (t, rank, es.alpha) != (276, 23, Fraction(1, 5)):
        raise EqlatError(f"Witt design came out t={t} rank={rank} alpha={es.alpha}")
    return t, rank, es.alpha


def _suite_leech(args) -> None:
    t, rank, alpha = _witt_row(args)
    if args.json:
        _print_json({"suite": "leech", "n": rank, "t": t, "alpha": alpha})
        return
    print(f"n={rank}, t={t}, alpha={_frac(alpha)}")


def _suite_table(args) -> None:
    from .lines import KNOWN_MAX_LINES, LATTICE_LINES_KNOWN
    t23, _, _ = _witt_row(args)
    rows = []
    for n in sorted(LATTICE_LINES_KNOWN):
        known = KNOWN_MAX_LINES[n]
        known_s = f"{known[0]}..{known[1]}" if isinstance(known, tuple) else str(known)
        status = f"asserted t={t23}" if n == 23 else "reference"
        rows.append({"n": n, "lattice": LATTICE_LINES_KNOWN[n],
                     "max_known": known_s, "status": status})
    if args.json:
        _print_json({"suite": "table", "rows": rows,
                     "note": "reference values from published tables;"
                             " only n=23 is computed and asserted"})
        return
    for row in rows:
        print(f"n={row['n']} lattice={row['lattice']}"
              f" max_known={row['max_known']} status={row['status']}")


def cmd_report(args) -> int:
    {"roots": _suite_roots, "min3": _suite_min3,
     "leech": _suite_leech, "table": _suite_table}[args.suite](args)
    return OK


# ---------------------------------------------------------------------------
# Parser


_EPILOG = """\
exit codes:
  0  success
  2  input error: bad parameters, malformed or invalid lattice file, bad vector
  3  structural precondition failure: no base vector of norm 2m-2 exists, or
     the lattice is not of the shape the construction needs
  4  hypothesis failure: the pipeline ran but the candidate class is empty,
     or the minimum is odd and the class shell is not equiangular
  5  too large: the vectors asked for would take more than 1 GiB to hold
     (Leech's norm-8 shell with --vectors); their count alone still runs
  129  hung up (SIGHUP); one line is printed on stderr
  130  interrupted (Ctrl-C); one line is printed on stderr
  141  stdout closed before the output ended (e.g. piped into head);
       nothing is printed on stderr
  143  terminated (SIGTERM); one line is printed on stderr

vectors on the command line are comma-separated integers in the lattice's
stored basis; there is no real-coordinate input.

an enumeration walk forecast past 1,000,000 nodes runs in one process on
its classes of subtrees, or where these rarely repeat (a large determinant
against the norm) is split across the CPUs the process may use (taskset
limits them): the command walks one share and forked workers, which end
with it, the others.  Any other walk runs serially.
"""


_SHELL_HELP = """\
count the +-pairs of vectors of one norm.  With --vectors, also list one
representative per pair in the canonical shell order, written 4,096 rows
at a time straight from the cached shell array, so no text or tuple of the
whole shell is held.  If stdout closes early (e.g. | head), the command
exits 141 and prints nothing on stderr.
"""


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON (sorted keys) instead of text")
    parser.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="progress notes on stderr")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eqlat",
        description="exact lattice and equiangular-line toolkit",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _common(top)
    sub = top.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("make", help="construct a named lattice file")
    p.add_argument("--family", required=True,
                   choices=["A", "D", "E", "P", "leech"],
                   help="root family, projection family P, or leech")
    p.add_argument("--dim", type=int, help="dimension parameter n")
    p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")
    _common(p)
    p.set_defaults(func=cmd_make)

    p = sub.add_parser("min", help="minimum and pair count of a lattice file")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=cmd_min)

    p = sub.add_parser("shell", help="count (and list) vectors of one norm",
                       description=_SHELL_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("file")
    p.add_argument("--norm", required=True, help="target norm, e.g. 6 or 3/2")
    p.add_argument("--vectors", action="store_true",
                   help="also list the canonical representatives")
    _common(p)
    p.set_defaults(func=cmd_shell)

    p = sub.add_parser("equi", help="equiangular family report for a lattice file")
    p.add_argument("file")
    p.add_argument("--x0", help="base vector (default: least of norm 2m-2)")
    p.add_argument("--emit-relative", metavar="PATH",
                   help="also write the relative lattice file")
    _common(p)
    p.set_defaults(func=cmd_equi)

    p = sub.add_parser("project", help="project the lattice along a primitive vector")
    p.add_argument("file")
    p.add_argument("--v", required=True, help="vector to project along")
    p.add_argument("--rescale", default="1", metavar="C",
                   help="rescale the projected form by C (e.g. 2)")
    p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")
    _common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("section", help="orthogonal section against a vector")
    p.add_argument("file")
    p.add_argument("--w", required=True, help="vector the section is orthogonal to")
    p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")
    _common(p)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("report", help="run a verification suite and print its table")
    p.add_argument("--suite", required=True,
                   choices=["roots", "min3", "leech", "table"])
    _common(p)
    p.set_defaults(func=cmd_report)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, fallback in (("json", False), ("verbose", False)):
        if not hasattr(args, flag):
            setattr(args, flag, fallback)
    if args.command is None:
        parser.print_help()
        return USAGE
    # signals reach only the main thread, and only it may set their handlers
    ends = {signal.SIGTERM, getattr(signal, "SIGHUP", signal.SIGTERM)}
    ends = ends if threading.current_thread() is threading.main_thread() else ()
    before = {signum: signal.signal(signum, _terminated) for signum in ends}
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except (_Exit, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _Exit) else _EXIT_CODES[type(exc)]
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED
    except _Terminated as exc:
        print("terminated", file=sys.stderr)
        return 128 + exc.args[0]
    except BrokenPipeError:
        # the reader went away (| head): stop quietly, and send what is still
        # buffered to /dev/null so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED
    finally:
        for signum, handler in before.items():
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)


if __name__ == "__main__":
    sys.exit(main())
