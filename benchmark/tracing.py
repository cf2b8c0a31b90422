"""Spans around eqlat's public functions, recorded from outside the program.

`install()` wraps every public function of the layer modules, and every
public method of their public classes, so that each call appends one span
[name, start_ns, end_ns, parent].  A wrapper replaces the module attribute
and every other binding of the same function object in any eqlat module
(the names callers bind with `from .x import f`), so calls between layers
are seen too.  Functions in `LEAVES` are left unwrapped: they run once per
vector or per matrix entry inside loops, and a span each would cost more
than the call it measures.  Their time shows as self time of the caller.

`layer_metrics()` turns the spans into the per-layer metrics of
BENCHMARK.json; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "constructions", "lattice", "shortvec", "mod2", "lines",
          "exact", "fastops")

LEAVES = {
    "lattice.dot",
    "lattice.GramLattice.inner",
    "lattice.GramLattice.norm",
    "lattice.GramLattice.is_integral",
    "exact.IntMatrix.transpose",
    "exact.IntMatrix.to_lists",
    "exact.IntMatrix.is_symmetric",
    "exact.IntMatrix.is_zero",
    "exact.IntMatrix.stack",
    "exact.RatMatrix.to_fractions",
    "exact.RatMatrix.transpose",
    "exact.RatMatrix.is_symmetric",
    "exact.RatMatrix.is_integral",
    "exact.RatMatrix.scaled",
    "exact.poly_eval",
    "exact.poly_deriv",
    "exact.cauchy_bound",
    "shortvec.PairSet.signed",
    "shortvec.PairSet.contains",
    "shortvec.get_threads",
    "shortvec.set_threads",
}

# spans of these functions also record len(result): vectors returned
COUNTED = {"shortvec.shell", "shortvec.coset_shell"}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, n]
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counted = name in COUNTED

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if counted:
                    span[4] = len(out)
                return out
            finally:
                span[2] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "n"],
                       "spans": self.spans}, fh)


def _public_callables(mod):
    """(qualified name, owner, attribute, function) for wrap targets."""
    layer = mod.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", mod, attr, obj
        elif inspect.isclass(obj):
            for mattr, meth in vars(obj).items():
                if not mattr.startswith("_") and inspect.isfunction(meth):
                    yield f"{layer}.{attr}.{mattr}", obj, mattr, meth


def install() -> Recorder:
    """Wrap the layers in place; returns the recorder that holds the spans."""
    rec = Recorder()
    mods = [importlib.import_module(f"eqlat.{m}") for m in LAYERS]
    by_id = {}
    for mod in mods:
        for name, owner, attr, fn in list(_public_callables(mod)):
            if name in LEAVES:
                continue
            w = rec.wrap(name, fn)
            by_id[id(fn)] = w
            setattr(owner, attr, w)
    # rebind names imported with `from .x import f` in every eqlat module
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            w = by_id.get(id(obj))
            if w is not None and obj is not w:
                setattr(mod, attr, w)
    return rec


# ---------------------------------------------------------------------------
# Span analysis


def _self_times(spans) -> list[int]:
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            selfs[s[3]] -= s[2] - s[1]
    return selfs


def _is(span_name: str, name: str) -> bool:
    """A metric names a function as layer.fn; methods span as layer.Class.fn."""
    if span_name == name:
        return True
    parts = span_name.split(".")
    return len(parts) == 3 and f"{parts[0]}.{parts[2]}" == name


def _outermost(spans, name: str) -> list[list]:
    """Spans of `name` with no enclosing span of the same name."""
    out = []
    for s in spans:
        if not _is(s[0], name):
            continue
        p = s[3]
        while p >= 0 and not _is(spans[p][0], name):
            p = spans[p][3]
        if p < 0:
            out.append(s)
    return out


def _incl(spans, name: str) -> float:
    return sum(s[2] - s[1] for s in _outermost(spans, name)) / 1e9


def _self(spans, selfs, prefix: str) -> float:
    """Self time of spans named `prefix` or, for a layer, inside it."""
    if "." in prefix:
        return sum(t for s, t in zip(spans, selfs) if _is(s[0], prefix)) / 1e9
    return sum(t for s, t in zip(spans, selfs)
               if s[0].split(".", 1)[0] == prefix) / 1e9


def _calls(spans, name: str) -> int:
    return sum(1 for s in spans if _is(s[0], name))


# Per-layer metrics: name -> (unit, better).
# "<layer>.<fn>_s" is inclusive time of the outermost calls of fn,
# "<layer>.<fn>.self_s" and "<layer>.self_s" are self times, ".calls" counts.
METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.load_lattice_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "constructions.leech_s": ("s", "lower"),
    "constructions.root_lattice_s": ("s", "lower"),
    "constructions.section_search.self_s": ("s", "lower"),
    "lattice.self_s": ("s", "lower"),
    "lattice.sublattice_s": ("s", "lower"),
    "lattice.orthogonal_section_s": ("s", "lower"),
    "shortvec.lll_reduce_s": ("s", "lower"),
    "shortvec.lll_reduce.calls": ("count", "lower"),
    "shortvec.minimum.self_s": ("s", "lower"),
    "shortvec.shell_count_s": ("s", "lower"),
    "shortvec.shell.self_s": ("s", "lower"),
    "shortvec.pairs_per_s": ("pairs/s", "higher"),
    "shortvec.coset_shell_s": ("s", "lower"),
    "shortvec.vectors_upto_s": ("s", "lower"),
    "shortvec.self_s": ("s", "lower"),
    "mod2.equiangular_direct.self_s": ("s", "lower"),
    "mod2.relative_lattice.self_s": ("s", "lower"),
    "mod2.equiangular_via_s0.self_s": ("s", "lower"),
    "mod2.self_s": ("s", "lower"),
    "lines.line_family_s": ("s", "lower"),
    "lines.family_charpoly.self_s": ("s", "lower"),
    "lines.certify.self_s": ("s", "lower"),
    "lines.seidel_charpoly.self_s": ("s", "lower"),
    "lines.least_eigenvalue.self_s": ("s", "lower"),
    "lines.self_s": ("s", "lower"),
    "exact.berkowitz_s": ("s", "lower"),
    "exact.sturm_chain_s": ("s", "lower"),
    "exact.smallest_real_root.self_s": ("s", "lower"),
    "exact.root_multiplicity_s": ("s", "lower"),
    "exact.count_roots_halfopen.calls": ("count", "lower"),
    "exact.hnf_s": ("s", "lower"),
    "exact.rank_det_s": ("s", "lower"),
    "exact.self_s": ("s", "lower"),
    "fastops.imatmul_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans, import_s: float) -> dict[str, float]:
    """Every METRICS entry except trace.overhead_s, from one run's spans."""
    selfs = _self_times(spans)
    out = {}
    for name in METRICS:
        if name == "cli.import_s":
            out[name] = import_s
        elif name == "shortvec.pairs_per_s":
            shells = [s for n in COUNTED for s in _outermost(spans, n)]
            busy = sum(s[2] - s[1] for s in shells) / 1e9
            out[name] = sum(s[4] for s in shells) / busy if busy else 0.0
        elif name == "trace.spans":
            out[name] = len(spans)
        elif name.endswith(".calls"):
            out[name] = _calls(spans, name[: -len(".calls")])
        elif name.endswith(".self_s"):
            out[name] = _self(spans, selfs, name[: -len(".self_s")])
        elif name != "trace.overhead_s":
            out[name] = _incl(spans, name[: -len("_s")])
    return out
