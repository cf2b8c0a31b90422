"""eqlat benchmark: one workload, timed from outside in fresh processes.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 it repeats whole rounds of the workload until S
seconds have been measured and prints the end-to-end metrics, their times
scaled by the host's speed as each process measured it (hostclock.py); with
--trace 1 it runs one untraced and one traced round (every layer wrapped,
see tracing.py) and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md for the workloads, metrics and measured spread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks as K  # noqa: E402
import tracing  # noqa: E402
from workloads import OPS, equi_args  # noqa: E402

WORKLOADS = ("leech-cli", "leech-slice", "spectra", "skewed-bases")
SETUP_REPEATS = 6
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s
# per-process deadlines; the default-x0 CLI run is killed and counted failed
DEADLINE_S = {"leech-cli": 120.0, "leech-slice": 120.0, "spectra": 60.0,
              "skewed-bases": 60.0, "setup": 30.0}
DEFAULT_X0_DEADLINE_S = 30.0


class Budget:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Proc(NamedTuple):
    """One finished child process."""

    wall: float  # seconds from spawn to exit
    code: int
    rss_mb: float  # its ru_maxrss
    clock: dict  # its hostclock reading, {} if it wrote none

    @property
    def killed(self) -> bool:
        return self.code == -signal.SIGKILL

    def scaled(self, left_out: float = 0.0) -> float:
        """Wall time less left_out, with the part the clock saw scaled.

        left_out is time the process spent after its clock stopped that is
        not measured (the checks)."""
        return self.wall - left_out - self.clock["raw_s"] + self.clock["scaled_s"]


def spawn(argv, cwd: Path, deadline: float, stdout: Path | None = None) -> Proc:
    """Run argv to its end or kill it at the deadline; time it from outside."""
    clock = cwd / "clock.json"
    clock.unlink(missing_ok=True)
    with open(stdout or os.devnull, "wb") as out, open(cwd / "stderr", "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err)

        def kill():
            with contextlib.suppress(ProcessLookupError):
                os.kill(p.pid, signal.SIGKILL)

        timer = threading.Timer(max(deadline, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    try:
        reading = json.loads(clock.read_text()) if p.returncode == 0 else {}
    except (OSError, ValueError):
        reading = {}
    return Proc(wall, p.returncode, usage.ru_maxrss / 1024.0, reading)


def _child(mode: str, workload: str, seed: int, work: Path, deadline: float) -> Proc:
    argv = [sys.executable, str(HERE / "workloads.py"), mode, workload, str(seed), str(work)]
    return spawn(argv, work, deadline)


def _cli(args: list[str], work: Path, deadline: float, stdout: Path) -> Proc:
    return spawn([sys.executable, str(HERE / "clocked_cli.py"), str(work / "clock.json"),
                  *args], work, deadline, stdout)


def _fresh(work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _stderr_tail(work: Path) -> str:
    try:
        return (work / "stderr").read_text(errors="replace")[-400:]
    except OSError:
        return ""


def _result(work: Path) -> dict:
    try:
        return json.loads((work / "result.json").read_text())
    except (OSError, ValueError):
        return {}


def _completed(work: Path) -> int:
    try:
        return len((work / "progress").read_text().splitlines())
    except OSError:
        return 0


class Digests:
    """sha256 of CLI stdout by source tree and command, kept across runs."""

    def __init__(self, path: Path):
        self.path = path
        tree = hashlib.sha256()
        for f in sorted((ROOT / "src" / "eqlat").rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                tree.update(f.relative_to(ROOT).as_posix().encode() + f.read_bytes())
        self.tree = tree.hexdigest()[:16]
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, digest: str) -> list[str]:
        seen = self.known.setdefault(f"{self.tree} {key}", digest)
        if seen != digest:
            return [f"stdout of {key} differs from an earlier run in this checkout"]
        self.path.write_text(json.dumps(self.known, sort_keys=True))
        return []


# ---------------------------------------------------------------------------
# Untraced runs: setup_s, wall_s, peak_rss_mb


def setup_times(workload: str, seed: int, work: Path, budget: Budget,
                repeats: int) -> tuple[list[float], list[float], list[str]]:
    """Scaled and raw wall times of `repeats` set-up processes."""
    times, raw, bad = [], [], []
    for _ in range(repeats):
        deadline = min(DEADLINE_S["setup"], budget.left())
        if workload == "leech-cli":
            p = _cli(["make", "--family", "leech", "--out", "leech.json"], work,
                     deadline, work / "make.out")
        else:
            p = _child("setup", workload, seed, work, deadline)
        if p.code != 0 or not p.clock:
            bad.append(f"setup exited {p.code}{' at its deadline' if p.killed else ''}")
            break
        times.append(p.scaled())
        raw.append(p.wall)
    return times, raw, bad


@dataclass
class Round:
    wall: float = 0.0  # scaled wall time of the processes that completed
    raw: float = 0.0  # their wall time as measured
    charged: float = 0.0  # deadlines of the processes that did not
    attempted: int = 0
    failed: int = 0
    rss: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def round_library(workload: str, seed: int, work: Path, budget: Budget) -> Round:
    r = Round()
    (work / "progress").unlink(missing_ok=True)
    (work / "result.json").unlink(missing_ok=True)
    deadline = min(DEADLINE_S[workload], budget.left())
    p = _child("ops", workload, seed, work, deadline)
    res = _result(work)
    done = _completed(work)
    r.attempted = len(OPS[workload])
    r.failed = r.attempted - done
    if p.code == 0 and res and p.clock:
        r.wall = p.scaled(res["check_s"])
        r.raw = p.wall - res["check_s"]
        r.problems += res["problems"]
        r.rss.append(res["ops_rss_mb"])  # read before the checks ran
    else:
        print(f"{workload} round failed ({p.code}): {_stderr_tail(work)}", file=sys.stderr)
        r.charged = deadline
        r.failed = max(r.failed, 1)
        if done:
            r.rss.append(p.rss_mb)
    return r


def round_leech_cli(work: Path, budget: Budget, digests: Digests) -> Round:
    """Two CLI runs: the Witt family with the marked x0, then the default x0."""
    r = Round()
    lat = json.loads((work / "leech.json").read_text())
    x0 = lat["provenance"]["x0"]
    rel = work / "rel.json"
    rel.unlink(missing_ok=True)
    runs = [(equi_args(work), DEADLINE_S["leech-cli"], x0),
            (["equi", "leech.json", "--json"], DEFAULT_X0_DEADLINE_S, None)]
    for i, (args, limit, want_x0) in enumerate(runs):
        deadline = min(limit, budget.left())
        out = work / f"equi{i}.out"
        p = _cli(args, work, deadline, out)
        r.attempted += 1
        if p.code != 0 or not p.clock:
            if not (want_x0 is None and p.killed):  # the known default-x0 fault
                print(f"eqlat {' '.join(args)} failed ({p.code}): {_stderr_tail(work)}",
                      file=sys.stderr)
            r.failed += 1
            r.charged += deadline
            continue
        r.wall += p.scaled()
        r.raw += p.wall
        r.rss.append(p.rss_mb)
        text = out.read_bytes()
        bad = K.check_witt_report(json.loads(text), lat["gram"], lat["den"], want_x0)
        if i == 0:
            reldoc = json.loads(rel.read_text())
            bad += K.check_relative(None, lat["gram"], lat["den"], x0, reldoc["gram"],
                                    reldoc["den"], 1, 10)
        bad += digests.check(" ".join(args), hashlib.sha256(text).hexdigest())
        r.problems += [f"eqlat {' '.join(args)}: {b}" for b in bad]
    return r


def timed(workload: str, seed: int, seconds: int, work: Path, digests: Digests) -> dict:
    budget = Budget()
    # set-up samples come before and after the rounds, so that they meet
    # more than one spell of the host's speed
    half = SETUP_REPEATS // 2
    setups, raw_setups, problems = setup_times(workload, seed, work, budget, half)
    if problems:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "problems": problems}
    if workload == "leech-cli":
        lat = json.loads((work / "leech.json").read_text())
        problems += K.check_gram(lat["gram"], lat["den"], 24, det=1, even=True)
    rounds: list[Round] = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        if rounds and budget.left() < 2 * max(x.raw + x.charged for x in rounds):
            break  # another round could not finish inside the run's budget
        if workload == "leech-cli":
            rounds.append(round_leech_cli(work, budget, digests))
        else:
            rounds.append(round_library(workload, seed, work, budget))
    more, raw_more, bad = setup_times(workload, seed, work, budget, SETUP_REPEATS - half)
    setups += more
    raw_setups += raw_more
    problems += bad
    rss = [m for x in rounds for m in x.rss]
    metrics = {
        "wall_s": {"value": statistics.median(x.wall + x.charged for x in rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    if rss:
        metrics["peak_rss_mb"] = {"value": max(rss), "unit": "MB"}
    problems += [p for x in rounds for p in x.problems]
    return {
        "correct": not problems and bool(rss),
        "attempted": sum(x.attempted for x in rounds),
        "failed": sum(x.failed for x in rounds),
        "metrics": metrics,
        "samples": {"round_wall_s": [x.wall for x in rounds],
                    "round_raw_wall_s": [x.raw for x in rounds],
                    "round_charged_s": [x.charged for x in rounds], "setup_s": setups,
                    "raw_setup_s": raw_setups},
        "problems": problems[:20],
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics and the tracing overhead


def traced(workload: str, seed: int, work: Path, digests: Digests, trace_out: Path) -> dict:
    budget = Budget()
    walls, problems, metrics = {}, [], {}
    attempted = failed = 0
    for mode in ("untraced", "traced"):
        for name in ("progress", "result.json"):
            (work / name).unlink(missing_ok=True)
        deadline = min(2 * DEADLINE_S[workload], budget.left())
        p = _child(mode, workload, seed, work, deadline)
        res = _result(work)
        attempted += len(OPS[workload])
        failed += len(OPS[workload]) - _completed(work)
        if p.code != 0 or not res or not p.clock:
            problems.append(f"{mode} run exited {p.code}: {_stderr_tail(work)}")
            walls[mode] = deadline
            continue
        walls[mode] = p.scaled(res["check_s"])
        problems += res["problems"]
        if "stdout_sha256" in res:  # in-process CLI run: same bytes as a subprocess
            problems += digests.check(" ".join(equi_args(work)), res["stdout_sha256"])
        if mode == "traced":
            metrics = res["metrics"]
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(work / "trace.json", trace_out)
    metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    units = {k: u for k, (u, _) in tracing.METRICS.items()}
    return {
        "correct": not problems and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems[:20],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eqlat" / "__init__.py").is_file():
        print(f"error: no eqlat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    state = ROOT / ".bench_work"
    work = _fresh(state / f"{args.workload}-{args.seed}-{os.getpid()}")
    state.mkdir(exist_ok=True)
    digests = Digests(state / "stdout-digests.json")
    try:
        if args.trace:
            out = traced(args.workload, args.seed, work, digests,
                         state / "traces" / f"{args.workload}-seed{args.seed}.json")
        else:
            out = timed(args.workload, args.seed, args.seconds, work, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in out.pop("problems"):
        print(f"problem: {p}", file=sys.stderr)
    if "samples" in out:
        print(json.dumps(out.pop("samples")))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
