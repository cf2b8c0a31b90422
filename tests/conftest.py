import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def walks(monkeypatch):
    """(Walk, WalkResult) of every walk the library makes while the test
    runs, in order, recorded at shortvec._run, the one way into a walk."""
    from eqlat import shortvec

    made = []
    run = shortvec._run

    def recorded(walk):
        result = run(walk)
        made.append((walk, result))
        return result

    monkeypatch.setattr(shortvec, "_run", recorded)
    return made


class Splits(list):
    """The processes of each split walk, in order, and in pids every worker
    forked, as the splits fixture records them."""

    def __init__(self):
        super().__init__()
        self.pids = []


@pytest.fixture
def splits(monkeypatch):
    """For each walk the library splits while the test runs, in order, the
    processes that walk it: this one and the workers it forks (os.fork,
    recorded in the parent)."""
    from eqlat import shortvec

    made = Splits()
    run, fork = shortvec._run, os.fork

    def forked():
        pid = fork()
        if pid:
            made.pids.append(pid)
        return pid

    def recorded(walk):
        before = len(made.pids)
        try:
            return run(walk)
        finally:
            if len(made.pids) > before:
                made.append(len(made.pids) - before + 1)

    monkeypatch.setattr(shortvec.os, "fork", forked)
    monkeypatch.setattr(shortvec, "_run", recorded)
    return made
