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

