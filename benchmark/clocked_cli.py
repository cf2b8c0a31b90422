"""Run `eqlat ARGS...` under a hostclock.Clock; write its reading to CLOCKFILE.

    python3 benchmark/clocked_cli.py CLOCKFILE ARGS...

run.py times CLI operations with this in place of the `eqlat` entry
point: it calls the same `eqlat.cli.main(ARGS)` and exits with its code.
The clock starts before `import eqlat`, so import time is scaled too.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402


def main() -> int:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    clock = hostclock.Clock()
    clock.start()
    from eqlat import cli

    code = cli.main(args)
    clock.stop_to(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
