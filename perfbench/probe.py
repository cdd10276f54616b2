"""The benchmark's set-up: import tsl from this checkout and write the problems.

Run as a script, it does the set-up in a fresh interpreter and prints the
monotonic clock when done; `run.py` subtracts its own reading taken just
before starting the process, which gives ``setup_s``.  ``time.monotonic`` is
one system-wide clock on Linux, so the two readings are comparable.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")


class CheckoutError(Exception):
    """The directory around the benchmark is not a tsl checkout."""


def setup():
    """Import ``tsl.cli`` from ROOT/src and write the problems; return (cli, paths)."""
    if not os.path.isfile(os.path.join(SRC, "tsl", "cli.py")):
        raise CheckoutError(f"no tsl sources under {SRC}")
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import ladder
    import tsl.cli

    if os.path.dirname(os.path.abspath(tsl.__file__)) != os.path.join(SRC, "tsl"):
        raise CheckoutError(f"tsl was imported from {tsl.__file__}, not {SRC}")
    for name in ladder.SPECS:
        if not os.path.isfile(os.path.join(ROOT, "specs", f"{name}.tsl")):
            raise CheckoutError(f"missing specs/{name}.tsl")
    return tsl.cli, ladder.write_problems(ROOT, WORK)


if __name__ == "__main__":
    try:
        setup()
    except CheckoutError as exc:
        sys.exit(f"error: {exc}")
    print(repr(time.monotonic()))
