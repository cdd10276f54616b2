"""Record the output-byte pins of the problem ladder.

    PYTHONPATH=src python3 tests/record_pins.py

Runs every command of `COMMANDS` in-process through `tsl.cli.main` and
writes its exit code, stderr and the SHA-256 of its stdout to
`ladder_pins.json` beside this file; `test_output_pins.py` checks them.  CLI
output bytes are not meant to change, so a later run should reproduce the
file exactly: a re-record is a declared output change, named with the
commands whose bytes moved.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "ladder_pins.json"

_T = "gen t = 2 1 3 4{}\ngen c = 2 3 4{} 1\ngen m = 1 1 3 4{}\nnoise iid t:1/3 c:1/3 m:1/3\n"
# T4 and T5 are the full transformation monoids from a transposition, the
# n-cycle and a merge; W3952 is a random 7-state problem whose closure has
# 3,952 elements; A7 is the alternating group on 7 states; T5+10 is T5 behind
# ten prefix stages.
PROBLEMS = {
    "T4": "space 4\n" + _T.format("", "", ""),
    "T5": "space 5\n" + _T.format(" 5", " 5", " 5"),
    "W3952": (
        "space 7\ngen a = 6 3 1 7 6 7 4\ngen b = 4 4 3 2 5 3 7\ngen c = 2 4 5 4 5 2 1\n"
        "noise iid a:1/3 b:1/3 c:1/3\n"
    ),
    "T5+10": "space 5\n" + _T.format(" 5", " 5", " 5")
    + "".join(f"noise at {-k} t:1/2 c:1/2\n" for k in range(10)),
    "A7": "space 7\ngen a = 2 3 1 4 5 6 7\ngen b = 1 2 4 5 6 7 3\nnoise iid a:1/2 b:1/2\n",
}

ANALYZE = (("analyze",), ("analyze", "--json"))
SIMULATE = ("simulate", "--seed", "1", "--trials", "200")
# (problem, command, options): argv is command, the problem's file, options
COMMANDS = [
    (name, command[0], command[1:])
    for name in PROBLEMS
    for command in ANALYZE + ((SIMULATE,) if name != "A7" else ())
]


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `tsl.cli.main(argv)`, in this process."""
    from tsl.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def pins(work: str) -> dict[str, dict]:
    """What each command of `COMMANDS` gives, keyed by its label; the
    problem files are written into `work`."""
    paths = {}
    for name, text in PROBLEMS.items():
        paths[name] = os.path.join(work, f"{name}.tsl")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    out = {}
    for name, command, options in COMMANDS:
        rc, stdout, stderr = run([command, paths[name], *options])
        label = " ".join((command, name, *options))
        out[label] = {"rc": rc, "stderr": stderr, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        recorded = pins(work)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(recorded)} pins written to {PINS.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
