"""The correctness gate behind ``fail_ratio``.

``reference.json`` holds, for every command of every workload, what this
repository printed when the benchmark was defined: exit code, stderr, the
SHA-256 of stdout at the reference seed and trial count, and for ``simulate``
the atom names with their exact column.  A command passes when:

* ``analyze`` and ``fourier``: exit code, stderr and stdout digest all match
  (their output does not depend on the seed);
* ``simulate`` at the reference seed and trial count: the same byte match;
* ``simulate`` otherwise: the header names this seed and trial count, the
  atom and exact columns match the reference, and every empirical value falls
  in a band that a correct program leaves with negligible probability:
  a binomial band of SIGMA standard deviations plus SLACK counts for
  frequencies, and SIGMA reported standard errors for the mean stopping time;
* a capacity refusal: exit 2, empty stdout and the exact ``capacity:`` line.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Optional

REFERENCE_SEED = 1
SIGMA = 6.0
# Extra counts in the binomial band, so that atoms with an expected count of a
# few trials (where the normal approximation is poor) cannot fail by chance.
SLACK = 6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_rows(lines: list[str]) -> list[list[str]]:
    """The cells of simulate's aligned table; atom labels may contain spaces."""
    header = lines[0]
    cuts = [0] + [header.index(name) for name in ("exact", "empirical", "stderr")]
    bounds = list(zip(cuts, cuts[1:] + [None]))
    return [[line[a:b].strip() for a, b in bounds] for line in lines[1:]]


def reference_entry(argv: list[str], rc: int, out: str, err: str) -> dict:
    """What `reference.json` stores for one command run at the reference seed."""
    entry = {"rc": rc, "stderr": err, "stdout_sha256": digest(out)}
    if argv[0] == "simulate" and rc == 0:
        entry["trials"] = int(argv[argv.index("--trials") + 1])
        entry["seed"] = int(argv[argv.index("--seed") + 1])
        entry["rows"] = [row[:2] for row in table_rows(out.splitlines()[1:])]
    return entry


def _band_failure(row: list[str], trials: int) -> Optional[str]:
    atom, exact_text, empirical_text, stderr_text = row
    exact = Fraction(exact_text)
    empirical = float(empirical_text)
    if atom == "T:mean":
        stderr = float(stderr_text)
        if abs(empirical - float(exact)) > SIGMA * stderr + 1e-12:
            return f"{atom}: mean {empirical} outside {SIGMA} stderr of {exact}"
        return None
    count = round(empirical * trials)
    if abs(count - empirical * trials) > 1e-6:
        return f"{atom}: frequency {empirical} is not a count over {trials} trials"
    expected = float(exact) * trials
    spread = math.sqrt(trials * float(exact) * (1 - float(exact)))
    if exact in (0, 1):
        if count != exact * trials:
            return f"{atom}: count {count}, expected exactly {exact * trials}"
    elif abs(count - expected) > SIGMA * spread + SLACK:
        return f"{atom}: count {count} outside the band around {expected:.1f}"
    frequency = count / trials
    if stderr_text != format(math.sqrt(frequency * (1 - frequency) / trials), ".12g"):
        return f"{atom}: stderr {stderr_text} does not match the frequency"
    return None


def _simulate_failure(ref: dict, argv: list[str], out: str) -> Optional[str]:
    trials = int(argv[argv.index("--trials") + 1])
    seed = int(argv[argv.index("--seed") + 1])
    depth = int(argv[argv.index("--depth") + 1])
    lines = out.splitlines()
    if not out.endswith("\n") or len(lines) < 2:
        return "simulate output is truncated"
    if lines[0] != f"trials={trials} depth={depth} seed={seed} rng=splitmix64":
        return f"unexpected header {lines[0]!r}"
    if lines[1].split() != ["atom", "exact", "empirical", "stderr"]:
        return f"unexpected table header {lines[1]!r}"
    rows = table_rows(lines[1:])
    if [r[:2] for r in rows] != ref["rows"]:
        return "atom or exact column differs from the reference"
    for row in rows:
        if not row[2] or not row[3]:
            return f"row {row[0]} lacks an empirical value"
        failure = _band_failure(row, trials)
        if failure is not None:
            return failure
    return None


def failure(ref: Optional[dict], argv: list[str], rc, out: str, err: str) -> Optional[str]:
    """None when the command's output is correct, else the reason it is not."""
    if ref is None:
        return "no reference for this command"
    if not isinstance(rc, int):
        return f"raised {rc!r}"
    if rc != ref["rc"] or err != ref["stderr"]:
        return f"exit {rc} with stderr {err.strip()!r}"
    exact_bytes = digest(out) == ref["stdout_sha256"]
    if "rows" not in ref:
        return None if exact_bytes else "stdout differs from the reference"
    at_reference = (
        int(argv[argv.index("--seed") + 1]) == ref["seed"]
        and int(argv[argv.index("--trials") + 1]) == ref["trials"]
    )
    if at_reference:
        return None if exact_bytes else "stdout differs from the reference"
    return _simulate_failure(ref, argv, out)
