"""The problem ladder and the four workloads, as data.

Problems come from two places: the four bundled files in ``specs/`` and five
generated files that `write_problems` writes from fixed image lists.  A
workload is an ordered list of commands; each command is the argv given to
``tsl.cli.main``, with ``{seed}`` and ``{trials}`` standing for the workload
seed and the trial count, and the problem name for its file path.
"""

from __future__ import annotations

import os
from fractions import Fraction

SPECS = ("three_state", "z2_uniform", "z3_shift", "z4_pair")

# name -> 1-based image lists of the generators; noise is uniform on them.
GENERATED = {
    "sym4": ("2 1 3 4", "2 3 4 1"),
    "sym5": ("2 1 3 4 5", "2 3 4 5 1"),
    "cyc4-rank3": ("2 3 4 1", "1 1 3 4"),
    "cyc4-rank2": ("2 3 4 1", "1 1 1 4"),
    "full6-over-cap": ("2 1 3 4 5 6", "2 3 4 5 6 1", "1 1 3 4 5 6"),
}

CYCLIC_SPECS = ("z2_uniform", "z3_shift", "z4_pair")


def problem_text(name: str) -> str:
    """The problem file for a generated problem: uniform noise on its generators."""
    images = GENERATED[name]
    size = len(images[0].split())
    weight = Fraction(1, len(images))
    lines = [f"space {size}"]
    lines += [f"gen g{i} = {img}" for i, img in enumerate(images, start=1)]
    lines.append(
        "noise iid " + " ".join(f"g{i}:{weight}" for i in range(1, len(images) + 1))
    )
    return "\n".join(lines) + "\n"


def write_problems(root: str, work: str) -> dict[str, str]:
    """Write the generated problems into `work`; return name -> path for all nine."""
    os.makedirs(work, exist_ok=True)
    paths = {name: os.path.join(root, "specs", f"{name}.tsl") for name in SPECS}
    for name in GENERATED:
        path = os.path.join(work, f"{name}.tsl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(problem_text(name))
        paths[name] = path
    return paths


SIMULATE = ("--depth", "64", "--trials", "{trials}", "--seed", "{seed}")

# Each command is an argv template; argv[1] is the problem name.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Exact analysis only: dense Fraction solves dominate (measures layer);
    # sym5 is one 120-state stationary class, cyc4-rank3 has 124 transient
    # states.  No Monte Carlo.
    "exact-ladder": tuple(
        [("analyze", p) for p in SPECS + ("sym4", "sym5", "cyc4-rank3", "cyc4-rank2")]
        + [("analyze", p, "--json") for p in SPECS]
        + [("fourier", p) for p in CYCLIC_SPECS]
    ),
    # Every trial absorbs: where an early exit or a fused pass shows.
    "mc-absorbing": (
        ("simulate", "three_state", *SIMULATE),
        ("simulate", "cyc4-rank2", *SIMULATE),
    ),
    # Group carriers, nothing ever absorbs: every draw is needed, so an
    # absorbing-set shortcut must cost nothing here.  z3_shift adds a prefix.
    "mc-group": (
        ("simulate", "z4_pair", *SIMULATE),
        ("simulate", "z3_shift", *SIMULATE),
    ),
    # Both commands must exit 2 at the closure cap: the closure layer's workload.
    "capacity-guard": (
        ("analyze", "full6-over-cap"),
        ("simulate", "full6-over-cap", *SIMULATE),
    ),
}

# Trials per simulate command; the capacity refusal happens before any trial.
TRIALS = {"mc-absorbing": 20000, "mc-group": 10000, "capacity-guard": 10000}
SMOKE_TRIALS = 200

# The two commands per workload whose median times the summary lines report.
KEY_COMMANDS = {
    "exact-ladder": (("analyze", "sym5"), ("analyze", "cyc4-rank3")),
    "mc-absorbing": (("simulate", "three_state"), ("simulate", "cyc4-rank2")),
    "mc-group": (("simulate", "z4_pair"), ("simulate", "z3_shift")),
    "capacity-guard": (("analyze", "full6-over-cap"), ("simulate", "full6-over-cap")),
}
