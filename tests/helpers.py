"""Fixture builders shared across the test modules."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from tsl import (
    ActionContext,
    FiniteSemigroup,
    NoiseSpec,
    ProbMeasure,
    StateSpace,
    TransformationElement,
    cyclic_group_context,
    element_carrier,
    semigroup_context,
)

SRC = Path(__file__).resolve().parent.parent / "src"

THREE = StateSpace.of_size(3)
GEN_A = TransformationElement((1, 0, 1))
GEN_B = TransformationElement((2, 2, 0))

# the full closure of {GEN_A, GEN_B}, in generated order
CLOSURE_IMAGES = (
    (1, 0, 1),
    (2, 2, 0),
    (0, 0, 2),
    (0, 1, 0),
    (1, 1, 1),
    (2, 2, 2),
    (0, 0, 0),
)


def two_map_noise(p, q, prefix=()) -> NoiseSpec:
    car = element_carrier(THREE)
    tail = ProbMeasure.from_weights(car, {GEN_A: Fraction(p), GEN_B: Fraction(q)})
    return NoiseSpec(tail, tuple(prefix))


def three_ctx() -> ActionContext:
    return semigroup_context(THREE)


def cyclic_noise(n: int, weights, prefix=()):
    """Context plus noise over Z/n; weights map residues to rationals."""
    ctx = cyclic_group_context(n)
    car = element_carrier(ctx.space)

    def measure(w) -> ProbMeasure:
        assert ctx.group_elements is not None
        return ProbMeasure.from_weights(
            car, {ctx.group_elements[g]: Fraction(x) for g, x in w.items()}
        )

    return ctx, NoiseSpec(measure(weights), tuple(measure(w) for w in prefix))


def element_measure(space: StateSpace, weights) -> ProbMeasure:
    return ProbMeasure.from_weights(
        element_carrier(space),
        {TransformationElement(img): Fraction(w) for img, w in weights.items()},
    )


def run_cli(argv, cwd, env=None) -> subprocess.CompletedProcess:
    """Run `python -m tsl ARGV` in a fresh interpreter on this checkout's code.

    The absolute `src` goes first on PYTHONPATH, so the run neither needs an
    installed console script nor picks up another installed copy of `tsl`.
    ``env`` holds variables to set over the current environment.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tsl", *argv], capture_output=True, cwd=cwd, env=env
    )


def product_table(sg: FiniteSemigroup) -> tuple[tuple[int, ...], ...]:
    """Every product a * b from `mul`; the right Cayley graph must be its generator columns."""
    table = tuple(tuple(sg.mul(a, b) for b in range(sg.size)) for a in range(sg.size))
    assert sg.right == tuple(tuple(row[g] for g in sg.generators) for row in table)
    return table


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` for one test; each call appends its arguments to the returned list."""
    calls: list = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls
