"""Random problem files through the whole command line, in-process."""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tsl.cli import ProblemSpec, main, parse_spec, serialize_spec


@st.composite
def noise_law(draw, names: list[str]) -> tuple[tuple[str, Fraction], ...]:
    """Positive rational weights on a non-empty set of atoms, in drawn order."""
    atoms = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    counts = [draw(st.integers(1, 6)) for _ in atoms]
    return tuple((name, Fraction(c, sum(counts))) for name, c in zip(atoms, counts))


@st.composite
def problems(draw, mode: str) -> ProblemSpec:
    """A problem in ``mode``: "semigroup" on 1-4 states with 1-4 generators, or
    "cyclic", `group Z N` with N <= 8; an i.i.d. law and up to two `noise at K`
    stages."""
    if mode == "semigroup":
        size = draw(st.integers(1, 4))
        images = st.tuples(*[st.integers(0, size - 1)] * size)
        count = draw(st.integers(1, 4))
        generators = tuple((f"g{i}", draw(images)) for i in range(count))
        names = [name for name, _ in generators]
    else:
        size, generators = draw(st.integers(1, 8)), ()
        names = [str(r) for r in range(size)]
    times = draw(st.lists(st.integers(-3, 0), max_size=2, unique=True))
    prefix = tuple((k, draw(noise_law(names))) for k in sorted(times, reverse=True))
    return ProblemSpec(mode, size, generators, draw(noise_law(names)), prefix)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("mode", ["semigroup", "cyclic"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_written_problem_reads_back_and_runs(tmp_path_factory, mode, data):
    spec = data.draw(problems(mode))
    text = serialize_spec(spec)
    assert parse_spec(text) == spec
    path = tmp_path_factory.mktemp("problem") / "problem.tsl"
    path.write_text(text)
    for argv in (
        ["analyze", str(path)],
        ["analyze", str(path), "--json"],
        ["simulate", str(path), "--trials", "50", "--depth", "16"],
    ):
        rc, out, err = run_main(argv)
        assert (rc, err) == (0, "") or (rc == 2 and err.startswith("capacity:")), (argv, text, err)
        assert out or rc == 2
