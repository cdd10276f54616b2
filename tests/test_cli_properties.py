"""Random problem files through the whole command line, in-process."""

from __future__ import annotations

import contextlib
import io
import time

import pytest
from hypothesis import given, settings, strategies as st

from tsl.cli import main, parse_spec, serialize_spec

from problems import problems

# every command on a fuzzed problem finishes within this
BUDGET_S = 2.0


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("mode", ["semigroup", "cyclic"])
@settings(max_examples=40)
@given(data=st.data())
def test_every_written_problem_reads_back_and_runs(tmp_path_factory, mode, data):
    spec = data.draw(problems(mode, wide=True)).spec
    text = serialize_spec(spec)
    assert parse_spec(text) == spec
    path = tmp_path_factory.mktemp("problem") / "problem.tsl"
    path.write_text(text)
    for argv in (
        ["analyze", str(path)],
        ["analyze", str(path), "--json"],
        ["simulate", str(path), "--trials", "50", "--depth", "16"],
    ):
        start = time.perf_counter()
        rc, out, err = run_main(argv)
        assert time.perf_counter() - start < BUDGET_S, (argv, text)
        assert (rc, err) == (0, "") or (rc == 2 and err.startswith("capacity:")), (argv, text, err)
        assert out or rc == 2
