"""The sparse exact solver against the dense reference, on random systems."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tsl.errors import InternalInconsistencyError
from tsl.linear import _check_substitution, solve_linear

from oracles import dense_solve

COMMON = settings(max_examples=120, derandomize=True, deadline=None)

ENTRY = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def sparse_system(draw, min_size: int = 1, max_size: int = 7):
    """A square system that is usually non-singular, with 1-3 right-hand sides.

    Row i always holds a non-zero in column perm[i]; up to three more entries
    per row may be anything, zero included.
    """
    n = draw(st.integers(min_size, max_size))
    perm = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        row = {perm[i]: draw(ENTRY.filter(bool))}
        for c in draw(st.sets(st.integers(0, n - 1), max_size=3)):
            if c != perm[i]:
                row[c] = draw(ENTRY)
        rows.append(row)
    count = draw(st.integers(1, 3))
    rhss = [[draw(ENTRY) for _ in range(n)] for _ in range(count)]
    return n, rows, rhss


def dense(n: int, rows: list[dict[int, Fraction]]) -> list[list[Fraction]]:
    return [[row.get(c, Fraction(0)) for c in range(n)] for row in rows]


@COMMON
@given(sparse_system())
def test_sparse_solve_equals_the_dense_reference(system):
    n, rows, rhss = system
    try:
        expected = [dense_solve(dense(n, rows), b) for b in rhss]
    except ValueError:
        with pytest.raises(ValueError, match="singular linear system"):
            solve_linear(rows, rhss)
        return
    assert solve_linear(rows, rhss) == expected


@COMMON
@given(sparse_system(), st.data())
def test_an_empty_column_is_singular(system, data):
    n, rows, rhss = system
    empty = data.draw(st.integers(0, n - 1))
    rows = [{c: v for c, v in row.items() if c != empty} for row in rows]
    with pytest.raises(ValueError, match="singular linear system"):
        solve_linear(rows, rhss)


@COMMON
@given(sparse_system(min_size=2), st.data())
def test_two_equal_rows_are_singular(system, data):
    n, rows, rhss = system
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    rows[j] = dict(rows[i])
    with pytest.raises(ValueError, match="singular linear system"):
        solve_linear(rows, rhss)


def test_substitution_check_rejects_a_wrong_solution():
    rows = [{0: Fraction(2), 1: Fraction(1)}, {1: Fraction(3)}]
    rhss = [[Fraction(5), Fraction(3)]]
    assert solve_linear(rows, rhss) == [[Fraction(2), Fraction(1)]]
    with pytest.raises(InternalInconsistencyError, match="substitution"):
        _check_substitution(rows, rhss, [[Fraction(2), Fraction(2)]])


def test_every_right_hand_side_gets_its_solution():
    rows = [{0: Fraction(1), 1: Fraction(-1, 2)}, {1: Fraction(1)}]
    rhss = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)], [Fraction(0)] * 2]
    assert solve_linear(rows, rhss) == [
        [Fraction(1, 2), Fraction(1)],
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0)],
    ]
    assert solve_linear([], [[], []]) == [[], []]
