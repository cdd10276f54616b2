"""Exact sparse linear solves over Fractions, each checked by substitution."""

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalInconsistencyError

__all__ = ["solve_linear"]


def solve_linear(
    rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve A x = b exactly for the right-hand side b = ``rhs``.

    ``rows[i]`` maps column j to A[i][j] and need only hold the non-zeros of
    a square system over columns 0..n-1.  Columns are eliminated in order;
    each one pivots on the remaining row with the fewest non-zeros, lowest
    index on ties, which keeps the fill-in small on the sparse chain systems.
    Raises ValueError on a singular system.  Every solution is checked by
    substitution, and a failed check raises InternalInconsistencyError.
    """
    n = len(rows)
    work = [{c: v for c, v in row.items() if v} for row in rows]
    right = list(rhs)
    column_rows: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(work):
        for c in row:
            column_rows[c].add(r)
    pivots = []
    for col in range(n):
        candidates = column_rows[col]
        if not candidates:
            raise ValueError("singular linear system")
        p = min(candidates, key=lambda r: (len(work[r]), r))
        pivot = work[p]
        for c in pivot:
            column_rows[c].discard(p)
        scale = pivot[col]
        for c in pivot:
            pivot[c] /= scale
        right[p] /= scale
        for r in list(candidates):
            row = work[r]
            f = row.pop(col)
            for c, v in pivot.items():
                if c == col:
                    continue
                old = row.get(c)
                if old is None:
                    row[c] = -f * v
                    column_rows[c].add(r)
                else:
                    value = old - f * v
                    if value:
                        row[c] = value
                    else:
                        del row[c]
                        column_rows[c].discard(r)
            right[r] -= f * right[p]
        candidates.clear()
        pivots.append(p)
    x = [Fraction(0)] * n
    for col in range(n - 1, -1, -1):
        p = pivots[col]
        x[col] = right[p] - sum((v * x[c] for c, v in work[p].items() if c != col), Fraction(0))
    _check_substitution(rows, rhs, x)
    return x


def _check_substitution(
    rows: Sequence[Mapping[int, Fraction]], b: Sequence[Fraction], x: Sequence[Fraction]
) -> None:
    """Raise InternalInconsistencyError unless A x == b holds exactly."""
    for i, row in enumerate(rows):
        if sum((v * x[c] for c, v in row.items()), Fraction(0)) != b[i]:
            raise InternalInconsistencyError(f"linear solve fails substitution at row {i}")
