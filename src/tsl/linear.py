"""Exact sparse linear solves over Fractions, each checked by substitution."""

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalInconsistencyError

__all__ = ["solve_linear"]


def solve_linear(
    rows: Sequence[Mapping[int, Fraction]], rhss: Sequence[Sequence[Fraction]]
) -> list[list[Fraction]]:
    """Solve A x = b exactly for each b in ``rhss``; one elimination serves all.

    ``rows[i]`` maps column j to A[i][j] and need only hold the non-zeros of
    a square system over columns 0..n-1.  Columns are eliminated in order;
    each one pivots on the remaining row with the fewest non-zeros, lowest
    index on ties, which keeps the fill-in small on the sparse chain systems.
    Raises ValueError on a singular system.  Every solution is checked by
    substitution, and a failed check raises InternalInconsistencyError.
    """
    n = len(rows)
    work = [{c: v for c, v in row.items() if v} for row in rows]
    right = [[b[i] for b in rhss] for i in range(n)]
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
        right[p] = [b / scale for b in right[p]]
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
            right[r] = [b - f * bp for b, bp in zip(right[r], right[p])]
        candidates.clear()
        pivots.append(p)
    solutions = [[Fraction(0)] * n for _ in rhss]
    for col in range(n - 1, -1, -1):
        p = pivots[col]
        terms = [(c, v) for c, v in work[p].items() if c != col]
        for x, b in zip(solutions, right[p]):
            x[col] = b - sum((v * x[c] for c, v in terms), Fraction(0))
    _check_substitution(rows, rhss, solutions)
    return solutions


def _check_substitution(
    rows: Sequence[Mapping[int, Fraction]],
    rhss: Sequence[Sequence[Fraction]],
    solutions: Sequence[Sequence[Fraction]],
) -> None:
    """Raise InternalInconsistencyError unless A x == b holds exactly for each pair."""
    for b, x in zip(rhss, solutions):
        for i, row in enumerate(rows):
            if sum((v * x[c] for c, v in row.items()), Fraction(0)) != b[i]:
                raise InternalInconsistencyError(
                    f"linear solve fails substitution at row {i}"
                )
