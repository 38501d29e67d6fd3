"""GF(2) linear algebra on rows packed into Python ints.

Bit i of a row is column i.  ``Span`` is the one eliminator: it keeps one
reduced row per pivot, keyed by the row's top set bit (``bit_length``, which
unlike ``r & -r`` builds no full-width int), and reduces each incoming row
against them.  ``rank`` is the size of the span the rows generate;
``rank_naive`` is an independent oracle for the tests.
"""

from __future__ import annotations

from .core import InputError


def rank(rows: list[int], n_cols: int) -> int:
    """Rank of the rows, each a packed row of n_cols columns."""
    span = Span()
    for row in rows:
        if row >> n_cols:
            raise InputError(f"row {row:#x} does not fit in {n_cols} columns")
        span.add(row)
    return len(span)


class Span:
    """Incremental GF(2) row span keyed by top set bit."""

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}

    def reduce(self, vec: int) -> int:
        r = vec
        while r:
            row = self.pivots.get(r.bit_length())
            if row is None:
                return r
            r ^= row
        return 0

    def add(self, vec: int) -> bool:
        """Insert vec; True when it enlarged the span."""
        r = self.reduce(vec)
        if r == 0:
            return False
        self.pivots[r.bit_length()] = r
        return True

    def __len__(self) -> int:
        return len(self.pivots)


def rank_naive(rows: list[int], n_cols: int) -> int:
    """Independent oracle: textbook elimination over 0/1 lists."""
    mat = [[(row >> c) & 1 for c in range(n_cols)] for row in rows]
    rk = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(rk, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rk], mat[pivot_row] = mat[pivot_row], mat[rk]
        for r in range(len(mat)):
            if r != rk and mat[r][col]:
                mat[r] = [(x + y) % 2 for x, y in zip(mat[r], mat[rk])]
        rk += 1
    return rk
