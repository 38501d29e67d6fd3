"""GF(2) linear algebra on rows packed into Python ints.

Bit i of a row is column i.  Elimination is deterministic: leftmost
pivot column first, topmost available row as the pivot row.
"""

from __future__ import annotations


def rank(rows: list[int], n_cols: int) -> int:
    """Rank via Gaussian elimination on packed rows."""
    work = [r for r in rows if r]
    rk = 0
    top = 0
    for col in range(n_cols):
        bit = 1 << col
        pivot = None
        for r in range(top, len(work)):
            if work[r] & bit:
                pivot = r
                break
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        for r in range(len(work)):
            if r != top and (work[r] & bit):
                work[r] ^= work[top]
        rk += 1
        top += 1
        if top == len(work):
            break
    return rk


class Span:
    """Incremental GF(2) row span keyed by lowest set bit."""

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}

    def reduce(self, vec: int) -> int:
        r = vec
        while r:
            low = r & -r
            row = self.pivots.get(low)
            if row is None:
                return r
            r ^= row
        return 0

    def add(self, vec: int) -> bool:
        """Insert vec; True when it enlarged the span."""
        r = self.reduce(vec)
        if r == 0:
            return False
        self.pivots[r & -r] = r
        return True

    def __contains__(self, vec: int) -> bool:
        return self.reduce(vec) == 0

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
