"""Standard monomial bases W_n of the Fibonacci Lie algebra and the
restricted variant with pivot squares adjoined.

Level n consists of the monomials t_0^* ... t_{n-4}^* v_n (all 2^(n-3)
tail subsets for n >= 4, the bare pivot for n <= 3); the restricted basis
additionally carries the square t_{n-3} v_n for n >= 3.  Enumeration order
is tail-mask ascending, which every downstream matrix and CSV inherits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, Literal

from .core import (
    LIMITS,
    FibLieError,
    IndexCeilingError,
    InputError,
    Monomial,
    bracket_each,
    check_cap,
    element,
    is_basis_monomial,
)

Kind = Literal["lie", "restricted"]


class BasisFormError(FibLieError):
    """An operation required a basis monomial but received something else."""


def tail_width(n: int) -> int:
    """Number of admissible tail positions at level n (bits 0..n-4)."""
    return max(n - 3, 0)


@dataclass(frozen=True)
class BasisLevel:
    """All basis monomials of one length, in tail-mask order."""

    n: int
    kind: Kind = "lie"
    masks: range = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("level index must be >= 1")
        if tail_width(self.n) > LIMITS.index_ceiling:
            raise IndexCeilingError(
                f"level {self.n} needs t-indices beyond ceiling {LIMITS.index_ceiling}"
            )
        object.__setattr__(self, "masks", range(1 << tail_width(self.n)))

    @property
    def square(self) -> Monomial | None:
        if self.kind == "restricted" and self.n >= 3:
            return Monomial(self.n, 1 << (self.n - 3))
        return None

    @property
    def size(self) -> int:
        """The number of monomials, also past 2^63, where len() cannot return it."""
        return self.masks.stop + (self.square is not None)

    def __len__(self) -> int:
        check_cap(self.size, f"monomials of W_{self.n} for len()", sys.maxsize)
        return self.size

    def __iter__(self) -> Iterator[Monomial]:
        for mask in self.masks:
            yield Monomial(self.n, mask)
        sq = self.square
        if sq is not None:
            yield sq


def enumerate_W(n: int, kind: Kind = "lie") -> BasisLevel:
    """Level n of the (restricted) standard-monomial basis."""
    return BasisLevel(n, kind)


def enumerate_W_upto(n: int, kind: Kind = "lie") -> list[BasisLevel]:
    """Levels 1..n."""
    if n < 1:
        raise InputError("level index must be >= 1")
    return [BasisLevel(k, kind) for k in range(1, n + 1)]


def check_held(levels: list[BasisLevel]) -> None:
    """Refuse, before any row is made, to hold every monomial of ``levels``
    at once past the monomial limit, as JSON output and figures 2 and 3 do."""
    rows = sum(level.size for level in levels)
    lo, hi = levels[0].n, levels[-1].n
    check_cap(rows, f"rows of W_{hi}" if lo == hi else f"rows of W_{lo}..W_{hi}")


def build_W_recursive(n: int) -> set[int]:
    """The tails of W_{n+1}, built as [v_{n-1}, W_n] plus [v_{n-2}, W_n]
    through the bracket engine; every bracket must give one monomial of
    pivot n + 1, else ``BasisFormError``."""
    if n < 3:
        raise InputError("recursive construction starts at level 3")
    out: set[int] = set()
    masks = enumerate_W(n).masks
    for gen in (Monomial(n - 1, 0), Monomial(n - 2, 0)):
        for s, res in zip(masks, bracket_each(gen, zip(repeat(n), masks))):
            if len(res) != 1:
                raise BasisFormError(
                    f"[{gen}, {Monomial(n, s)}] is not a monomial: {element(res)}"
                )
            (pivot, tail), = res
            if pivot != n + 1:
                raise BasisFormError(
                    f"[{gen}, {Monomial(n, s)}] has pivot {pivot}, expected {n + 1}"
                )
            out.add(tail)
    return out


def colour(m: Monomial) -> Literal["red", "square", "green", "blue"]:
    """Figure 1 colour of a basis monomial: red for a bare pivot, square for
    a pivot square; otherwise blue when the monomial arose as
    [v_{n-3}, W_{n-1}] (t_{n-4} present), green when it arose as
    [v_{n-2}, W_{n-1}]."""
    form = is_basis_monomial(m)
    if form == "non-basis":
        raise BasisFormError(f"expected a basis monomial, got {m}")
    if m.tail == 0:
        return "red"
    if form == "square":
        return "square"
    return "blue" if m.tail >> (m.pivot - 4) & 1 else "green"
