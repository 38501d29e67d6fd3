"""Nil p-mapping experiments: exact minimal nilpotency indices under
iterated squaring, and the index-vs-bound scan of v_n + ... + v_m.

For a basis-form element spanning pivots n..m the index never exceeds
m - n + 2, where every squaring loop here stops; squaring advances the
pivot floor by two, so depth rather than width keeps the work finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    LIMITS,
    Element,
    FibLieError,
    InputError,
    check_cap,
    element,
    is_basis_element,
    monomial,
    monomial_cap,
    pivot_groups,
    square,
)


@dataclass(frozen=True)
class NilReport:
    min_pivot: int
    max_pivot: int
    index: int
    bound: int
    peak_monomials: int


def nil_index(e: Element, limit: int | None = None) -> NilReport:
    """Minimal N with e^(2^N) = 0, by iterated squaring up to the bound.
    The powers stay pivot groups; the peak counts their monomials."""
    if not e:
        raise InputError("nil index of the zero element is undefined")
    if not is_basis_element(e):
        raise InputError("expected a basis-form element")
    mono_cap = monomial_cap(limit)
    lo, hi = e.pivot_range()
    bound = hi - lo + 2
    peak = len(e)
    power = pivot_groups(e)
    index = 0
    while power:
        if index == bound:
            raise FibLieError(f"e^(2^{bound}) != 0 past the guaranteed bound {bound}")
        power = square(power)
        index += 1
        size = len(power)
        peak = max(peak, size)
        check_cap(size, "monomials in an intermediate element", mono_cap)
    return NilReport(lo, hi, index, bound, peak)


def pivot_interval(n: int, m: int) -> Element:
    """The test family v_n + v_{n+1} + ... + v_m of the index bound."""
    if not 1 <= n <= m:
        raise InputError("need 1 <= n <= m")
    return element(monomial(k) for k in range(n, m + 1))


@dataclass(frozen=True)
class ScanRow:
    n: int
    m: int
    index: int
    bound: int
    tight: bool
    peak_monomials: int


def conjecture_scan(n_range: tuple[int, int], m_max: int) -> list[ScanRow]:
    """Exact indices of v_n + ... + v_m against the bound m - n + 2.

    The bound is not attained in general: for n = 1 the index stays below it
    at m = 4 and at every m >= 8 computed so far (the table in README.md).
    The index and the peak are tau-invariant, so row (n, m) equals row
    (1, m - n + 1): each length m - n + 1 is squared once, at the first n,
    and its report serves every later row of that length.  The powers of
    row (n, m) keep their pivots at or below m + (m - n + 2) + 1; a row
    where that reaches the index ceiling is squared itself, so that the
    ceiling refuses it as it would alone.
    """
    rows = []
    by_length: dict[int, NilReport] = {}
    for n in range(n_range[0], n_range[1] + 1):
        for m in range(n, m_max + 1):
            report = by_length.get(m - n)
            if report is None or m + (m - n + 2) + 1 >= LIMITS.index_ceiling:
                report = nil_index(pivot_interval(n, m))
                by_length[m - n] = report
            rows.append(
                ScanRow(
                    n,
                    m,
                    report.index,
                    report.bound,
                    report.index == report.bound,
                    report.peak_monomials,
                )
            )
    return rows
