"""Chevalley-Eilenberg homology of the Fibonacci Lie algebra sliced by
multidegree: wedge bases, GF(2) differentials, homology dimensions, and
the Euler-characteristic cross-check.

A slice (n, (a,b)) is finite because every basis monomial has positive
total degree: its wedge basis draws only on monomials with multidegree
componentwise at most (a,b).  In characteristic 2 all differential signs
are 1 and repeated wedge factors vanish.

The monomials of a slice, its pool, are filtered from one list per total
degree d: every basis monomial of total degree at most d, with its index
and multidegree.  So the walk over the levels of W runs once per total
degree, not once per slice.  Any n distinct monomials of the pool have
total degree at least the sum of the n smallest total degrees in it, so a
slice holds no wedge longer than the longest prefix of its pool's sorted
total degrees that sums to at most a + b.  ``chain_basis`` answers every
longer n with no wedge at once, and ``table_ns`` stops at that length:
every d_n past it is 0.

Every basis monomial has one canonical index, ``_offset(n) + S`` for
t^S v_n, which ascends in ``Monomial`` order and decodes by bit length, so
no table maps monomials to positions.  A wedge is held as its key: the
indices of its factors as the bits of one int, the same key in every slice
that holds it.  A term of d_n is the rest's key with one bit set, and
brackets are cached on index pairs; ``monomial_at`` decodes each bit of
a key into its ``Monomial`` factor.  Only the rank of d_n is cached; its
rows are built on request, for ``dd_is_zero``.  The Euler cross-check sums
the table's own dimensions, so it also tests that the homology vanishes at
every n the table skips below the homology strip.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from . import gf2, series
from .basis import enumerate_W
from .core import InputError, Monomial, bracket_monomials, check_cap, set_bits
from .grading import (
    Multidegree,
    golden_sign,
    gr_pivot,
    gr_tail,
    weight_coords_float,
)


def _offset(n: int) -> int:
    """Index of v_n: levels 1..3 hold one monomial each, level n >= 4 holds
    2^(n-3), so v_n follows 3 + 2 + 4 + ... + 2^(n-4) monomials."""
    return n - 1 if n <= 4 else (1 << (n - 3)) + 1


def index_of(m: Monomial) -> int:
    """Position of the basis monomial t^S v_n in the canonical order of W:
    ``_offset(n) + S``, so indices ascend as ``Monomial``s do."""
    return _offset(m.pivot) + m.tail


def monomial_at(i: int) -> Monomial:
    """The basis monomial at index i >= 0, inverse of ``index_of``."""
    n = i + 1 if i < 3 else (i - 1).bit_length() + 2
    return Monomial(n, i - _offset(n))


@lru_cache(maxsize=4)
def _monomials(total: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """Indices of the basis monomials of total degree 1..total, ascending,
    with their multidegrees: one list that every pool of that total degree
    filters.  The table walks total degrees upwards, so a few entries serve.

    Gr of a tail mask is Gr of the mask without its lowest bit plus Gr of
    that bit, so each mask costs one addition.  The walk visits every
    monomial of the levels, so their count is held to the monomial limit
    before it starts.
    """
    levels = [enumerate_W(n) for n in series.levels_for_degree(total)]
    check_cap(sum(level.size for level in levels), f"basis monomials of W_1..W_{len(levels)}")
    tails = [(0, 0)]
    out = []
    for level in levels:
        n, masks = level.n, level.masks
        for mask in range(len(tails), masks.stop):
            low = mask & -mask
            ra, rb = tails[mask ^ low]
            ta, tb = gr_tail(low.bit_length() - 1)
            tails.append((ra + ta, rb + tb))
        pa, pb = gr_pivot(n)
        first = _offset(n)
        for mask in masks:
            ta, tb = tails[mask]
            ma, mb = pa + ta, pb + tb
            if ma + mb <= total:
                out.append((first + mask, (ma, mb)))
    return tuple(out)


@lru_cache(maxsize=None)
def _pool(degree: Multidegree) -> tuple[int, tuple[tuple[int, tuple[int, int]], ...]]:
    """The length of the slice's longest wedge, and the indices of the basis
    monomials usable in its wedges, ascending, with their multidegrees: the
    entries of ``_monomials(a + b)`` componentwise at most (a, b).

    Any n distinct monomials of the pool have total degree at least the sum
    of the n smallest total degrees in it, so no n-wedge fits once that sum
    passes a + b: the longest wedge is the number of prefix sums of the
    sorted total degrees that are at most a + b.
    """
    a, b = degree
    pool = tuple(entry for entry in _monomials(a + b) if entry[1][0] <= a and entry[1][1] <= b)
    sums = list(accumulate(sorted(ma + mb for _, (ma, mb) in pool)))
    return bisect_right(sums, a + b), pool


def _low_bit(key: int) -> int:
    return key & -key


@lru_cache(maxsize=None)
def chain_basis(n: int, degree: Multidegree) -> tuple[int, ...]:
    """Keys of the n-wedges of basis monomials with multidegree sum.

    A wedge is keyed by the set of its factors' indices, held as the bits of
    one int.  An n-wedge is a first factor i from the pool followed by an
    (n-1)-wedge of the remaining multidegree whose lowest factor exceeds i.
    Every later factor lies in the smaller pool, a subset in the same order,
    so the wedges come out in lexicographic order of their factors, and the
    rests after i are the suffix of their tuple whose lowest bit exceeds
    ``1 << i``.  The recursion keys the cache by a plain pair, which hashes
    and compares equal to the ``Multidegree``.  An n past the slice's
    longest wedge (``_pool``) has no wedge and is answered without recursing.
    """
    a, b = degree
    if a < 0 or b < 0 or n < 0:
        raise InputError("need n >= 0 and a nonnegative multidegree")
    if n == 0:
        return (0,) if (a, b) == (0, 0) else ()
    longest, pool = _pool(degree)
    if n > longest:
        return ()
    if n == 1:
        return tuple(1 << i for i, md in pool if md == degree)
    out: list[int] = []
    for i, (ma, mb) in pool:
        rests = chain_basis(n - 1, (a - ma, b - mb))
        if rests:
            bit = 1 << i
            out.extend([bit | rest for rest in rests[bisect_right(rests, bit, key=_low_bit) :]])
    return tuple(out)


@lru_cache(maxsize=None)
def _bracket_pair(i: int, j: int) -> tuple[int, ...]:
    """Key bits of the bracket of the monomials at indices i and j."""
    return tuple(1 << index_of(m) for m in bracket_monomials(monomial_at(i), monomial_at(j)))


def d_rows(n: int, degree: Multidegree) -> list[int]:
    """Rows of d_n on the slice, one per key of ``chain_basis(n, degree)``,
    over the keys one wedge degree down; d_1 = d_0 = 0.  The bracket of two
    factors is a sum of key bits, so the term of a factor pair is the rest's
    key with one bit added, and its column is read from the target's keys."""
    rows_basis = chain_basis(n, degree)
    if n <= 1:
        return [0] * len(rows_basis)
    target = chain_basis(n - 1, degree)
    col_of = dict(zip(target, range(len(target))))
    rows = []
    for key in rows_basis:
        factors = set_bits(key)
        row = 0
        for s, i in enumerate(factors):
            for j in factors[s + 1 :]:
                terms = _bracket_pair(i, j)
                if terms:
                    rest = key ^ (1 << i) ^ (1 << j)
                    for bit in terms:
                        if not rest & bit:
                            row ^= 1 << col_of[rest | bit]
        rows.append(row)
    return rows


@lru_cache(maxsize=32)
def differential(n: int, degree: Multidegree) -> int:
    """Rank of d_n on the slice.  The table reads each rank twice, at H_{n-1}
    and then at H_n, so a small cache of ints serves it."""
    if n <= 1 or not chain_basis(n, degree):
        return 0
    return gf2.rank(d_rows(n, degree), len(chain_basis(n - 1, degree)))


def homology_dim(n: int, degree: Multidegree) -> int:
    """dim Ker d_n - rank d_{n+1} on the slice."""
    return len(chain_basis(n, degree)) - differential(n, degree) - differential(n + 1, degree)


def dd_is_zero(n: int, degree: Multidegree) -> bool:
    """d_n . d_{n+1} = 0 as matrices on the slice."""
    d_n = d_rows(n, degree)
    for row in d_rows(n + 1, degree):
        composed = 0
        for i in set_bits(row):
            composed ^= d_n[i]
        if composed:
            return False
    return True


def inside_homology_strip(n: int, a: int, b: int) -> bool:
    """-lambda^3 n + lambda x < y < lambda x + lambda^2 n, exact."""
    # lambda^2 = 1 + lambda and lambda^3 = 1 + 2 lambda
    return golden_sign(b + n, 2 * n - a) > 0 and golden_sign(n - b, a + n) > 0


def table_ns(a: int, b: int) -> list[int]:
    """The n the table reads at (a, b): 0, then every n from the first n >= 1
    inside the homology strip up to the slice's longest wedge, past which
    every chain space is empty.  Both strip inequalities grow with n, so
    bisection finds that first n."""
    longest = _pool(Multidegree(a, b))[0]
    below = bisect_left(range(1, longest + 1), True, key=lambda n: inside_homology_strip(n, a, b))
    return [0, *range(below + 1, longest + 1)]


def euler_crosscheck(degree: Multidegree, euler: series.LatticeSeries) -> bool:
    """E(a, b) equals the table's own sum of (-1)^n dim H_n over ``table_ns``,
    which holds exactly when the complex is exact at every n the table skips.
    With dim H_n = c_n - rank d_n - rank d_{n+1}, d_0 = d_1 = 0, and d = 0 past
    the longest wedge, where ``table_ns`` stops, the ranks over 0 and the
    run first..longest telescope to that of d_first."""
    a, b = degree
    expected = euler[(a, b)]  # refused past the series' bound before any work
    ns = table_ns(a, b)
    total = sum((-1) ** n * len(chain_basis(n, degree)) for n in ns)
    if len(ns) > 1:
        total -= (-1) ** ns[1] * differential(ns[1], degree)
    return expected == total


@dataclass
class HomologyTable:
    entries: dict[tuple[int, int, int], int]


def homology_table(frontier: int, n: int | None = None) -> HomologyTable:
    """dim H_{k,(a,b)} for a+b <= frontier at every k of ``table_ns``, or at
    k = n only when n is given."""
    if frontier < 0:
        raise InputError("the total-degree frontier must be >= 0")
    series.check_triangle(frontier, frontier)  # one slice set per (a, b), a + b <= frontier
    if n is not None and n < 0:
        raise InputError("need n >= 0 and a nonnegative multidegree")
    entries: dict[tuple[int, int, int], int] = {}
    for d in range(frontier + 1):
        for a in range(d + 1):
            for k in table_ns(a, d - a):
                if n is None or k == n:
                    h = homology_dim(k, Multidegree(a, d - a))
                    if h:
                        entries[(k, a, d - a)] = h
    return HomologyTable(entries)


@dataclass
class ParaboloidReport:
    fitted_exponent: float | None
    fitted_constant: float


def paraboloid_report(
    entries: dict[tuple[int, int], int] | dict[tuple[int, int, int], int],
) -> ParaboloidReport:
    """Envelope of nonzero entries in weight coordinates against
    |eta| < C xi^theta, theta ~ 0.5902.  The constant is unspecified in
    theory, so only the fitted exponent is reported."""
    nonzero = []
    for key, val in entries.items():
        if val:
            xi, eta = weight_coords_float(key[-2:])
            if xi > 0 and abs(eta) > 1e-12:
                nonzero.append((xi, abs(eta)))
    theta = series.THETA
    fitted_c = max((e / x**theta for x, e in nonzero), default=0.0)
    exponent = None
    if len(nonzero) >= 4:
        # envelope fit: max |eta| per dyadic xi bin, then log-log slope
        bins: dict[int, tuple[float, float]] = {}
        for x, e in nonzero:
            k = int(math.floor(math.log2(x))) if x >= 1 else -1
            if k not in bins or bins[k][1] < e:
                bins[k] = (x, e)
        env = sorted(bins.values())
        if len(env) >= 2:
            xs = [math.log(x) for x, _ in env]
            ys = [math.log(e) for _, e in env]
            n = len(xs)
            mx = sum(xs) / n
            my = sum(ys) / n
            denom = sum((x - mx) ** 2 for x in xs)
            if denom > 0:
                exponent = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    return ParaboloidReport(exponent, fitted_c)
