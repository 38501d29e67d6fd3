"""Chevalley-Eilenberg homology of the Fibonacci Lie algebra sliced by
multidegree: wedge bases, GF(2) differentials, homology dimensions, and
the Euler-characteristic cross-check.

A slice (n, (a,b)) is finite because every basis monomial has positive
total degree: its wedge basis draws only on monomials with multidegree
componentwise at most (a,b).  In characteristic 2 all differential signs
are 1 and repeated wedge factors vanish.

Every basis monomial has one canonical index, ``_offset(n) + S`` for
t^S v_n, which ascends in ``Monomial`` order and decodes by bit length, so
no table maps monomials to positions.  A wedge is held as its key: the
indices of its factors as the bits of one int, the same key in every slice
that holds it.  A term of d_n is the rest's key with one bit set, and
brackets are cached on index pairs; ``monomial_at`` decodes each bit of
a key into its ``Monomial`` factor.  A slice holds its keys, its rows over
the keys one wedge degree down, and its rank: the rank is taken once, when
the slice is built, and serves both dim H_n and dim H_{n-1}.  The Euler
cross-check needs no rank at all, since the alternating sum of dim H_n
reduces to that of the chain counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from . import gf2, series
from .basis import enumerate_W
from .core import InputError, Monomial, bracket_monomials, set_bits
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


@lru_cache(maxsize=None)
def _pool(degree: Multidegree) -> tuple[tuple[int, tuple[int, int]], ...]:
    """Indices of the basis monomials usable in wedges of this multidegree,
    ascending, with their multidegrees.

    Gr of a tail mask is Gr of the mask without its lowest bit plus Gr of
    that bit, so each mask costs one addition.
    """
    a, b = degree
    tails = [(0, 0)]
    out = []
    for n in series.levels_for_degree(a + b):
        masks = enumerate_W(n).masks
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
            if 0 <= ma <= a and 0 <= mb <= b and (ma, mb) != (0, 0):
                out.append((first + mask, (ma, mb)))
    return tuple(out)


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
    and compares equal to the ``Multidegree``.
    """
    a, b = degree
    if a < 0 or b < 0 or n < 0:
        raise InputError("need n >= 0 and a nonnegative multidegree")
    if n == 0:
        return (0,) if (a, b) == (0, 0) else ()
    pool = _pool(degree)
    if n == 1:
        return tuple(1 << i for i, md in pool if md == degree)
    out: list[int] = []
    for i, (ma, mb) in pool:
        rests = chain_basis(n - 1, (a - ma, b - mb))
        if rests:
            bit = 1 << i
            out.extend([bit | rest for rest in rests[bisect_right(rests, bit, key=_low_bit) :]])
    return tuple(out)


@dataclass(frozen=True)
class ChainSlice:
    basis: tuple[int, ...]  # wedge keys; ``monomial_at`` decodes each bit
    d_rows: tuple[int, ...]  # over the keys of chain_basis(n - 1, degree)
    rank: int


@lru_cache(maxsize=None)
def _bracket_pair(i: int, j: int) -> tuple[int, ...]:
    """Key bits of the bracket of the monomials at indices i and j."""
    return tuple(1 << index_of(m) for m in bracket_monomials(monomial_at(i), monomial_at(j)))


@lru_cache(maxsize=32)
def differential(n: int, degree: Multidegree) -> ChainSlice:
    """Matrix of d_n on the (n, degree) slice, and its rank; d_1 = d_0 = 0.

    The bracket of two factors is a sum of basis monomials, each a key bit,
    so the term of d_n for a factor pair is the rest's key with one bit
    added, and its column is read from the target's keys.  The table, the
    criteria and ``dd_is_zero`` read the slices of one multidegree
    together, so a small cache serves them.
    """
    degree = Multidegree(*degree)
    rows_basis = chain_basis(n, degree)
    if n <= 1 or not rows_basis:
        return ChainSlice(rows_basis, tuple(0 for _ in rows_basis), 0)
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
    return ChainSlice(rows_basis, tuple(rows), gf2.rank(rows, len(target)))


def homology_dim(n: int, degree: Multidegree) -> int:
    """dim Ker d_n - rank d_{n+1} on the slice."""
    degree = Multidegree(*degree)
    d_n = differential(n, degree)
    return len(d_n.basis) - d_n.rank - differential(n + 1, degree).rank


def dd_is_zero(n: int, degree: Multidegree) -> bool:
    """d_n . d_{n+1} = 0 as matrices on the slice."""
    degree = Multidegree(*degree)
    d_up = differential(n + 1, degree)
    d_n = differential(n, degree)
    for row in d_up.d_rows:
        composed = 0
        for i in set_bits(row):
            composed ^= d_n.d_rows[i]
        if composed:
            return False
    return True


def euler_crosscheck(degree: Multidegree, euler: series.LatticeSeries) -> bool:
    """The slice's alternating homology sum equals the Euler coefficient."""
    a, b = degree
    # dim H_n = c_n - rank d_n - rank d_{n+1} and d_0 = d_1 = d_{a+b+1} = 0,
    # so the ranks cancel and the sum of (-1)^n dim H_n is that of (-1)^n c_n
    return euler[(a, b)] == sum(
        (-1) ** n * len(chain_basis(n, Multidegree(a, b))) for n in range(a + b + 1)
    )


@dataclass
class HomologyTable:
    entries: dict[tuple[int, int, int], int]


def inside_homology_strip(n: int, a: int, b: int) -> bool:
    """-lambda^3 n + lambda x < y < lambda x + lambda^2 n, exact."""
    # lambda^2 = 1 + lambda and lambda^3 = 1 + 2 lambda
    return golden_sign(b + n, 2 * n - a) > 0 and golden_sign(n - b, a + n) > 0


def homology_table(frontier: int, n_values: tuple[int, ...] | None = None) -> HomologyTable:
    """dim H_{n,(a,b)} for a+b <= frontier, scanning the homology strip."""
    if frontier < 0:
        raise InputError("the total-degree frontier must be >= 0")
    series.check_triangle(frontier, frontier)  # one slice set per (a, b), a + b <= frontier
    entries: dict[tuple[int, int, int], int] = {}
    for d in range(frontier + 1):
        ns = [n for n in (n_values if n_values is not None else range(d + 1)) if n <= d]
        top = max(ns, default=0)
        for a in range(d + 1):
            b = d - a
            # both strip inequalities grow with n, so the strip holds from the
            # first n >= 1 inside it on
            first = 1
            while first <= top and not inside_homology_strip(first, a, b):
                first += 1
            for n in ns:
                if 0 < n < first:
                    continue
                h = homology_dim(n, Multidegree(a, b))
                if h:
                    entries[(n, a, b)] = h
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
