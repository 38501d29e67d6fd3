"""Chevalley-Eilenberg homology of the Fibonacci Lie algebra sliced by
multidegree: wedge bases, GF(2) differentials, homology dimensions, and
the Euler-characteristic cross-check.

A slice (n, (a,b)) is finite because every basis monomial has positive
total degree: its wedge basis draws only on monomials with multidegree
componentwise at most (a,b).  In characteristic 2 all differential signs
are 1 and repeated wedge factors vanish.

The differential keys each wedge by the positions of its factors in the
slice's pool, held as the bits of one int, so a term of d_n is found by
setting one bit of the rest's key rather than by sorting a tuple.  Each
slice's rank is taken once, when the slice is built, and serves both
dim H_n and dim H_{n-1}.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from . import gf2, series
from .basis import enumerate_W, tail_width
from .core import InputError, Monomial, bracket_monomials, set_bits
from .grading import (
    GoldenInt,
    Multidegree,
    golden_sign,
    gr_pivot,
    gr_tail,
    lambda_power,
    weight,
    weight_coords_float,
)

Wedge = tuple[Monomial, ...]


@lru_cache(maxsize=None)
def _pool(degree: Multidegree) -> tuple[tuple[Monomial, Multidegree], ...]:
    """Basis monomials usable in wedges of this multidegree, canonical order.

    Levels ascend and each level's tail masks ascend, which is the order of
    ``Monomial``.  Gr of a tail mask is Gr of the mask without its lowest bit
    plus Gr of that bit, so each mask costs one addition.
    """
    a, b = degree
    tails = [(0, 0)]
    out = []
    for n in series.levels_for_degree(a + b):
        for mask in range(len(tails), 1 << tail_width(n)):
            low = mask & -mask
            ra, rb = tails[mask ^ low]
            ta, tb = gr_tail(low.bit_length() - 1)
            tails.append((ra + ta, rb + tb))
        pa, pb = gr_pivot(n)
        for m in enumerate_W(n):
            ta, tb = tails[m.tail]
            ma, mb = pa + ta, pb + tb
            if 0 <= ma <= a and 0 <= mb <= b and (ma, mb) != (0, 0):
                out.append((m, Multidegree(ma, mb)))
    return tuple(out)


@lru_cache(maxsize=None)
def chain_basis(n: int, degree: Multidegree) -> tuple[Wedge, ...]:
    """Strictly increasing n-tuples of basis monomials with multidegree sum.

    An n-wedge is a first factor m from the pool followed by an (n-1)-wedge
    of the remaining multidegree whose first factor exceeds m.  Every later
    factor lies in the smaller pool, a subset in the same order, so the
    wedges come out in lexicographic order, and the rests after m are a
    suffix of their tuple.  The recursion keys the cache by a plain pair,
    which hashes and compares equal to the ``Multidegree``.
    """
    a, b = degree
    if a < 0 or b < 0 or n < 0:
        raise InputError("need n >= 0 and a nonnegative multidegree")
    if n == 0:
        return ((),) if (a, b) == (0, 0) else ()
    pool = _pool(degree)
    if n == 1:
        return tuple((m,) for m, md in pool if md == degree)
    out: list[Wedge] = []
    for m, (ma, mb) in pool:
        rests = chain_basis(n - 1, (a - ma, b - mb))
        if rests:
            out.extend((m,) + rest for rest in rests[bisect_right(rests, m, key=itemgetter(0)) :])
    return tuple(out)


@dataclass(frozen=True)
class ChainSlice:
    n: int
    degree: Multidegree
    basis: tuple[Wedge, ...]
    d_rows: tuple[int, ...]
    n_cols: int
    rank: int


_bracket_pair = lru_cache(maxsize=None)(bracket_monomials)


@lru_cache(maxsize=32)
def differential(n: int, degree: Multidegree) -> ChainSlice:
    """Matrix of d_n on the (n, degree) slice, and its rank; d_1 = d_0 = 0.

    A wedge is keyed by the set of its factors' positions in the pool, held
    as the bits of one int.  The bracket of two factors has a multidegree
    within the slice's, so its monomials are in the pool too, and the term
    of d_n for a factor pair is the rest's key with one bit added.  The
    table, the criteria and ``dd_is_zero`` read the slices of one
    multidegree together, so a small cache serves them.
    """
    degree = Multidegree(*degree)
    rows_basis = chain_basis(n, degree)
    target = chain_basis(n - 1, degree) if n >= 1 else ()
    if n <= 1 or not rows_basis:
        return ChainSlice(n, degree, rows_basis, tuple(0 for _ in rows_basis), len(target), 0)
    pool = _pool(degree)
    pos = {m: i for i, (m, _) in enumerate(pool)}
    col_of = {}
    for i, w in enumerate(target):
        key = 0
        for m in w:
            key |= 1 << pos[m]
        col_of[key] = i
    brackets: dict[tuple[int, int], tuple[int, ...]] = {}
    rows = []
    for wedge in rows_basis:
        ps = [pos[m] for m in wedge]
        full = 0
        for i in ps:
            full |= 1 << i
        row = 0
        for s, i in enumerate(ps):
            for j in ps[s + 1 :]:
                terms = brackets.get((i, j))
                if terms is None:
                    terms = brackets[(i, j)] = tuple(
                        1 << pos[m] for m in _bracket_pair(pool[i][0], pool[j][0])
                    )
                if terms:
                    rest = full ^ (1 << i) ^ (1 << j)
                    for bit in terms:
                        if not rest & bit:
                            row ^= 1 << col_of[rest | bit]
        rows.append(row)
    return ChainSlice(n, degree, rows_basis, tuple(rows), len(target), gf2.rank(rows, len(target)))


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


def euler_slice(degree: Multidegree) -> int:
    """Alternating sum of homology dimensions at the multidegree."""
    a, b = degree
    # dim H_n = c_n - rank d_n - rank d_{n+1} and d_0 = d_1 = d_{a+b+1} = 0,
    # so the ranks cancel and the sum of (-1)^n dim H_n is that of (-1)^n c_n
    return sum((-1) ** n * len(chain_basis(n, Multidegree(a, b))) for n in range(a + b + 1))


def euler_crosscheck(degree: Multidegree, euler: series.LatticeSeries) -> bool:
    """The slice's alternating homology sum equals the Euler coefficient."""
    a, b = degree
    return euler_slice(Multidegree(a, b)) == euler[(a, b)]


@dataclass
class HomologyTable:
    entries: dict[tuple[int, int, int], int]
    frontier: int


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
    return HomologyTable(entries, frontier)


def h2_accumulation(frontier: int) -> list[int]:
    """Partial sums of dim H_2 over a+b <= d, for d = 0..frontier."""
    per_degree = [0] * (frontier + 1)
    for (_, a, b), h in homology_table(frontier, (2,)).entries.items():
        per_degree[a + b] += h
    return list(accumulate(per_degree))


def wedge_weight(wedge: Wedge) -> GoldenInt:
    total = GoldenInt(0, 0)
    for m in wedge:
        total = total + weight(m).wt
    return total


def wedge_stratification_ok(wedge: Wedge) -> bool:
    """lambda^(m-1) < wt(u) <= n lambda^m when the top factor level is m."""
    if not wedge:
        return True
    n = len(wedge)
    m = max(mon.pivot for mon in wedge)
    wt = wedge_weight(wedge)
    lo = lambda_power(m - 1)
    hi = lambda_power(m) * n
    return (wt - lo).sign() > 0 and (wt - hi).sign() <= 0


@dataclass
class ParaboloidReport:
    theta_target: float
    fitted_exponent: float | None
    fitted_constant: float
    points: list[tuple[float, float]]


def paraboloid_report(
    entries: dict[tuple[int, int], int] | dict[tuple[int, int, int], int],
) -> ParaboloidReport:
    """Envelope of nonzero entries in weight coordinates against
    |eta| < C xi^theta, theta ~ 0.5902.  The constant is unspecified in
    theory, so only the fitted exponent is reported."""
    pts = []
    for key, val in entries.items():
        if val == 0:
            continue
        xi, eta = weight_coords_float(key[-2:])
        if xi > 0:
            pts.append((xi, eta))
    theta = series.THETA
    nonzero = [(x, abs(e)) for x, e in pts if abs(e) > 1e-12]
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
    return ParaboloidReport(theta, exponent, fitted_c, pts)
