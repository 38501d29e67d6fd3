"""Chevalley-Eilenberg homology of the Fibonacci Lie algebra sliced by
multidegree: wedge bases, GF(2) differentials, homology dimensions, and
the Euler-characteristic cross-check.

A slice (n, (a,b)) is finite because every basis monomial has positive
total degree: its wedge basis draws only on monomials with multidegree
componentwise at most (a,b).  In characteristic 2 all differential signs
are 1 and repeated wedge factors vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from . import gf2, series
from .basis import enumerate_W
from .core import InputError, Monomial, bracket_monomials
from .grading import (
    GoldenInt,
    LAMBDA,
    LAMBDA_FLOAT,
    Multidegree,
    gr,
    lambda_power,
    weight,
)

Wedge = tuple[Monomial, ...]


@lru_cache(maxsize=None)
def _pool(degree: Multidegree) -> tuple[tuple[Monomial, Multidegree], ...]:
    """Basis monomials usable in wedges of this multidegree, canonical order."""
    a, b = degree
    out = []
    for n in series.levels_for_degree(a + b):
        for m in enumerate_W(n):
            ma, mb = gr(m)
            if 0 <= ma <= a and 0 <= mb <= b and (ma, mb) != (0, 0):
                out.append((m, Multidegree(ma, mb)))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def chain_basis(n: int, degree: Multidegree) -> tuple[Wedge, ...]:
    """Strictly increasing n-tuples of basis monomials with multidegree sum.

    An n-wedge is a first factor m from the pool followed by an (n-1)-wedge
    of the remaining multidegree whose first factor exceeds m.  Every later
    factor lies in the smaller pool, a subset in the same order, so the
    wedges come out in lexicographic order.
    """
    a, b = degree
    if a < 0 or b < 0 or n < 0:
        raise InputError("need n >= 0 and a nonnegative multidegree")
    if n == 0:
        return ((),) if (a, b) == (0, 0) else ()
    return tuple(
        (m,) + rest
        for m, (ma, mb) in _pool(Multidegree(a, b))
        for rest in chain_basis(n - 1, Multidegree(a - ma, b - mb))
        if not rest or rest[0] > m
    )


@dataclass(frozen=True)
class ChainSlice:
    n: int
    degree: Multidegree
    basis: tuple[Wedge, ...]
    d_rows: tuple[int, ...]
    n_cols: int


_bracket_pair = lru_cache(maxsize=None)(bracket_monomials)


@lru_cache(maxsize=None)
def differential(n: int, degree: Multidegree) -> ChainSlice:
    """Matrix of d_n on the (n, degree) slice; d_1 = d_0 = 0."""
    degree = Multidegree(*degree)
    rows_basis = chain_basis(n, degree)
    if n <= 1:
        target_dim = len(chain_basis(n - 1, degree)) if n == 1 else 0
        return ChainSlice(n, degree, rows_basis, tuple(0 for _ in rows_basis), target_dim)
    target = chain_basis(n - 1, degree)
    col_of = {w: i for i, w in enumerate(target)}
    rows = []
    for wedge in rows_basis:
        row = 0
        for s in range(len(wedge)):
            for t in range(s + 1, len(wedge)):
                rest = wedge[:s] + wedge[s + 1 : t] + wedge[t + 1 :]
                for m in _bracket_pair(wedge[s], wedge[t]):
                    if m not in rest:
                        row ^= 1 << col_of[tuple(sorted(rest + (m,)))]
        rows.append(row)
    return ChainSlice(n, degree, rows_basis, tuple(rows), len(target))


def homology_dim(n: int, degree: Multidegree) -> int:
    """dim Ker d_n - rank d_{n+1} on the slice."""
    degree = Multidegree(*degree)
    d_n = differential(n, degree)
    d_up = differential(n + 1, degree)
    ker = len(d_n.basis) - gf2.rank(list(d_n.d_rows), d_n.n_cols)
    return ker - gf2.rank(list(d_up.d_rows), d_up.n_cols)


def dd_is_zero(n: int, degree: Multidegree) -> bool:
    """d_n . d_{n+1} = 0 as matrices on the slice."""
    degree = Multidegree(*degree)
    d_up = differential(n + 1, degree)
    d_n = differential(n, degree)
    for row in d_up.d_rows:
        composed = 0
        r = row
        while r:
            low = r & -r
            composed ^= d_n.d_rows[low.bit_length() - 1]
            r ^= low
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
    lam3 = GoldenInt(1, 2)
    lam2 = GoldenInt(1, 1)
    lower = GoldenInt(b, 0) - LAMBDA * a + lam3 * n
    upper = LAMBDA * a + lam2 * n - GoldenInt(b, 0)
    return lower.sign() > 0 and upper.sign() > 0


def homology_table(frontier: int, n_values: tuple[int, ...] | None = None) -> HomologyTable:
    """dim H_{n,(a,b)} for a+b <= frontier, scanning the homology strip."""
    if frontier < 0:
        raise InputError("the total-degree frontier must be >= 0")
    series.check_triangle(frontier, frontier)  # one slice set per (a, b), a + b <= frontier
    entries: dict[tuple[int, int, int], int] = {}
    for d in range(frontier + 1):
        for a in range(d + 1):
            b = d - a
            ns = n_values if n_values is not None else tuple(range(d + 1))
            for n in ns:
                if n > d:
                    continue
                if n >= 1 and not inside_homology_strip(n, a, b):
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
        a, b = (key[-2], key[-1])
        xi = a * LAMBDA_FLOAT + b * LAMBDA_FLOAT**2
        eta = -a / LAMBDA_FLOAT + b / LAMBDA_FLOAT**2
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
