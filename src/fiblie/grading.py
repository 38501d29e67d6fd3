"""Exact weight geometry in Z[lambda] (lambda the golden ratio) and the
Z^2-grading by multidegree in the generators v_1, v_2.

Everything the strict strip inequalities touch is computed in the exact
quadratic ring: a GoldenInt a + b*lambda has an exact sign obtained from
2(a + b*lambda) = (2a + b) + b*sqrt(5) by comparing (2a+b)^2 with 5 b^2.
Floats appear only in growth-exponent diagnostics.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count, takewhile
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import (
    LIMITS,
    FibLieError,
    IndexCeilingError,
    InputError,
    Monomial,
    check_cap,
    monomial_cap,
    set_bits,
)
from . import basis as basis_mod


class ZeroSignError(FibLieError):
    """A superweight sign came out zero; impossible for monomials."""


LAMBDA_FLOAT = (1 + 5**0.5) / 2
LOG_LAMBDA_2 = math.log(2) / math.log(LAMBDA_FLOAT)  # ~ 1.44042


@lru_cache(maxsize=256)
def fib(k: int) -> int:
    """Fibonacci numbers with F_1 = F_2 = 1, extended to F_-1 = 1, F_-2 = -1.

    By doubling from m = k // 2: F_(2m) = F_m (2 F_(m+1) - F_m) and
    F_(2m+1) = F_m^2 + F_(m+1)^2, so F_k takes O(log k) products and visits
    at most three indices per halving, which the bounded cache holds."""
    if k < -2:
        raise InputError("fib extended down to index -2 only")
    if k <= 2:
        return (-1, 1, 0, 1, 1)[k + 2]
    m = k // 2
    f, g = fib(m), fib(m + 1)
    return f * f + g * g if k % 2 else f * (2 * g - f)


def golden_sign(a: int, b: int) -> int:
    """Exact sign of a + b*lambda."""
    p = 2 * a + b
    q = b
    if q == 0:
        return (p > 0) - (p < 0)
    if q > 0:
        if p >= 0:
            return 1
        return (5 * q * q > p * p) - (5 * q * q < p * p)
    if p <= 0:
        return -1
    return (p * p > 5 * q * q) - (p * p < 5 * q * q)


@dataclass(frozen=True, order=False)
class GoldenInt:
    """a + b*lambda with lambda^2 = lambda + 1."""

    a: int = 0
    b: int = 0

    def __add__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "GoldenInt") -> "GoldenInt":
        return GoldenInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "GoldenInt":
        return GoldenInt(-self.a, -self.b)

    def __mul__(self, other: "GoldenInt | int") -> "GoldenInt":
        if isinstance(other, int):
            return GoldenInt(self.a * other, self.b * other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenInt(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def conj(self) -> "GoldenInt":
        """Galois conjugate: lambda -> 1 - lambda."""
        return GoldenInt(self.a + self.b, -self.b)

    def sign(self) -> int:
        return golden_sign(self.a, self.b)

    def __lt__(self, other: "GoldenInt") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "GoldenInt") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "GoldenInt") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "GoldenInt") -> bool:
        return (self - other).sign() >= 0

    def __float__(self) -> float:
        return self.a + self.b * (1 + 5**0.5) / 2

    def __str__(self) -> str:
        return f"{self.a}+{self.b}*L"


LAMBDA = GoldenInt(0, 1)


def lambda_power(n: int) -> GoldenInt:
    """lambda^n = F_{n-1} + F_n * lambda, n >= 0."""
    if n < 0:
        raise InputError("negative lambda powers not needed; conjugate instead")
    return GoldenInt(fib(n - 1), fib(n))


class Multidegree(NamedTuple):
    a: int
    b: int


class WeightVector(NamedTuple):
    wt: GoldenInt
    swt: GoldenInt


def gr_pivot(n: int) -> Multidegree:
    return Multidegree(fib(n - 2), fib(n - 1))


def square_multidegree(n: int) -> Multidegree:
    """Multidegree of the pivot square t_{n-3} v_n = v_{n-2}^2, n >= 3."""
    a, b = gr_pivot(n - 2)
    return Multidegree(2 * a, 2 * b)


def gr_tail(j: int) -> Multidegree:
    # Gr(t_j) = Gr(v_{j+1}) - Gr(v_{j+2}) = (-F_{j-2}, -F_{j-1})
    return Multidegree(-fib(j - 2), -fib(j - 1))


def gr(m: Monomial) -> Multidegree:
    a, b = gr_pivot(m.pivot)
    for j in set_bits(m.tail):
        ta, tb = gr_tail(j)
        a += ta
        b += tb
    return Multidegree(a, b)


def weight_coords(d: Multidegree | tuple[int, int]) -> tuple[GoldenInt, GoldenInt]:
    """(xi, eta) = (x*lambda + y*lambda^2, -x/lambda + y/lambda^2)."""
    x, y = d
    xi = GoldenInt(y, x + y)
    eta = GoldenInt(x + 2 * y, -(x + y))
    return xi, eta


def weight_coords_float(d: Multidegree | tuple[int, int]) -> tuple[float, float]:
    """``weight_coords`` in floats, for plots and fits."""
    x, y = d
    return x * LAMBDA_FLOAT + y * LAMBDA_FLOAT**2, -x / LAMBDA_FLOAT + y / LAMBDA_FLOAT**2


def weight(m: Monomial) -> WeightVector:
    """(wt, swt) = (b + (a+b)*lambda, its conjugate) for the multidegree (a, b)."""
    return WeightVector(*weight_coords(gr(m)))


def _in_strip(a: int, b: int) -> bool:
    """Exact test of -lambda < swt < 1 for swt = (a+2b) - (a+b)*lambda."""
    # swt + lambda > 0  and  swt - 1 < 0
    return golden_sign(a + 2 * b, 1 - a - b) > 0 and golden_sign(a + 2 * b - 1, -a - b) < 0


def sign_split(
    monomials: Iterable[Monomial],
) -> tuple[list[Monomial], list[Monomial]]:
    """Partition by the exact sign of the superweight; zero is a hard error."""
    plus: list[Monomial] = []
    minus: list[Monomial] = []
    for m in monomials:
        s = weight(m).swt.sign()
        if s == 0:
            raise ZeroSignError(f"superweight of {m} evaluated to zero")
        (plus if s > 0 else minus).append(m)
    return plus, minus


def local_nilpotency_bound(gens: Sequence[Monomial]) -> int:
    """ceil(1/mu) for mu = min positive superweight of the generators: the
    least n with n*mu - 1 >= 0, on exact GoldenInt signs.  That sign only
    grows with n, so doubling finds an n past the bound and bisection the
    least."""
    if not gens:
        raise InputError("need at least one generator")
    mu = min(weight(m).swt for m in gens)
    if mu.sign() <= 0:
        raise InputError("generators must come from the positive side")

    def reached(n: int) -> bool:
        return golden_sign(n * mu.a - 1, n * mu.b) >= 0

    top = 1
    while not reached(top):
        top *= 2
    return bisect_left(range(top + 1), True, key=reached)


# --- the levels a request folds --------------------------------------------
#
# wt = b + (a+b)*lambda and swt = (a+2b) - (a+b)*lambda depend on a monomial
# only through its multidegree (a, b), so a whole series folds W_n into its
# distinct multidegrees and weighs each by its count.


def check_levels(levels: Iterable[int]) -> list[int]:
    """The levels a request will fold, in order, refused through ``check_cap``
    at the first level where the multidegrees they may fold into (at most
    F_n for W_n) pass the monomial limit.  A level past the limit on its own
    is refused without forming its F_n."""
    cap = monomial_cap(None)
    # F_n passes the limit from n = past on; F_(2 bits + 2) > 2^bits > cap
    past = max(bisect_right(range(2 * cap.bit_length() + 3), cap, key=fib), 1)
    held: list[int] = []
    total = 0
    for n in levels:
        held.append(n)
        where = f"W_{n}" if len(held) == 1 else f"{len(held)} levels through W_{n}"
        total += fib(min(n, past))
        check_cap(total, f"{'or more ' if n > past else ''}possible multidegrees of {where}")
    return held


def levels_while(holds: Callable[[int], bool]) -> list[int]:
    """Levels 1, 2, ... while ``holds(n)``, each prefix held to ``check_levels``."""
    return check_levels(takewhile(holds, count(1)))


def level_multidegree_counts(n: int) -> Mapping[tuple[int, int], int]:
    """Multidegree distribution of W_n (subset-sum fold over tail factors);
    W_n has F_n - 1 distinct multidegrees for n >= 3.  The level is held to
    the current limits before it is folded, and nothing keeps the fold once
    its caller has summed it."""
    check_levels((n,))
    dd: dict[tuple[int, int], int] = {tuple(gr_pivot(n)): 1}
    for j in range(basis_mod.tail_width(n)):
        ta, tb = gr_tail(j)
        nd = dict(dd)
        for (a, b), c in dd.items():
            key = (a + ta, b + tb)
            nd[key] = nd.get(key, 0) + c
        dd = nd
    return MappingProxyType(dd)


class WeightTable:
    """Exact counts of W-monomials with wt <= x over given levels, for many
    thresholds x: the distinct weights b + (a+b)*lambda sorted in
    GoldenInt's exact order with their cumulative counts, so that each
    count is one bisection."""

    def __init__(self, levels: Sequence[int]) -> None:
        counts: dict[GoldenInt, int] = {}
        for n in check_levels(levels):
            for (a, b), c in level_multidegree_counts(n).items():
                wt = GoldenInt(b, a + b)
                counts[wt] = counts.get(wt, 0) + c
        self.weights = sorted(counts)
        self.cumulative = [0, *accumulate(counts[wt] for wt in self.weights)]

    def count(self, x: GoldenInt) -> int:
        """Number of monomials with wt <= x, as ``count_weights_at_most``."""
        return self.cumulative[bisect_right(self.weights, x)]


def weight_growth_levels(x: GoldenInt) -> list[int]:
    """Levels that can contain W-monomials of weight <= x.  The counts over
    them run on the digit DP below, which folds nothing, so the walk is held
    only to ``LIMITS.index_ceiling``; ``WeightTable`` holds the levels it
    folds to ``check_levels``."""
    levels = []
    for n in takewhile(lambda n: (lambda_power(n - 1) - x).sign() < 0, count(1)):
        _tail_width(n)  # refuses a level past the index ceiling
        levels.append(n)
    return levels


# --- exact counts over one level's tails, by a digit DP ----------------------
#
# Level n holds t^S v_n for S within its w = n - 3 tail indices 0..w-1, and
# wt(t^S v_n) = lambda^n - sum_{j in S} lambda^j; swt is the same sum in the
# conjugate mu = 1 - lambda.  So each count below is a count of subsets of
# distinct powers whose sum clears a threshold, taken over exact remainders
# without forming a monomial or a multidegree (Klarner, Fibonacci Quart. 4
# (1966)).


def _tail_width(n: int) -> int:
    """The w tail indices of level n.  The DP holds no monomials, so
    ``LIMITS.index_ceiling`` is its only limit."""
    w = basis_mod.tail_width(n)
    if w > LIMITS.index_ceiling:
        raise IndexCeilingError(f"t-index {w - 1} exceeds ceiling {LIMITS.index_ceiling}")
    return w


def _lambda_tail(n: int) -> list[GoldenInt]:
    """lambda^(w-1), ..., lambda^0 for the w tail indices of level n."""
    return [lambda_power(j) for j in reversed(range(_tail_width(n)))]


def _subsets_at_least(terms: Sequence[GoldenInt], r: GoldenInt) -> int:
    """Number of subsets of ``terms`` whose sum is >= r, exact.

    The terms are taken in order, largest magnitude first, with a dict from
    each remainder r - (sum taken) to its multiplicity.  A remainder at or
    below the least sum the terms left can make (their negative ones) counts
    all their subsets at once, and one above the greatest (their positive
    ones) counts none, so only a few remainders stay live."""
    w = len(terms)
    low = [GoldenInt()] * (w + 1)
    high = [GoldenInt()] * (w + 1)
    for i in reversed(range(w)):
        t = terms[i]
        if t.sign() > 0:
            low[i], high[i] = low[i + 1], high[i + 1] + t
        else:
            low[i], high[i] = low[i + 1] + t, high[i + 1]
    total = 0
    live = {r: 1}
    for i in range(w + 1):
        rest: dict[GoldenInt, int] = {}
        for rem, c in live.items():
            if rem <= low[i]:
                total += c << (w - i)
            elif rem <= high[i]:  # so i < w, as low[w] = high[w] = 0
                for left in (rem, rem - terms[i]):
                    rest[left] = rest.get(left, 0) + c
        live = rest
    return total


def level_strip_violations(n: int, kind: basis_mod.Kind = "lie") -> int:
    """Count of level-n basis monomials outside -lambda < swt < 1 (exact).

    swt(t^S v_n) = mu^n - sum_S mu^j is >= 1 when the sum of the -mu^j is
    >= 1 - mu^n, and <= -lambda when the sum of the mu^j is >= mu^n + lambda;
    the restricted level adds the one multidegree of its pivot square."""
    mu = [t.conj() for t in reversed(_lambda_tail(n))]
    top = lambda_power(n).conj()
    out = _subsets_at_least([-t for t in mu], GoldenInt(1) - top)
    out += _subsets_at_least(mu, top + LAMBDA)
    if kind == "restricted" and n >= 3:
        out += not _in_strip(*square_multidegree(n))
    return out


def level_rectangle_violations(n: int) -> int:
    """Count of W_n monomials outside lambda^(n-1) < wt <= lambda^n (exact):
    those with wt <= lambda^(n-1), plus 2^w minus those with wt <= lambda^n."""
    tail = _lambda_tail(n)
    top = lambda_power(n)
    below = _subsets_at_least(tail, top - lambda_power(n - 1))
    return below + (1 << len(tail)) - _subsets_at_least(tail, GoldenInt())


def count_weights_at_most(levels: Sequence[int], x: GoldenInt) -> int:
    """Exact count of W-monomials with wt <= x over the given levels: at level
    n, the tails S whose lambda^j sum to at least lambda^n - x."""
    return sum(_subsets_at_least(_lambda_tail(n), lambda_power(n) - x) for n in levels)
