"""Sparse generating functions on the Z^2 lattice and in one variable:
Hilbert series of the algebra by direct counting and by the functional
recursion, the enveloping-series operator, and the Euler characteristic.

Truncation is by total degree and the bound travels with the value; a
product is exact through the smaller of its factors' bounds and carries
that bound, so precision is never lost silently.  A one-variable series
is a plain list of coefficients for degrees 0..bound (its bound is
len - 1).  Coefficients are exact Python integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .basis import Kind
from .core import FibLieError, InputError, check_cap
from .grading import fib, level_multidegree_counts, levels_while, square_multidegree


class SupportError(FibLieError):
    """A series left the admissible lattice quadrant."""


@dataclass(frozen=True)
class LatticeSeries:
    """Integer coefficients on N0^2, truncated at total degree ``bound``: zeros
    and terms past the bound are dropped, and a term off N0^2 is refused.
    The value is frozen and ``coeffs`` a read-only mapping, so the check made
    here holds for as long as the series lives."""

    coeffs: Mapping[tuple[int, int], int] = field(default_factory=dict)
    bound: int = 0

    def __post_init__(self) -> None:
        bound = self.bound
        if bound < 0:
            raise InputError(f"truncation degree must be >= 0, got {bound}")
        coeffs = {}
        for key, c in self.coeffs.items():
            a, b = key
            if c and a + b <= bound:
                if a < 0 or b < 0:
                    raise SupportError(f"coefficient at ({a},{b}) outside N0^2")
                coeffs[key] = c
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))

    def __getitem__(self, key: tuple[int, int]) -> int:
        """The coefficient at key; past the bound the series holds no answer."""
        if key[0] + key[1] > self.bound:
            raise InputError(f"{key} lies past the truncation degree {self.bound}")
        return self.coeffs.get(key, 0)

    def __mul__(self, other: "LatticeSeries") -> "LatticeSeries":
        """The product through the smaller bound.

        Each pair of trimmed rows d1 + d2 <= bound (see ``_trimmed_rows``) is
        one integer product, so no pair past the bound is ever formed.  Rows
        that start at slots z1 and z2 multiply to a row that starts at slot
        z1 + z2, so the product is shifted back by z1 + z2 slots as it is
        added to row d1 + d2.  A cell sums at most min(len) pairs, so a slot
        of bits(max|x|) + bits(max|y|) + bits(min(len)) + 1 bits holds it.
        """
        bound = min(self.bound, other.bound)
        check_triangle(bound, bound)
        if not (self.coeffs and other.coeffs):
            return LatticeSeries({}, bound)
        width = _slot_width(
            max(map(abs, self.coeffs.values())).bit_length()
            + max(map(abs, other.coeffs.values())).bit_length()
            + min(len(self.coeffs), len(other.coeffs)).bit_length()
        )
        right = _trimmed_rows(other, bound, width)
        out = [0] * (bound + 1)
        for d1, z1, row1 in _trimmed_rows(self, bound, width):
            for d2, z2, row2 in right:
                if d1 + d2 > bound:
                    break
                # x << 0 copies a big int
                if z1 + z2:
                    out[d1 + d2] += (row1 * row2) << (z1 + z2)
                else:
                    out[d1 + d2] += row1 * row2
        return _unpack(out, [0] * (bound + 1), width, bound)

    def one_var(self) -> list[int]:
        """Coefficients by total degree a + b, for degrees 0..bound."""
        out = [0] * (self.bound + 1)
        for (a, b), c in self.coeffs.items():
            out[a + b] += c
        return out

    def items_sorted(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))


def check_triangle(bound: int, depth: int) -> None:
    """Refuse a triangle a <= depth, a + b <= bound past the monomial limit."""
    entries = (depth + 1) * (2 * bound + 2 - depth) // 2
    check_cap(entries, "entries of a truncation triangle")


def _slot_width(bits: int) -> int:
    """Whole bytes for a signed slot that holds every value of at most ``bits`` bits."""
    return (bits // 8 + 1) * 8


def _trimmed_rows(s: LatticeSeries, bound: int, width: int) -> list[tuple[int, int, int]]:
    """The nonzero rows of ``s`` through the bound, in order of total degree,
    as (d, z width, row): row d packed from its lowest nonzero slot z, so
    that row is the sum of c_(a, d-a) 2^((a - z) width) over its cells.  A
    cell below the row's lowest slot so far shifts the row up to it first."""
    rows = [0] * (bound + 1)
    low = [bound + 1] * (bound + 1)  # above every slot a <= bound
    for (a, b), c in s.coeffs.items():
        d = a + b
        if d <= bound:
            z = low[d]
            if a >= z:
                rows[d] += c << ((a - z) * width)
            else:
                rows[d] = (rows[d] << ((z - a) * width)) + c
                low[d] = a
    return [(d, low[d] * width, row) for d, row in enumerate(rows) if row]


def _unpack(rows: list[int], offsets: list[int], width: int, bound: int) -> LatticeSeries:
    """The series whose coefficient at (a, d - a) is slot a - offsets[d] of rows[d].

    Row d is the integer sum of c_(a, d-a) 2^((a - z) width) over z <= a <= d,
    z = offsets[d], so each slot is signed; with |c| < 2^(width - 1) in
    every slot, adding 2^(width - 1) to each makes every slot a plain byte
    field.  The bit length of the row names its top nonzero slot, so no slot
    above it is read.
    """
    size, half = width // 8, 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * (bound + 1), "little")
    coeffs: dict[tuple[int, int], int] = {}
    for d, row in enumerate(rows):
        if row:
            z = offsets[d]
            # the top nonzero slot k has 2^(k width - 1) < |row| < 2^((k + 1) width - 1)
            slots = abs(row).bit_length() // width + 1
            data = (row + (bias >> ((bound + 1 - slots) * width))).to_bytes(slots * size, "little")
            for i, a in enumerate(range(z, z + slots)):
                c = int.from_bytes(data[i * size : (i + 1) * size], "little") - half
                if c:
                    coeffs[(a, d - a)] = c
    return LatticeSeries(coeffs, bound)


# --- per-level degree data ---------------------------------------------------


def min_level_degree(n: int, kind: Kind = "lie") -> int:
    """Smallest total degree over W_n (full tail): F_n up to n = 3, then F_{n-1} + 1.

    The restricted variant also admits the pivot square of degree 2 F_{n-2},
    which undercuts the standard minimum at level 4 (degree 2 vs 3)."""
    base = fib(n) if n <= 3 else fib(n - 1) + 1
    if kind == "restricted" and n >= 3:
        return min(base, sum(square_multidegree(n)))
    return base


def levels_for_degree(degree: int, kind: Kind = "lie") -> list[int]:
    """All levels whose cheapest basis monomial still fits under the bound."""
    return levels_while(lambda n: min_level_degree(n, kind) <= degree)


def _levels_upto(upto: int, bound: int, kind: Kind = "lie") -> list[int]:
    """The levels of ``levels_for_degree`` that W_{<=upto} holds."""
    return levels_while(lambda n: n <= upto and min_level_degree(n, kind) <= bound)


# --- Hilbert series ----------------------------------------------------------


def hilbert_enumerated(upto: int, kind: Kind = "lie", bound: int = 40) -> LatticeSeries:
    """Coefficient at (a,b): number of basis monomials of W_{<=upto} there."""
    if upto < 1:
        raise InputError("W_{<=n} needs n >= 1")
    out: dict[tuple[int, int], int] = {}
    for n in _levels_upto(upto, bound, kind):
        for (a, b), c in level_multidegree_counts(n).items():
            if a + b <= bound:
                out[(a, b)] = out.get((a, b), 0) + c
        if kind == "restricted" and n >= 3:
            a, b = square_multidegree(n)
            if a + b <= bound:
                out[(a, b)] = out.get((a, b), 0) + 1
    return LatticeSeries(out, bound)


def hilbert_lie(bound: int = 40, kind: Kind = "lie") -> LatticeSeries:
    """Hilbert series of the whole algebra, exact through the bound."""
    # no level reaches degree 0, and W_{<=1} adds nothing there
    deep = max(levels_for_degree(bound, kind), default=1)
    return hilbert_enumerated(deep, kind, bound)


def hilbert_recursive(upto: int, bound: int = 40) -> LatticeSeries:
    """H(W_{<=n}) from the functional recursion
    H(W_{<=n+1}, x, y) = H(W_{<=n}, y, xy)(1 + x/y) - x^2 starting at x + y:
    the labelled oracle of ``hilbert_enumerated``, which ``fiblie verify
    hilbert`` and the tests hold it against; the CLI prints the enumeration.

    The substitution (x,y) -> (y,xy) is the lattice map (a,b) -> (b,a+b);
    multiplying by x/y shifts (a,b) -> (a+1,b-1).  Intermediate terms may
    only leave N0^2 transiently: the result is a ``LatticeSeries``, which
    refuses a term outside with ``SupportError``.
    """
    if upto < 2:
        raise InputError("recursion starts at W_{<=2}")
    # hilbert_enumerated's guard: both hold the cells of W_{<=upto}.  No
    # round lowers a total degree, so past the last level with a cell within
    # the bound each round maps the truncated series to itself.
    rounds = max(_levels_upto(upto, bound), default=2) - 2
    coeffs: dict[tuple[int, int], int] = {(1, 0): 1, (0, 1): 1}
    for _ in range(rounds):
        substituted: dict[tuple[int, int], int] = {}
        for (a, b), c in coeffs.items():
            key = (b, a + b)
            if key[0] + key[1] <= bound:
                substituted[key] = substituted.get(key, 0) + c
        nxt = dict(substituted)
        for (a, b), c in substituted.items():
            key = (a + 1, b - 1)
            nxt[key] = nxt.get(key, 0) + c
        nxt[(2, 0)] = nxt.get((2, 0), 0) - 1
        coeffs = {k: c for k, c in nxt.items() if c != 0}
    return LatticeSeries(coeffs, bound)


def hilbert_one_var(bound: int) -> list[int]:
    """One-variable Hilbert series: the dimension in each total degree 0..bound."""
    return hilbert_lie(bound).one_var()


# --- the enveloping-series operator and the Euler characteristic ------------


def _factor_product(factors: LatticeSeries, sign: int) -> LatticeSeries:
    """prod over points p of (1 - x^p)^(sign c_p) for the counts c_p >= 0 of
    ``factors`` (on N0^2 off the origin), truncated at the same bound.

    The product lives on packed rows (see ``_unpack``), one per total
    degree.  Multiplying by x^f moves row d to row d + |f|, shifted by f_a
    slots.  Each factor f visits the rows d >= |f|: multiplying by
    (1 - x^f) sweeps downwards on offset rows (``_sweep_down``); dividing by
    it sweeps upwards (``_sweep_up``) on rows that start at slot 0, since a
    divisor repeats each factor without limit and so fills every row from
    slot 0.

    Rows are exact integers, so only the final slots must fit.  As the
    counts are >= 0, |coefficient at (a, b)| <= [prod (1 + x^p)^c_p] at
    (a, b) <= X at a + b, where X is the one-variable exterior product
    prod (1 + t^|p|)^c_p = prod (1 - t^(2|p|))^c_p / (1 - t^|p|)^c_p: the
    slots of a product (sign +1) are sized by max X.  A quotient's
    coefficients are counts of the envelope, at most U1 at a + b, the
    one-variable envelope prod 1/(1 - t^|p|)^c_p, so its slots are sized by
    max U1 >= max X.  Both come from ``_product_1var``.
    """
    bound = factors.bound
    check_triangle(bound, bound if any(a for a, _ in factors.coeffs) else 0)
    h = factors.one_var()
    exponents = [-c for c in h]  # U1
    if sign > 0:
        for d in range(1, bound // 2 + 1):
            exponents[2 * d] += h[d]  # X
    width = _slot_width(max(_product_1var(exponents)).bit_length())
    cells = [(a, a + b, c) for (a, b), c in factors.coeffs.items()]
    if sign > 0:
        rows, offsets = _sweep_down(cells, width, bound)
    else:
        rows, offsets = _sweep_up(cells, width, bound), [0] * (bound + 1)
    return _unpack(rows, offsets, width, bound)


def _sweep_up(factors: list[tuple[int, int, int]], width: int, bound: int) -> list[int]:
    """The packed rows of prod 1/(1 - x^f)^c over the factors (f_a, |f|, c),
    every row from slot 0.  A factor with f_a = 0 shifts by 0 bits, which
    copies each row it reads; of the lattice envelope's factors only v_2 at
    (0, 1), with count 1, has f_a = 0 (checked through degree 1200)."""
    rows = [1] + [0] * bound
    for fa, fd, c in factors:
        shift = fa * width
        for _ in range(c):
            for d in range(fd, bound + 1):
                rows[d] += rows[d - fd] << shift
    return rows


def _sweep_down(
    factors: list[tuple[int, int, int]], width: int, bound: int
) -> tuple[list[int], list[int]]:
    """The packed rows of prod (1 - x^f)^c over the factors (f_a, |f|, c) and
    the slot offset of each row: row d holds its coefficients from slot
    offsets[d] up, stored shifted down by that many slots.

    Multiplying by (1 - x^f) adds to row d the terms of row d - |f| moved up
    by f_a slots, so they start at slot offsets[d - |f|] + f_a; when that
    lies below the row's own offset, the row is first shifted up to it.
    An offset only records where terms were added, never which cells
    cancelled, so it is exact for any factors, and every slot below it is 0.
    """
    rows = [1] + [0] * bound
    # bit offsets; an empty row sits above every slot a <= bound
    offs = [0] + [(bound + 1) * width] * bound
    for fa, fd, c in factors:
        shift = fa * width
        for _ in range(c):
            for d in range(bound, fd - 1, -1):
                src = rows[d - fd]
                if src:
                    gap = offs[d - fd] + shift - offs[d]
                    # x << 0 copies a big int
                    if gap > 0:
                        rows[d] -= src << gap
                    elif gap:
                        rows[d] = (rows[d] << -gap) - src
                        offs[d] += gap
                    else:
                        rows[d] -= src
    return rows, [off // width for off in offs]


def e_operator(h: LatticeSeries) -> LatticeSeries:
    """H(U) = prod over lattice points of 1/(1 - x^a y^b)^{c_ab}, exact through
    the bound of ``h``."""
    for (a, b), c in h.coeffs.items():
        if a + b == 0 or c < 0:
            raise InputError(f"E needs counts >= 0 on N0^2 off the origin, got {c} at ({a},{b})")
    return _factor_product(h, -1)


def e_operator_1var(h: list[int]) -> list[int]:
    """prod over degrees d of 1/(1 - t^d)^{h[d]}, exact through len(h) - 1."""
    for d, c in enumerate(h):
        if c < 0 or (d == 0 and c):
            raise InputError(f"E needs counts >= 0 off degree 0, got {c} at degree {d}")
    return _product_1var([-c for c in h])


def euler_product(bound: int = 40) -> LatticeSeries:
    """Truncated prod over basis monomials w of (1 - x^Gr1(w) y^Gr2(w)): the
    product of E with the opposite sign, so E(L) * H(U(L)) = 1."""
    check_triangle(bound, bound)  # the factors reach a = 1: refuse before counting
    return _factor_product(hilbert_lie(bound), 1)


def _product_1var(exponents: list[int]) -> list[int]:
    """prod over degrees d >= 1 of (1 - t^d)^exponents[d], exact through
    len(exponents) - 1, by the logarithmic derivative.

    For P = prod (1 - t^d)^(e_d), t P'/P = sum_d e_d (-d t^d)/(1 - t^d) =
    sum_k s_k t^k with s_k = -sum over d | k of d e_d, so the coefficient of
    t^n in t P' = P (t P'/P) reads n P_n = sum_{k=1..n} s_k P_(n-k).  Each
    division by n is exact: P is a product of integer series with constant
    term 1, so P_n is an integer.
    """
    if not exponents:
        raise InputError("truncation degree must be >= 0, got -1")
    bound = len(exponents) - 1
    check_triangle(bound, 0)
    s = [0] * (bound + 1)
    for d in range(1, bound + 1):
        if exponents[d]:
            for k in range(d, bound + 1, d):
                s[k] -= d * exponents[d]
    out = [1] + [0] * bound
    for n in range(1, bound + 1):
        out[n] = sum(map(mul, s[n:0:-1], out[:n])) // n
    return out


def euler_inverse_mismatch(bound: int = 40) -> tuple[int, int] | None:
    """First lattice point where E * H(U) differs from 1, or None."""
    product = euler_product(bound) * e_operator(hilbert_lie(bound))
    if product.coeffs == {(0, 0): 1}:
        return None
    # some cell differs from 1: the first in order of total degree, then of a
    return next(
        (a, d - a)
        for d in range(bound + 1)
        for a in range(d + 1)
        if product[(a, d - a)] != (1 if d == 0 else 0)
    )


def euler_inverse_check(bound: int = 40) -> bool:
    """E(L) * H(U(L)) = 1 through the bound."""
    return euler_inverse_mismatch(bound) is None


# --- growth diagnostics -------------------------------------------------------

THETA = math.log(2) / math.log(1 + 5**0.5)  # lambda/(lambda+1) ~ 0.5902


@dataclass
class EnvelopingGrowthReport:
    bound: int
    gamma: list[int]
    theta_hat: list[tuple[int, float]]
    witness_degree: int
    witness_count: int
    witness_lower_bound: int

    def witness_ok(self) -> bool:
        return self.gamma[self.witness_degree] >= self.witness_lower_bound


def enveloping_growth_report(bound: int = 120) -> EnvelopingGrowthReport:
    """Partial sums of dim U(L) by degree and the empirical exponent
    ln ln gamma / ln n against theta ~ 0.5902.  Diagnostic only."""
    if bound < 6:
        # the smallest PBW witness degree is 2^(4-3) F_4 = 6
        raise InputError("the enveloping growth report needs degree >= 6")
    gamma = list(accumulate(e_operator_1var(hilbert_one_var(bound))))
    theta_hat = []
    for n in range(4, bound + 1, max(1, bound // 24)):
        g = gamma[n]
        if g > 2:
            theta_hat.append((n, math.log(math.log(g)) / math.log(n)))
    # 2^NN ordered-subset witness: subsets of W_m give PBW monomials of
    # degree <= 2^(m-3) F_m, so gamma(that) >= 2^(2^(m-3))
    m = 4
    while (1 << (m - 2)) * fib(m + 1) <= bound:
        m += 1
    witness_degree = (1 << (m - 3)) * fib(m)
    witness_lower = 1 << (1 << (m - 3))
    return EnvelopingGrowthReport(
        bound=bound,
        gamma=gamma,
        theta_hat=theta_hat,
        witness_degree=witness_degree,
        witness_count=gamma[witness_degree],
        witness_lower_bound=witness_lower,
    )


# --- rigorous-tail Euler evaluation -------------------------------------------


@dataclass
class EulerEvalResult:
    t: Fraction
    truncation: float
    upper: float
    positive_ok: bool
    upper_ok: bool
    tail_ok: bool


def _hilbert_upper(u: float, s_exact: list[int]) -> float:
    """Upper bound for H(L, u), 0 < u < 1: exact part plus 3k^2 tail."""
    k_max = len(s_exact) - 1
    exact = 0.0
    for c in reversed(s_exact):
        exact = exact * u + c
    # sum_{k>K} 3 k^2 u^k <= 3 (K+1)^2 u^{K+1} (1+u)/(1-u)^3
    tail = 3 * (k_max + 1) ** 2 * u ** (k_max + 1) * (1 + u) / (1 - u) ** 3
    return exact + tail


def _envelope_log_upper(x: float, s_exact: list[int]) -> float:
    """Upper bound for ln H(U(L), x) = sum_m H(L, x^m)/m."""
    m_terms = 60
    total = 0.0
    for m in range(1, m_terms + 1):
        total += _hilbert_upper(x**m, s_exact) / m
    # tail over m: H(L,u)/u is nondecreasing, so H(L, x^m) <= H(L, x^M) x^(m-M)
    last = _hilbert_upper(x**m_terms, s_exact) / x**m_terms
    total += last * x ** (m_terms + 1) / ((m_terms + 1) * (1 - x))
    return total


def euler_eval_check(degree: int = 400) -> list[EulerEvalResult]:
    """Evaluate the truncated one-variable Euler characteristic at
    t = 1/2, 3/5, 7/10 and check 0 < E(t) <= exp(-1/2/(1-t)) within a rigorous
    tail bound (|E_n| <= dim U_n beyond the truncation degree).

    The tail is bounded by sum_{n>D} dim U_n t^n <= H(U,x) (t/x)^{D+1}/(1-t/x)
    with H(U,x) bounded through the exp-sum formula; a safety factor of 4
    absorbs float rounding.  Results flag tail_ok=False (check
    skipped) when the bound is not small enough to decide the inequality.
    """
    s_exact = hilbert_one_var(degree)
    e_series = _product_1var(s_exact)
    log_hu_at = {x: _envelope_log_upper(x, s_exact) for x in (0.8, 0.85, 0.9, 0.95)}
    results = []
    top = len(e_series) - 1
    for t in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)):
        # sum c_n (p/q)^n over the common denominator q^top: one exact division
        p, q = t.numerator, t.denominator
        value = float(
            Fraction(sum(c * p**n * q ** (top - n) for n, c in enumerate(e_series) if c), q**top)
        )
        best_tail = math.inf
        for x, log_hu in log_hu_at.items():
            if x <= float(t):
                continue
            ratio = float(t) / x
            log_tail = log_hu + (degree + 1) * math.log(ratio) - math.log(1 - ratio)
            if log_tail < 600:
                best_tail = min(best_tail, math.exp(log_tail))
        tail = best_tail * 4.0
        upper = math.exp(-0.5 / (1 - float(t)))
        tail_ok = math.isfinite(tail) and tail < min(value, 1e-3) if value > 0 else False
        results.append(
            EulerEvalResult(
                t=t,
                truncation=value,
                upper=upper,
                positive_ok=value - tail > 0,
                upper_ok=value + tail <= upper,
                tail_ok=tail_ok,
            )
        )
    return results
