"""Sparse generating functions on the Z^2 lattice and in one variable:
Hilbert series of the algebra by direct counting and by the functional
recursion, the enveloping-series operator, and the Euler characteristic.

Truncation is by total degree and the bound travels with the value;
mixing two series takes the minimum bound, so precision is never lost
silently.  Coefficients are exact Python integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Literal

from .core import FibLieError, InputError
from .grading import fib, gr_pivot, level_multidegree_counts

Kind = Literal["lie", "restricted"]


class SupportError(FibLieError):
    """A series left the admissible lattice quadrant."""


class TruncationError(FibLieError):
    """The requested degree exceeds what the inputs can support."""


@dataclass
class LatticeSeries:
    """Integer coefficients on Z^2, truncated at total degree ``bound``."""

    coeffs: dict[tuple[int, int], int] = field(default_factory=dict)
    bound: int = 0

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise InputError(f"truncation degree must be >= 0, got {self.bound}")
        self.coeffs = {
            k: c for k, c in self.coeffs.items() if c != 0 and k[0] + k[1] <= self.bound
        }

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.coeffs.get(key, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeSeries):
            return NotImplemented
        return self.bound == other.bound and self.coeffs == other.coeffs

    def __add__(self, other: "LatticeSeries") -> "LatticeSeries":
        bound = min(self.bound, other.bound)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LatticeSeries(out, bound)

    def __sub__(self, other: "LatticeSeries") -> "LatticeSeries":
        bound = min(self.bound, other.bound)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return LatticeSeries(out, bound)

    def __mul__(self, other: "LatticeSeries") -> "LatticeSeries":
        bound = min(self.bound, other.bound)
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                a, b = a1 + a2, b1 + b2
                if a + b <= bound:
                    key = (a, b)
                    out[key] = out.get(key, 0) + c1 * c2
        return LatticeSeries(out, bound)

    def total_mass(self) -> int:
        return sum(self.coeffs.values())

    def one_var(self) -> "OneVarSeries":
        out: dict[int, int] = {}
        for (a, b), c in self.coeffs.items():
            out[a + b] = out.get(a + b, 0) + c
        return OneVarSeries(out, self.bound)

    def assert_quadrant(self) -> "LatticeSeries":
        for a, b in self.coeffs:
            if a < 0 or b < 0:
                raise SupportError(f"coefficient at ({a},{b}) outside N0^2")
        return self

    def items_sorted(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))


@dataclass
class OneVarSeries:
    coeffs: dict[int, int] = field(default_factory=dict)
    bound: int = 0

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise InputError(f"truncation degree must be >= 0, got {self.bound}")
        self.coeffs = {n: c for n, c in self.coeffs.items() if c != 0 and n <= self.bound}

    def __getitem__(self, n: int) -> int:
        return self.coeffs.get(n, 0)

    def partial_sums(self) -> list[int]:
        out = [0] * (self.bound + 1)
        acc = 0
        for n in range(self.bound + 1):
            acc += self.coeffs.get(n, 0)
            out[n] = acc
        return out


# --- per-level degree data ---------------------------------------------------


def square_multidegree(n: int) -> tuple[int, int]:
    """Multidegree of the pivot square t_{n-3} v_n = v_{n-2}^2, n >= 3."""
    a, b = gr_pivot(n - 2)
    return (2 * a, 2 * b)


def min_level_degree(n: int, kind: Kind = "lie") -> int:
    """Smallest total degree over W_n (full tail); equals F_{n-1} + 1 for n >= 4.

    The restricted variant also admits the pivot square of degree 2 F_{n-2},
    which undercuts the standard minimum at level 4 (degree 2 vs 3)."""
    base = fib(n) - sum(fib(j) for j in range(max(n - 3, 0)))
    if kind == "restricted" and n >= 3:
        return min(base, 2 * fib(n - 2))
    return base


def levels_for_degree(degree: int, kind: Kind = "lie", max_level: int = 90) -> list[int]:
    """All levels whose cheapest basis monomial still fits under the bound."""
    levels = []
    n = 1
    while min_level_degree(n, kind) <= degree:
        levels.append(n)
        n += 1
        if n > max_level:
            raise TruncationError(f"level scan passed {max_level} for degree {degree}")
    return levels


# --- Hilbert series ----------------------------------------------------------


def hilbert_enumerated(upto: int, kind: Kind = "lie", bound: int = 40) -> LatticeSeries:
    """Coefficient at (a,b): number of basis monomials of W_{<=upto} there."""
    if upto < 1:
        raise InputError("W_{<=n} needs n >= 1")
    out: dict[tuple[int, int], int] = {}
    for n in range(1, upto + 1):
        if min_level_degree(n) <= bound:
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
    H(W_{<=n+1}, x, y) = H(W_{<=n}, y, xy)(1 + x/y) - x^2 starting at x + y.

    The substitution (x,y) -> (y,xy) is the lattice map (a,b) -> (b,a+b);
    multiplying by x/y shifts (a,b) -> (a+1,b-1).  Intermediate terms may
    only leave N0^2 transiently; the result is asserted back inside.
    """
    if upto < 2:
        raise InputError("recursion starts at W_{<=2}")
    coeffs: dict[tuple[int, int], int] = {(1, 0): 1, (0, 1): 1}
    for _ in range(upto - 2):
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
    result = LatticeSeries(coeffs, bound)
    result.assert_quadrant()
    return result


def hilbert_one_var(bound: int, kind: Kind = "lie") -> OneVarSeries:
    """One-variable Hilbert series (dimension per total degree in generators)."""
    return hilbert_lie(bound, kind).one_var()


# --- the enveloping-series operator ------------------------------------------


def _sorted_points(bound: int) -> list[tuple[int, int]]:
    return [(a, d - a) for d in range(bound + 1) for a in range(d + 1)]


def e_operator(h: LatticeSeries, bound: int | None = None) -> LatticeSeries:
    """prod over lattice points of 1/(1 - x^a y^b)^{c_ab}, truncated.

    Geometric factors are multiplied in exactly, sweeping coefficients in
    increasing total degree.
    """
    if bound is None:
        bound = h.bound
    if bound > h.bound:
        raise TruncationError(f"input truncated at {h.bound}, requested {bound}")
    if h[(0, 0)] != 0:
        raise InputError("input must have zero constant term")
    for key, c in h.coeffs.items():
        if c < 0:
            raise InputError(f"negative input coefficient at {key}")
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    points = _sorted_points(bound)
    for (fa, fb), mult in sorted(h.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        for _ in range(mult):
            # multiply by 1/(1 - x^fa y^fb): out[p] += out[p - f], ascending
            for a, b in points:
                pa, pb = a - fa, b - fb
                if pa < 0 or pb < 0:
                    continue
                prev = out.get((pa, pb), 0)
                if prev:
                    key = (a, b)
                    out[key] = out.get(key, 0) + prev
    return LatticeSeries(out, bound)


def dilatation(h: LatticeSeries, m: int) -> LatticeSeries:
    out = {(a * m, b * m): c for (a, b), c in h.coeffs.items() if (a + b) * m <= h.bound}
    return LatticeSeries(out, h.bound)


def e_operator_exp(h: LatticeSeries, bound: int | None = None) -> LatticeSeries:
    """Cross-check route: E(h) = exp(sum_m h(x^m, y^m)/m) in exact rationals."""
    if bound is None:
        bound = h.bound
    if bound > h.bound:
        raise TruncationError(f"input truncated at {h.bound}, requested {bound}")
    log_sum: dict[tuple[int, int], Fraction] = {}
    for m in range(1, bound + 1):
        for (a, b), c in h.coeffs.items():
            if (a + b) * m <= bound:
                key = (a * m, b * m)
                log_sum[key] = log_sum.get(key, Fraction(0)) + Fraction(c, m)
    # exp of a series with zero constant term: sum of powers / k!
    result: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    term: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for k in range(1, bound + 1):
        nxt: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in term.items():
            for (a2, b2), c2 in log_sum.items():
                a, b = a1 + a2, b1 + b2
                if a + b <= bound:
                    key = (a, b)
                    nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
        term = {k2: c / k for k2, c in nxt.items() if c}
        if not term:
            break
        for key, c in term.items():
            result[key] = result.get(key, Fraction(0)) + c
    out: dict[tuple[int, int], int] = {}
    for key, c in result.items():
        if c:
            if c.denominator != 1:
                raise FibLieError(f"non-integer enveloping coefficient at {key}: {c}")
            out[key] = int(c)
    return LatticeSeries(out, bound)


def e_operator_1var(h: OneVarSeries, bound: int | None = None) -> OneVarSeries:
    if bound is None:
        bound = h.bound
    if bound > h.bound:
        raise TruncationError(f"input truncated at {h.bound}, requested {bound}")
    if h[0] != 0:
        raise InputError("input must have zero constant term")
    out = [0] * (bound + 1)
    out[0] = 1
    for d in sorted(h.coeffs):
        c = h.coeffs[d]
        if c < 0:
            raise InputError(f"negative input coefficient at degree {d}")
        for _ in range(c):
            for n in range(d, bound + 1):
                out[n] += out[n - d]
    return OneVarSeries({n: c for n, c in enumerate(out)}, bound)


# --- Euler characteristic -----------------------------------------------------


def euler_product(bound: int = 40) -> LatticeSeries:
    """Truncated prod over basis monomials w of (1 - x^Gr1(w) y^Gr2(w)).

    The basis is enumerated deep enough that every omitted monomial has
    total degree above the bound (levels stop once their cheapest tail
    already overshoots)."""
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    points = list(reversed(_sorted_points(bound)))
    for n in levels_for_degree(bound):
        for (fa, fb), mult in sorted(level_multidegree_counts(n).items()):
            if fa + fb > bound:
                continue
            for _ in range(mult):
                # multiply by (1 - x^fa y^fb): descending sweep
                for a, b in points:
                    pa, pb = a - fa, b - fb
                    if pa < 0 or pb < 0:
                        continue
                    prev = out.get((pa, pb), 0)
                    if prev:
                        key = (a, b)
                        out[key] = out.get(key, 0) - prev
    return LatticeSeries(out, bound)


def euler_product_1var(bound: int) -> OneVarSeries:
    out = [0] * (bound + 1)
    out[0] = 1
    for n in levels_for_degree(bound):
        for (a, b), mult in level_multidegree_counts(n).items():
            d = a + b
            if d > bound:
                continue
            for _ in range(mult):
                for k in range(bound, d - 1, -1):
                    out[k] -= out[k - d]
    return OneVarSeries({n: c for n, c in enumerate(out)}, bound)


def euler_inverse_mismatch(bound: int = 40) -> tuple[int, int] | None:
    """First lattice point where E * H(U) differs from 1, or None."""
    product = euler_product(bound) * e_operator(hilbert_lie(bound))
    expected = LatticeSeries({(0, 0): 1}, bound)
    diff = product - expected
    bad = diff.items_sorted()
    return bad[0][0] if bad else None


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
    theta_target: float
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
    h_u = e_operator_1var(hilbert_one_var(bound))
    gamma = h_u.partial_sums()
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
        theta_target=THETA,
        witness_degree=witness_degree,
        witness_count=gamma[witness_degree],
        witness_lower_bound=witness_lower,
    )


# --- rigorous-tail Euler evaluation -------------------------------------------


@dataclass
class EulerEvalResult:
    t: Fraction
    truncation: float
    tail_bound: float
    upper: float
    positive_ok: bool
    upper_ok: bool
    tail_ok: bool


def _hilbert_upper(u: float, s_exact: OneVarSeries) -> float:
    """Upper bound for H(L, u), 0 < u < 1: exact part plus 3k^2 tail."""
    k_max = s_exact.bound
    exact = sum(c * u**n for n, c in s_exact.coeffs.items())
    # sum_{k>K} 3 k^2 u^k <= 3 (K+1)^2 u^{K+1} (1+u)/(1-u)^3
    tail = 3 * (k_max + 1) ** 2 * u ** (k_max + 1) * (1 + u) / (1 - u) ** 3
    return exact + tail


def _envelope_log_upper(x: float, s_exact: OneVarSeries, m_terms: int = 60) -> float:
    """Upper bound for ln H(U(L), x) = sum_m H(L, x^m)/m."""
    total = 0.0
    for m in range(1, m_terms + 1):
        total += _hilbert_upper(x**m, s_exact) / m
    # tail over m: H(L,u)/u is nondecreasing, so H(L, x^m) <= H(L, x^M) x^(m-M)
    last = _hilbert_upper(x**m_terms, s_exact) / x**m_terms
    total += last * x ** (m_terms + 1) / ((m_terms + 1) * (1 - x))
    return total


def euler_eval_check(
    ts: Iterable[Fraction | float] = (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)),
    degree: int = 400,
    safety: float = 4.0,
) -> list[EulerEvalResult]:
    """Evaluate the truncated one-variable Euler characteristic at points
    in [1/2, 1) and check 0 < E(t) <= exp(-1/2/(1-t)) within a rigorous
    tail bound (|E_n| <= dim U_n beyond the truncation degree).

    The tail is bounded by sum_{n>D} dim U_n t^n <= H(U,x) (t/x)^{D+1}/(1-t/x)
    with H(U,x) bounded through the exp-sum formula; a documented safety
    factor absorbs float rounding.  Results flag tail_ok=False (check
    skipped) when the bound is not small enough to decide the inequality.
    """
    e_series = euler_product_1var(degree)
    s_exact = hilbert_one_var(degree)
    results = []
    for t_raw in ts:
        t = Fraction(t_raw).limit_denominator(10**6)
        if not Fraction(1, 2) <= t < 1:
            raise InputError("evaluation points must lie in [1/2, 1)")
        value = float(sum(Fraction(c) * t**n for n, c in e_series.coeffs.items()))
        best_tail = math.inf
        for x in (0.8, 0.85, 0.9, 0.95):
            if x <= float(t):
                continue
            log_hu = _envelope_log_upper(x, s_exact)
            ratio = float(t) / x
            log_tail = log_hu + (degree + 1) * math.log(ratio) - math.log(1 - ratio)
            if log_tail < 600:
                best_tail = min(best_tail, math.exp(log_tail))
        tail = best_tail * safety
        upper = math.exp(-0.5 / (1 - float(t)))
        tail_ok = math.isfinite(tail) and tail < min(value, 1e-3) if value > 0 else False
        results.append(
            EulerEvalResult(
                t=t,
                truncation=value,
                tail_bound=tail,
                upper=upper,
                positive_ok=value - tail > 0,
                upper_ok=value + tail <= upper,
                tail_ok=tail_ok,
            )
        )
    return results
