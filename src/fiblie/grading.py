"""Exact weight geometry in Z[lambda] (lambda the golden ratio) and the
Z^2-grading by multidegree in the generators v_1, v_2.

Everything the strict strip inequalities touch is computed in the exact
quadratic ring: a GoldenInt a + b*lambda has an exact sign obtained from
2(a + b*lambda) = (2a + b) + b*sqrt(5) by comparing (2a+b)^2 with 5 b^2.
Floats appear only in growth-exponent diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import FibLieError, InputError, Monomial, ring_indices
from . import basis as basis_mod


class ZeroSignError(FibLieError):
    """A superweight sign came out zero; impossible for monomials."""


class LevelCeilingError(FibLieError):
    """Enumeration hit its level ceiling before reaching the threshold."""


_FIB: list[int] = [0, 1]


def fib(k: int) -> int:
    """Fibonacci numbers with F_1 = F_2 = 1, extended to F_-1 = 1, F_-2 = -1."""
    if k < -2:
        raise InputError("fib extended down to index -2 only")
    if k == -1:
        return 1
    if k == -2:
        return -1
    while len(_FIB) <= k:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[k]


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
        p = 2 * self.a + self.b
        q = self.b
        if q == 0:
            return (p > 0) - (p < 0)
        if q > 0:
            if p >= 0:
                return 1
            return (5 * q * q > p * p) - (5 * q * q < p * p)
        if p <= 0:
            return -1
        return (p * p > 5 * q * q) - (p * p < 5 * q * q)

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


GOLDEN_ZERO = GoldenInt(0, 0)
GOLDEN_ONE = GoldenInt(1, 0)
LAMBDA = GoldenInt(0, 1)


def parse_golden(text: str) -> GoldenInt:
    a_part, b_part = text.replace(" ", "").split("+", 1)
    if not b_part.endswith("*L"):
        raise InputError(f"malformed GoldenInt {text!r}")
    return GoldenInt(int(a_part), int(b_part[:-2]))


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


def gr_tail(j: int) -> Multidegree:
    # Gr(t_j) = Gr(v_{j+1}) - Gr(v_{j+2}) = (-F_{j-2}, -F_{j-1})
    return Multidegree(-fib(j - 2), -fib(j - 1))


def gr(m: Monomial) -> Multidegree:
    a, b = gr_pivot(m.pivot)
    for j in ring_indices(m.tail):
        ta, tb = gr_tail(j)
        a += ta
        b += tb
    return Multidegree(a, b)


def weight(m: Monomial) -> WeightVector:
    wt = lambda_power(m.pivot)
    for j in ring_indices(m.tail):
        wt = wt - lambda_power(j)
    return WeightVector(wt, wt.conj())


def weight_coords(d: Multidegree | tuple[int, int]) -> tuple[GoldenInt, GoldenInt]:
    """(xi, eta) = (x*lambda + y*lambda^2, -x/lambda + y/lambda^2)."""
    x, y = d
    xi = GoldenInt(y, x + y)
    eta = GoldenInt(x + 2 * y, -(x + y))
    return xi, eta


def strip_check(m: Monomial) -> bool:
    """Exact test of -lambda < swt(m) < 1."""
    swt = weight(m).swt
    return (swt + LAMBDA).sign() > 0 and (swt - GOLDEN_ONE).sign() < 0


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


def local_nilpotency_bound(gens: Sequence[Monomial], cap: int = 10**6) -> int:
    """ceil(1/mu) for mu = min positive superweight of the generators,
    found by exact integer search on GoldenInt signs."""
    if not gens:
        raise InputError("need at least one generator")
    mus = [weight(m).swt for m in gens]
    for mu in mus:
        if mu.sign() <= 0:
            raise InputError("generators must come from the positive side")
    mu = mus[0]
    for other in mus[1:]:
        if other < mu:
            mu = other
    acc = GOLDEN_ZERO
    for n in range(1, cap + 1):
        acc = acc + mu
        if (acc - GOLDEN_ONE).sign() >= 0:
            return n
    raise FibLieError("nilpotency bound search exceeded cap")


def degree_growth(series, upto: int) -> dict[int, int]:
    """s(n) = dim of the degree-n component, read off one-variable Hilbert data."""
    if series.bound < upto:
        raise InputError(
            f"Hilbert data truncated at {series.bound}, need degree {upto}"
        )
    return {n: series.coeffs.get(n, 0) for n in range(1, upto + 1)}


# --- vectorised per-level scans (exact int64 arithmetic) --------------------
#
# Exhaustive checks over W_{<=24} touch ~4 million monomials; these helpers
# reproduce gr()/weight() per level as numpy int64 arrays in tail-mask order.
# All quantities stay far below 2^63 for levels <= 40 (checked, FibLieError
# otherwise), so the arithmetic, and in particular the sign test, remains exact.

_INT64_SAFE = 1 << 30


def _check_int64_safe(magnitude: int) -> None:
    if magnitude >= _INT64_SAFE:
        raise FibLieError(f"magnitude {magnitude} leaves the exact int64 range (< 2^30)")


_LEVEL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_LEVEL_CACHE_MAX = 21  # levels above this are large; computed on demand


def level_multidegree_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _LEVEL_CACHE.get(n)
    if cached is not None:
        return cached
    width = basis_mod.tail_width(n)
    pa, pb = gr_pivot(n)
    _check_int64_safe(abs(pa) + abs(pb))
    size = 1 << width
    masks = np.arange(size, dtype=np.int64)
    a = np.full(size, pa, dtype=np.int64)
    b = np.full(size, pb, dtype=np.int64)
    for j in range(width):
        bit = (masks >> j) & 1
        ta, tb = gr_tail(j)
        a += bit * ta
        b += bit * tb
    if n <= _LEVEL_CACHE_MAX:
        _LEVEL_CACHE[n] = (a, b)
    return a, b


def weight_pairs_from_multidegree(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(wt, swt) as GoldenInt pairs: wt = y + (x+y)L, swt = (x+2y) - (x+y)L."""
    wt_a, wt_b = b, a + b
    swt_a, swt_b = a + 2 * b, -(a + b)
    return wt_a, wt_b, swt_a, swt_b


def golden_sign_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact sign of a + b*lambda, elementwise."""
    p = 2 * a + b
    q = b
    _check_int64_safe(max(int(np.abs(p).max(initial=0)), int(np.abs(q).max(initial=0))))
    d = p * p - 5 * q * q
    out = np.zeros(a.shape, dtype=np.int64)
    qpos = q > 0
    qneg = q < 0
    qzero = q == 0
    out[qzero] = np.sign(p[qzero])
    out[qpos & (p >= 0)] = 1
    sel = qpos & (p < 0)
    out[sel] = -np.sign(d[sel])
    out[qneg & (p <= 0)] = -1
    sel = qneg & (p > 0)
    out[sel] = np.sign(d[sel])
    return out


def level_strip_violations(n: int, kind: basis_mod.Kind = "lie") -> int:
    """Count of level-n basis monomials outside -lambda < swt < 1 (exact)."""
    a, b = level_multidegree_arrays(n)
    if kind == "restricted" and n >= 3:
        sq = Monomial(n, 1 << (n - 3))
        sa, sb = gr(sq)
        a = np.concatenate([a, np.array([sa], dtype=np.int64)])
        b = np.concatenate([b, np.array([sb], dtype=np.int64)])
    _, _, sa_, sb_ = weight_pairs_from_multidegree(a, b)
    # swt + lambda > 0  and  swt - 1 < 0
    low = golden_sign_array(sa_, sb_ + 1)
    high = golden_sign_array(sa_ - 1, sb_)
    return int(np.count_nonzero((low <= 0) | (high >= 0)))


def level_rectangle_violations(n: int) -> int:
    """Count of W_n monomials outside lambda^(n-1) < wt <= lambda^n (exact)."""
    a, b = level_multidegree_arrays(n)
    wa, wb, _, _ = weight_pairs_from_multidegree(a, b)
    lo = lambda_power(n - 1)
    hi = lambda_power(n)
    above_lo = golden_sign_array(wa - lo.a, wb - lo.b)
    below_hi = golden_sign_array(wa - hi.a, wb - hi.b)
    return int(np.count_nonzero((above_lo <= 0) | (below_hi > 0)))


def count_weights_at_most(levels: Sequence[int], x: GoldenInt) -> int:
    """Exhaustive exact count of W-monomials with wt <= x over given levels."""
    total = 0
    for n in levels:
        a, b = level_multidegree_arrays(n)
        wa, wb, _, _ = weight_pairs_from_multidegree(a, b)
        sgn = golden_sign_array(wa - x.a, wb - x.b)
        total += int(np.count_nonzero(sgn <= 0))
    return total


def weight_growth_levels(x: GoldenInt, max_level: int = 64) -> list[int]:
    """Levels that can contain W-monomials of weight <= x."""
    levels = []
    n = 1
    while (lambda_power(n - 1) - x).sign() < 0:
        levels.append(n)
        n += 1
        if n > max_level:
            raise LevelCeilingError(f"level ceiling {max_level} reached")
    return levels
