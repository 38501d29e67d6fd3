"""Exact arithmetic for derivation monomials over R = GF(2)[t_0,t_1,...]/(t_i^2).

The algebra lives inside Der R and is generated by the pivot derivations
v_1, v_2.  Working values are GF(2) combinations of monomials
``t_{i_1}*...*t_{i_k}*v_n``: a squarefree tail of ring generators times a
pivot.  Brackets, squares and the ring action are evaluated through the
closed forms

    [v_i, v_j] = t_{i-1} t_i ... t_{j-3} v_{j+1}              (i < j)
    v_n(t_j)   = t_{n-1} t_n ... t_{j-2} | 1 | 0              (n < j | n = j | n > j)
    v_i^2      = t_{i-1} v_{i+2}

so the infinite recursive expansion of the pivots is never materialised.
By the Leibniz rule, v_n(t^S) has at most three terms: t_n, and the least
two indices of S above n (every further index j of S gives a factor
t_{n-1} ... t_{j-2} that contains the least one); so a monomial bracket is
a few shifts and masks.

Representation: a tail is a bitmask of t-indices (``RingMonomial``, a plain
int; bit i set means the factor t_i, mask 0 means 1).  A ``RingElement`` is a
frozenset of such masks.  GF(2) addition everywhere is symmetric difference
of monomial sets.  Index masks are capped at ``LIMITS.index_ceiling``;
exceeding the cap raises rather than truncating.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, NamedTuple

RingMonomial = int
RingElement = frozenset[int]

RING_ONE: RingElement = frozenset({0})
RING_ZERO: RingElement = frozenset()


class FibLieError(Exception):
    """Base class for errors raised by this package."""


class InputError(FibLieError, ValueError):
    """An argument outside the domain of the function that received it."""


class IndexCeilingError(FibLieError):
    """A t-index beyond the configured bitmask ceiling was requested."""


class MonomialLimitError(FibLieError):
    """An intermediate element exceeded the configured monomial count cap."""


@dataclass
class Limits:
    index_ceiling: int = 128
    monomial_limit: int = 1_000_000


LIMITS = Limits()


def _check_index(i: int) -> None:
    if i >= LIMITS.index_ceiling:
        raise IndexCeilingError(f"t-index {i} exceeds ceiling {LIMITS.index_ceiling}")


def _range_mask(lo: int, hi: int) -> int:
    """Bitmask of t_lo ... t_hi; the empty product (mask 0) when lo > hi."""
    if lo > hi:
        return 0
    _check_index(hi)
    return ((1 << (hi - lo + 1)) - 1) << lo


def ring_monomial(indices: Iterable[int]) -> RingMonomial:
    """Mask of a squarefree ring monomial from distinct t-indices."""
    mask = 0
    for i in indices:
        if i < 0:
            raise InputError(f"negative t-index {i}")
        _check_index(i)
        bit = 1 << i
        if mask & bit:
            raise InputError(f"repeated t-index {i}")
        mask |= bit
    return mask


def ring_indices(mask: RingMonomial) -> tuple[int, ...]:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return tuple(out)


class Monomial(NamedTuple):
    """tail * v_pivot.  Tuple order (pivot, tail) is the canonical order."""

    pivot: int
    tail: RingMonomial


def monomial(pivot: int, indices: Iterable[int] = ()) -> Monomial:
    if pivot < 1:
        raise InputError(f"pivot index must be >= 1, got {pivot}")
    return Monomial(pivot, ring_monomial(indices))


def v(n: int) -> "Element":
    """The pivot element v_n as an Element."""
    return Element(frozenset({monomial(n)}))


@dataclass(frozen=True)
class Element:
    """GF(2) linear combination of monomials; the empty set is zero."""

    monomials: frozenset[Monomial] = frozenset()

    def __add__(self, other: "Element") -> "Element":
        return Element(self.monomials ^ other.monomials)

    def __bool__(self) -> bool:
        return bool(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(sorted(self.monomials))

    def __str__(self) -> str:
        return format_element(self)

    def pivot_range(self) -> tuple[int, int]:
        """(min, max) pivot index; raises on the zero element."""
        if not self.monomials:
            raise InputError("zero element has no pivot range")
        pivots = [m.pivot for m in self.monomials]
        return min(pivots), max(pivots)


ZERO = Element()


def element(monomials: Iterable[Monomial]) -> Element:
    acc: set[Monomial] = set()
    for m in monomials:
        _toggle(acc, m)
    return Element(frozenset(acc))


def _toggle(acc: set, item) -> None:
    if item in acc:
        acc.remove(item)
    else:
        acc.add(item)


def _action_masks(n: int, s: int) -> list[int]:
    """Masks of v_n(t^S) for the tail mask s of S: at most three terms, t_n,
    and the least two indices of S above n.

    v_n kills t_j for j < n and sends t_n to 1.  For j > n it sends t_j to
    t_{n-1} ... t_{j-2}, which meets every index of S in [n-1, j-2]; so
    j1, the least index of S above n, and j1 + 1 are the only candidates.
    """
    out = [s ^ (1 << n)] if s >> n & 1 else []
    high = s >> (n + 1)
    if not high:
        return out
    # the top index J > n of S gives the widest factor, t_{n-1} ... t_{J-2}
    if s.bit_length() - 3 >= LIMITS.index_ceiling:
        _check_index(s.bit_length() - 3)
    j = (high & -high).bit_length() + n
    m = ((1 << (j - n)) - 1) << (n - 1)  # t_{n-1} ... t_{j-2}
    if not s & m:
        out.append(s ^ (1 << j) | m)
        if s >> (j + 1) & 1:
            m |= 1 << (j - 1)
            if not s & m:
                out.append(s ^ (1 << (j + 1)) | m)
    return out


def pivot_action(n: int, j: int) -> RingElement:
    """v_n(t_j) as a ring element."""
    if n < 1 or j < 0:
        raise InputError("need pivot >= 1 and t-index >= 0")
    if n > j:
        return RING_ZERO
    if n == j:
        return RING_ONE
    return frozenset({_range_mask(n - 1, j - 2)})


def pivot_bracket(i: int, j: int) -> Element:
    """[v_i, v_j]; symmetric in characteristic 2, zero on the diagonal."""
    if i < 1 or j < 1:
        raise InputError("pivot indices must be >= 1")
    if i == j:
        return ZERO
    if i > j:
        i, j = j, i
    return Element(frozenset({Monomial(j + 1, _range_mask(i - 1, j - 3))}))


def _pivot_groups(e: Element) -> dict[int, list[int]]:
    """e = sum_n R_n v_n as pivot -> tail masks of R_n."""
    groups: dict[int, list[int]] = {}
    for n, tl in e.monomials:
        groups.setdefault(n, []).append(tl)
    return groups


def _act(n: int, r: Iterable[int]) -> set[int]:
    """v_n(r) for a ring element r."""
    acc: set[int] = set()
    for s in r:
        for am in _action_masks(n, s):
            _toggle(acc, am)
    return acc


def _apply_groups(groups: dict[int, list[int]], r: Iterable[int]) -> set[int]:
    # e(r) = sum_n R_n v_n(r); v_n(r) = 0 once n exceeds every t-index of r
    acc: set[int] = set()
    top = max(r, default=0).bit_length() - 1
    for n, tails in groups.items():
        if n <= top:
            acc ^= ring_mul(tails, _act(n, r))
    return acc


def apply(e: Element, r: RingElement) -> RingElement:
    """Apply the derivation e to the ring element r."""
    return frozenset(_apply_groups(_pivot_groups(e), r))


def ring_mul(r: Iterable[int], s: Iterable[int]) -> RingElement:
    """Product in R; colliding t-indices annihilate."""
    s = tuple(s)
    acc: set[int] = set()
    for a in r:
        # b -> a | b is injective on the b disjoint from a
        acc ^= {a | b for b in s if not a & b}
    return frozenset(acc)


def _bracket_mono(m1: Monomial, m2: Monomial, acc: set[Monomial]) -> None:
    # [r v_n, s v_m] = r v_n(s) v_m + s v_m(r) v_n + r s [v_n, v_m];
    # v_n(s) = 0 when s has no t-index >= n
    n, r = m1
    m, s = m2
    if s >> n:
        for am in _action_masks(n, s):
            if not (am & r):
                _toggle(acc, Monomial(m, am | r))
    if r >> m:
        for am in _action_masks(m, r):
            if not (am & s):
                _toggle(acc, Monomial(n, am | s))
    if n != m and not (r & s):
        i, j = (n, m) if n < m else (m, n)
        # [v_i, v_j] = P v_{j+1} with P = t_{i-1} ... t_{j-3}, empty when j = i + 1
        if j - 3 >= LIMITS.index_ceiling and j > i + 1:
            _check_index(j - 3)
        pmask = ((1 << (j - i - 1)) - 1) << (i - 1)
        rs = r | s
        if not (pmask & rs):
            _toggle(acc, Monomial(j + 1, pmask | rs))


def bracket_monomials(m1: Monomial, m2: Monomial) -> frozenset[Monomial]:
    """[m1, m2] as a set of monomials, without wrapping either in an Element."""
    acc: set[Monomial] = set()
    _bracket_mono(m1, m2, acc)
    return frozenset(acc)


def bracket(e1: Element, e2: Element) -> Element:
    """Lie bracket, bilinear over the monomials of both arguments."""
    acc: set[Monomial] = set()
    for m1 in e1.monomials:
        for m2 in e2.monomials:
            _bracket_mono(m1, m2, acc)
    return Element(frozenset(acc))


def square(e: Element) -> Element:
    """p-th power (p = 2) through the pivot grouping e = sum_n R_n v_n:

        e^2 = sum_m e(R_m) v_m + sum_{n<m} R_n R_m [v_n, v_m] + sum_{1 in R_n} v_n^2

    so each v_n(R_m) is computed once per pivot pair.
    """
    groups = _pivot_groups(e)
    acc: defaultdict[int, set[int]] = defaultdict(set)
    for m, tails in groups.items():
        acc[m] ^= _apply_groups(groups, tails)
        if 0 in tails:
            # (1 v_m)^2 = t_{m-1} v_{m+2}; r^2 = 0 for every other tail
            acc[m + 2] ^= {_range_mask(m - 1, m - 1)}
    pivots = sorted(groups)
    for i, n in enumerate(pivots):
        rn = groups[n]
        for m in pivots[i + 1 :]:
            rm = groups[m]
            # [v_n, v_m] = P v_{m+1} with P = t_{n-1} ... t_{m-3}; as in
            # _bracket_mono, a non-empty P meets the ceiling once two tails
            # are disjoint
            if m - 3 >= LIMITS.index_ceiling and m >= n + 2 and any(
                not a & b for a in rn for b in rm
            ):
                _check_index(m - 3)
            pmask = ((1 << (m - n - 1)) - 1) << (n - 1)
            ra = [a for a in rn if not a & pmask]
            rb = [b for b in rm if not b & pmask]
            if ra and rb:
                acc[m + 1] ^= {q | pmask for q in ring_mul(ra, rb)}
    return Element(
        frozenset(Monomial(p, tl) for p, tails in acc.items() for tl in tails)
    )


def monomial_cap(limit: int | None) -> int:
    """The monomial limit of one computation: ``limit``, or the global one."""
    if limit is not None and limit < 1:
        raise InputError(f"monomial limit must be >= 1, got {limit}")
    return LIMITS.monomial_limit if limit is None else limit


def power_2k(e: Element, k: int, limit: int | None = None) -> Element:
    """e^(2^k) by iterated squaring; k = 0 is the identity."""
    if k < 0:
        raise InputError("exponent count must be >= 0")
    cap = monomial_cap(limit)
    for _ in range(k):
        e = square(e)
        if len(e.monomials) > cap:
            raise MonomialLimitError(
                f"intermediate element has {len(e.monomials)} monomials (cap {cap})"
            )
    return e


def tau(e: Element, k: int = 1) -> Element:
    """Shift endomorphism: every t-index and pivot index raised by k."""
    if k < 0:
        raise InputError("shift count must be >= 0")
    if k == 0:
        return e
    out = set()
    for n, r in e.monomials:
        shifted = r << k
        if shifted:
            _check_index(shifted.bit_length() - 1)
        out.add(Monomial(n + k, shifted))
    return Element(frozenset(out))


BasisKind = Literal["standard", "square", "non-basis"]


def is_basis_monomial(m: Monomial) -> BasisKind:
    """standard: tail within {0..n-4}; square: tail exactly {n-3}."""
    n, r = m
    if r == 0:
        return "standard"
    if n >= 4 and r < (1 << (n - 3)):
        return "standard"
    if n >= 3 and r == (1 << (n - 3)):
        return "square"
    return "non-basis"


def is_basis_element(e: Element) -> bool:
    return all(is_basis_monomial(m) != "non-basis" for m in e.monomials)


# --- canonical text form: "t0*t1*v5", "0", "+"-separated terms -------------

_MONO_RE = re.compile(r"^(?:t(\d+)\*)*v(\d+)$")


def format_monomial(m: Monomial) -> str:
    parts = [f"t{i}" for i in ring_indices(m.tail)]
    parts.append(f"v{m.pivot}")
    return "*".join(parts)


def format_element(e: Element) -> str:
    if not e.monomials:
        return "0"
    return " + ".join(format_monomial(m) for m in sorted(e.monomials))


def format_ring_monomial(mask: RingMonomial) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"t{i}" for i in ring_indices(mask))


def format_ring_element(r: RingElement) -> str:
    if not r:
        return "0"
    return " + ".join(format_ring_monomial(m) for m in sorted(r))


def parse_monomial(text: str) -> Monomial:
    compact = text.replace(" ", "")
    match = _MONO_RE.match(compact)
    if not match:
        raise InputError(f"malformed monomial {text!r}")
    try:
        pivot = int(compact.rsplit("v", 1)[1])
        tails = [int(p[1:]) for p in compact.split("*")[:-1]]
    except ValueError:  # past the interpreter's int-string limit
        raise InputError(
            f"a number in a {len(compact)}-character monomial is too long"
        ) from None
    return monomial(pivot, tails)


def parse_element(text: str) -> Element:
    compact = text.strip()
    if compact == "0":
        return ZERO
    return element(parse_monomial(term) for term in compact.split("+"))
