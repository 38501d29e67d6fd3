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

Every bracket runs through one kernel, ``bracket_each(m1, others)``: r v_n
against a run of monomials s v_k, one list per pair.  v_k(r) and the
commutator tail of [v_n, v_k] do not depend on s, so they are made once per
pivot run; only v_n(s) is taken per pair.

Representation: a tail is a bitmask of t-indices (``RingMonomial``, a plain
int; bit i set means the factor t_i, mask 0 means 1).  A ``RingElement`` is a
frozenset of such masks, and an ``Element`` is the frozenset of its
``Monomial``s (a frozenset subclass).  GF(2) addition everywhere is
symmetric difference of monomial sets: ``e + f`` is ``e ^ f`` as an
Element.  Iteration over an Element is unordered; ``sorted(e)`` is the
canonical order.  Index masks are capped at ``LIMITS.index_ceiling``;
exceeding the cap raises rather than truncating.

Squares and the ring action group an element by pivot, e = sum_n R_n v_n
(``PivotGroups``: pivot -> tail set of R_n), so their work is products in
R of whole ring elements (``ring_mul``).
Small products test every pair of tails.  Large ones, the bulk of
``nil_index`` on v_1 + ... + v_m, run as a subset convolution over GF(2):
both operands are shifted down to the window of t-indices their tails
span, held per rank as one packed int of 2^w bits for a window of w
indices, and multiplied through the ranked zeta transform.  The pair count
and w pick the kernel, and w is capped, which bounds the packed ints.

Squaring works on pivot groups and gives pivot groups; an Element is built
only at the API boundary, so a loop of squarings (``power_2k``,
``nil.nil_index``) groups once and builds no ``Monomial`` between
squarings.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import partial, reduce
from operator import or_
from typing import Iterable, Iterator, Literal, NamedTuple

RingMonomial = int
RingElement = frozenset[int]

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


def set_bits(v: int) -> list[int]:
    """Indices of the set bits of v >= 0, lowest first: the t-indices of a
    tail, or the positions of a GF(2) row."""
    digits, out = bin(v)[:1:-1], []  # digits[i] is bit i of v
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class Monomial(NamedTuple):
    """tail * v_pivot.  Tuple order (pivot, tail) is the canonical order."""

    pivot: int
    tail: RingMonomial


# Monomial((pivot, tail)) without the Python-level __new__ of a NamedTuple
_monomial = partial(tuple.__new__, Monomial)


def monomial(pivot: int, indices: Iterable[int] = ()) -> Monomial:
    if pivot < 1:
        raise InputError(f"pivot index must be >= 1, got {pivot}")
    return Monomial(pivot, ring_monomial(indices))


def v(n: int) -> "Element":
    """The pivot element v_n as an Element."""
    return Element({monomial(n)})


class Element(frozenset):
    """GF(2) linear combination of monomials: the frozenset of its monomials,
    the empty set being zero.

    ``+`` is the GF(2) sum, symmetric difference, and returns an Element;
    the set operators ``^``, ``|`` and ``&`` return plain frozensets.  An
    Element equals the plain frozenset of the same monomials.  Iteration
    follows set order; ``sorted(e)`` is the canonical order.
    ``Element(iterable)`` takes distinct monomials, while ``element()``
    sums with repetition, so a repeated monomial cancels.
    """

    __slots__ = ()

    def __add__(self, other: "Element") -> "Element":
        return Element(self ^ other)

    def __str__(self) -> str:
        return format_element(self)

    @property
    def monomials(self) -> frozenset[Monomial]:
        """The element itself, the set of its monomials."""
        return self

    def pivot_range(self) -> tuple[int, int]:
        """(min, max) pivot index; raises on the zero element."""
        if not self:
            raise InputError("zero element has no pivot range")
        return min(self).pivot, max(self).pivot


ZERO = Element()


def element(monomials: Iterable[Monomial]) -> Element:
    """The GF(2) sum of ``monomials``: a monomial given twice cancels."""
    acc: set[Monomial] = set()
    for m in monomials:
        acc ^= {m}
    return Element(acc)


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


def _commutator_tail(i: int, j: int) -> int:
    """P with [v_i, v_j] = P v_{j+1} for i < j: P = t_{i-1} ... t_{j-3}, the
    empty product when j = i + 1.  The one ceiling test of such a term."""
    if j > i + 1:
        _check_index(j - 3)
    return ((1 << (j - i - 1)) - 1) << (i - 1)


class PivotGroups(dict[int, set[int]]):
    """e = sum_n R_n v_n as pivot n -> the set of tail masks of R_n; no R_n
    is empty, so the zero element has no pivots.  ``len`` counts monomials,
    as it does for an Element."""

    __slots__ = ()

    def __len__(self) -> int:
        return sum(map(len, self.values()))

    def element(self) -> Element:
        return Element(_monomial((n, tl)) for n, tails in self.items() for tl in tails)


def pivot_groups(e: Element) -> PivotGroups:
    """The pivot groups of e."""
    groups = PivotGroups()
    for n, tl in e:
        groups.setdefault(n, set()).add(tl)
    return groups


def _act(n: int, r: Iterable[int]) -> set[int]:
    """v_n(r) for a ring element r."""
    acc: set[int] = set()
    for s in r:
        acc.symmetric_difference_update(_action_masks(n, s))
    return acc


def _apply_groups(groups: PivotGroups, r: Iterable[int]) -> set[int]:
    # e(r) = sum_n R_n v_n(r); v_n(r) = 0 once n exceeds every t-index of r
    acc: set[int] = set()
    top = max(r, default=0).bit_length() - 1
    for n, tails in groups.items():
        if n <= top:
            acc ^= ring_mul(tails, _act(n, r))
    return acc


def apply(e: Element, r: RingElement) -> RingElement:
    """Apply the derivation e to the ring element r."""
    return frozenset(_apply_groups(pivot_groups(e), r))


# ring_mul's choice of kernel, from timing both on every call of
# nil_index(v_1 + ... + v_m) for m <= 11 and on random operands up to w = 22:
# the pair loop costs 55 to 115 ns a pair, the convolution at least 40 us and
# up to 2 to 4 pair tests' worth per subset of the w-index window.
_CONV_MIN_PAIRS = 512
_CONV_PAIRS_PER_SET = 3
# A convolution holds about 4w + 6 ints of 2^w bits (the ranked transforms
# of both operands, the masks, the product); one at w = 22 peaked at 50 MiB
# under tracemalloc, 8 MiB of it the result.
_CONV_MAX_WIDTH = 22

_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))
_NONZERO_BYTE = re.compile(rb"[^\x00]")


def ring_mul(r: Iterable[int], s: Iterable[int]) -> RingElement:
    """Product in R of two ring elements, each given by its distinct tails;
    colliding t-indices annihilate.

    Small operands take the pair loop, which tests every pair of tails.
    When all tails lie in a window of w <= _CONV_MAX_WIDTH t-indices and
    there are more than _CONV_MIN_PAIRS and _CONV_PAIRS_PER_SET * 2^w pairs,
    the product runs as a subset convolution (``_subset_convolution``)
    instead, whose cost follows the 2^w subsets of the window, not the pairs.
    """
    r, s = tuple(r), tuple(s)
    pairs = len(r) * len(s)
    if pairs > _CONV_MIN_PAIRS:
        span = reduce(or_, r, 0) | reduce(or_, s, 0)
        z = (span & -span).bit_length() - 1 if span else 0
        w = (span >> z).bit_length()
        if w <= _CONV_MAX_WIDTH and pairs > _CONV_PAIRS_PER_SET << w:
            return _subset_convolution(r, s, z, w)
    acc: set[int] = set()
    for a in r:
        # b -> a | b is injective on the b disjoint from a
        acc ^= {a | b for b in s if not a & b}
    return frozenset(acc)


def _build_masks(w: int) -> tuple[list[int], list[int]]:
    """LOW_j (the sets without j) for j < w and POP_k (the sets of k
    elements) for k <= w, as 2^w-bit ints indexed by the subsets of
    {0, ..., w - 1}; built by doubling the width one element at a time."""
    low: list[int] = []
    pop = [1]
    for i in range(w):
        half = 1 << i
        low = [m | m << half for m in low] + [(1 << half) - 1]
        pop = [p | q << half for p, q in zip(pop + [0], [0] + pop)]
    return low, pop


# The masks of one width serve every narrower one, so those of width 12 are
# built once, at import: 25 ints of 512 bytes.  Building them per call would
# add 16% to the convolutions of conjecture_scan((1, 2), 8).
_MASK_WIDTH = 12
_NARROW_MASKS = _build_masks(_MASK_WIDTH)


def _zeta(f: int, low: list[int], w: int) -> int:
    """Subset sums over GF(2): bit S of the result is the XOR of the bits T
    of f over the subsets T of S.  Over GF(2) it is its own inverse."""
    for j in range(w):
        f ^= (f & low[j]) << (1 << j)
    return f


def _ranked_zetas(
    tails: tuple[int, ...], z: int, w: int, low: list[int], pop: list[int]
) -> dict[int, int]:
    """k -> the zeta transform of the tails (shifted down by z) of k factors."""
    buf = bytearray(((1 << w) + 7) >> 3)
    for a in tails:
        a >>= z
        buf[a >> 3] ^= 1 << (a & 7)
    f = int.from_bytes(buf, "little")
    ranks = {}
    for k in range(w + 1):
        part = f & pop[k]
        if part:
            ranks[k] = _zeta(part, low, w)
    return ranks


def _subset_convolution(
    r: tuple[int, ...], s: tuple[int, ...], z: int, w: int
) -> RingElement:
    """r * s for tails inside t_z ... t_{z+w-1}: the ranked subset
    convolution of Bjoerklund, Husfeldt, Kaski and Koivisto ("Fourier meets
    Moebius: fast subset convolution", STOC 2007) over GF(2).

    A tail a, shifted down by z, is bit a of a 2^w-bit int.  a | b is a
    term of the product exactly when |a| + |b| = |a | b|, so the product's
    part of rank k is the Moebius transform of XOR_i zeta(r_i) & zeta(s_{k-i})
    kept on the sets of rank k; over GF(2) Moebius is zeta.  No set has
    rank above w.
    """
    low, pop = _NARROW_MASKS if w <= _MASK_WIDTH else _build_masks(w)
    rz = _ranked_zetas(r, z, w, low, pop)
    sz = _ranked_zetas(s, z, w, low, pop)
    if not rz or not sz:
        return RING_ZERO
    out = 0
    for k in range(min(rz) + min(sz), min(max(rz) + max(sz), w) + 1):
        h = 0
        for i, f in rz.items():
            g = sz.get(k - i)
            if g is not None:
                h ^= f & g
        if h:
            out |= _zeta(h, low, w) & pop[k]
    # bytes, not set_bits(out): with set_bits nil_index(v_1+...+v_15) ran 5-12% slower
    data = out.to_bytes(((1 << w) + 7) >> 3, "little")
    tails = []
    for hit in _NONZERO_BYTE.finditer(data):
        at = hit.start()
        for b in _BYTE_BITS[data[at]]:
            tails.append((at << 3 | b) << z)
    return frozenset(tails)


def bracket_each(m1: Monomial, others: Iterable[tuple[int, int]]) -> Iterator[list[Monomial]]:
    """[m1, m2] for each (pivot, tail) pair m2 of ``others``, in order, as a
    list of distinct monomials.

    [r v_n, s v_k] = r v_n(s) v_k + s v_k(r) v_n + r s [v_n, v_k]; v_n(s) = 0
    when s has no t-index >= n.  The masks of v_k(r) and the commutator tail
    P of [v_n, v_k] are made once per run of one pivot k, P only once some
    r s is nonzero.  The three parts have pivots k, n and max(n, k) + 1, so
    they can only meet when k = n, where P is absent.
    """
    n, r = m1
    act_k = tail_k = None
    for k, s in others:
        out = []
        if s >> n:
            for am in _action_masks(n, s):
                if not am & r:
                    out.append(_monomial((k, am | r)))
        if r >> k:
            if k != act_k:
                act_k, act = k, _action_masks(k, r)
            for am in act:
                if not am & s:
                    mono = _monomial((n, am | s))
                    if mono in out:  # only when k = n: [t_n v_n, t_n v_n] = 0
                        out.remove(mono)
                    else:
                        out.append(mono)
        if k != n and not r & s:
            if k != tail_k:
                i, j = (n, k) if n < k else (k, n)
                tail_k, tail, top = k, _commutator_tail(i, j), j + 1
            rs = r | s
            if not tail & rs:
                out.append(_monomial((top, tail | rs)))
        yield out


def bracket_monomials(m1: Monomial, m2: Monomial) -> frozenset[Monomial]:
    """[m1, m2] as a set of monomials, without wrapping either in an Element."""
    return frozenset(next(bracket_each(m1, (m2,))))


def bracket(e1: Element, e2: Element) -> Element:
    """Lie bracket, bilinear over the monomials of both arguments.  Over
    GF(2), [e1, e2] = [e2, e1], so the kernel runs once per monomial of the
    smaller one."""
    a, b = (e1, e2) if len(e1) <= len(e2) else (e2, e1)
    acc: set[Monomial] = set()
    for m1 in a:
        for part in bracket_each(m1, b):
            # each part holds distinct monomials, so this sums over GF(2)
            acc.symmetric_difference_update(part)
    return Element(acc)


def square(e: Element | PivotGroups) -> Element | PivotGroups:
    """p-th power (p = 2) through the pivot grouping e = sum_n R_n v_n:

        e^2 = sum_m e(R_m) v_m + sum_{n<m} R_n R_m [v_n, v_m] + sum_{1 in R_n} v_n^2

    so each v_n(R_m) is computed once per pivot pair.  Pivot groups give
    pivot groups; an Element is grouped on the way in and rebuilt on the
    way out.
    """
    groups = e if isinstance(e, PivotGroups) else pivot_groups(e)
    acc: defaultdict[int, set[int]] = defaultdict(set)
    for m, tails in groups.items():
        acc[m] ^= _apply_groups(groups, tails)
        if 0 in tails:
            # (1 v_m)^2 = t_{m-1} v_{m+2}; r^2 = 0 for every other tail
            _check_index(m - 1)
            acc[m + 2] ^= {1 << (m - 1)}
    pivots = sorted(groups)
    for i, n in enumerate(pivots):
        rn = groups[n]
        for m in pivots[i + 1 :]:
            rm = groups[m]
            # R_n R_m [v_n, v_m] has a term only where two tails are disjoint;
            # past the ceiling, where P would raise, test that before building P
            if m - 3 >= LIMITS.index_ceiling and all(a & b for a in rn for b in rm):
                continue
            pmask = _commutator_tail(n, m)
            ra = [a for a in rn if not a & pmask]
            rb = [b for b in rm if not b & pmask]
            if ra and rb:
                acc[m + 1] ^= {q | pmask for q in ring_mul(ra, rb)}
    out = PivotGroups((p, tails) for p, tails in acc.items() if tails)
    return out if isinstance(e, PivotGroups) else out.element()


def monomial_cap(limit: int | None) -> int:
    """The monomial limit of one computation: ``limit``, or the global one."""
    if limit is not None and limit < 1:
        raise InputError(f"monomial limit must be >= 1, got {limit}")
    return LIMITS.monomial_limit if limit is None else limit


def check_cap(count: int, what: str, limit: int | None = None) -> None:
    """Raise ``MonomialLimitError`` when ``count`` (of ``what``, for the
    message) exceeds ``monomial_cap(limit)``: the package's one comparison
    against the monomial limit and its one wording of the error."""
    cap = monomial_cap(limit)
    if count > cap:
        # by its size past 64 bits: Python prints no int of over 4300 digits
        shown = count if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"
        raise MonomialLimitError(f"{shown} {what} exceed the monomial limit {cap}")


def power_2k(e: Element, k: int) -> Element:
    """e^(2^k) by iterated squaring, stopping at zero; k = 0 is the identity."""
    if k < 0:
        raise InputError("exponent count must be >= 0")
    power = pivot_groups(e)
    for _ in range(k):
        if not power:
            break
        power = square(power)
        check_cap(len(power), "monomials in an intermediate element")
    return power.element()


def tau(e: Element, k: int = 1) -> Element:
    """Shift endomorphism: every t-index and pivot index raised by k."""
    if k < 0:
        raise InputError("shift count must be >= 0")
    if k == 0:
        return e
    out = set()
    for n, r in e:
        shifted = r << k
        if shifted:
            _check_index(shifted.bit_length() - 1)
        out.add(Monomial(n + k, shifted))
    return Element(out)


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
    return all(is_basis_monomial(m) != "non-basis" for m in e)


# --- canonical text form: "t0*t1*v5", "0", "+"-separated terms -------------
# Output only: fiblie.expr.eval_text is the package's one parser of it.


def format_monomial(m: Monomial) -> str:
    parts = [f"t{i}" for i in set_bits(m.tail)]
    parts.append(f"v{m.pivot}")
    return "*".join(parts)


def format_element(e: Element) -> str:
    if not e:
        return "0"
    return " + ".join(format_monomial(m) for m in sorted(e))


def format_ring_monomial(mask: RingMonomial) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"t{i}" for i in set_bits(mask))
