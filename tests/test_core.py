"""Unit tests for the monomial calculus engine."""

from __future__ import annotations

import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiblie import core
from fiblie.basis import enumerate_W_upto
from fiblie.core import (
    Element,
    IndexCeilingError,
    InputError,
    LIMITS,
    Monomial,
    MonomialLimitError,
    RING_ZERO,
    ZERO,
    _CONV_MAX_WIDTH,
    _action_masks,
    _build_masks,
    _check_index,
    _commutator_tail,
    _subset_convolution,
    apply,
    bracket,
    bracket_each,
    bracket_monomials,
    element,
    format_element,
    is_basis_monomial,
    monomial,
    power_2k,
    ring_monomial,
    ring_mul,
    set_bits,
    square,
    tau,
    v,
)
from fiblie.expr import ParseError, eval_text

RING_ONE = frozenset({0})  # the ring's unit: the one empty tail

W8 = [m for level in enumerate_W_upto(8, "restricted") for m in level]
W9 = [m for level in enumerate_W_upto(9, "restricted") for m in level]

elements = st.lists(st.sampled_from(W8), min_size=0, max_size=3).map(element)
ring_elems = st.lists(
    st.lists(st.integers(0, 9), max_size=3).map(lambda ix: ring_monomial(set(ix))),
    max_size=3,
).map(frozenset)


def _toggle(acc: set, item) -> None:
    """Oracle: add one GF(2) term to acc."""
    if item in acc:
        acc.remove(item)
    else:
        acc.add(item)


def _range_mask(lo: int, hi: int) -> int:
    """Oracle: the mask of t_lo ... t_hi, the empty product (mask 0) when
    lo > hi; past the index ceiling it raises, as the engine does."""
    if lo > hi:
        return 0
    _check_index(hi)
    return ((1 << (hi - lo + 1)) - 1) << lo


def test_pivot_bracket_examples():
    assert format_element(bracket(v(1), v(2))) == "v3"
    assert bracket(v(3), v(3)) == ZERO
    assert format_element(bracket(v(1), v(4))) == "t0*t1*v5"
    assert bracket(v(4), v(1)) == bracket(v(1), v(4))


def test_fibonacci_recursion():
    for i in range(1, 31):
        assert bracket(v(i), v(i + 1)) == v(i + 2)


def test_pivot_action_examples():
    assert apply(v(2), frozenset({1 << 2})) == RING_ONE
    assert apply(v(5), frozenset({1 << 3})) == RING_ZERO
    assert apply(v(1), frozenset({1 << 3})) == frozenset({ring_monomial({0, 1})})


def test_pivot_closed_forms_match_the_engine():
    # [v_i, v_j] = t_{i-1} ... t_{j-3} v_{j+1} (i < j) and
    # v_n(t_j) = t_{n-1} ... t_{j-2} | 1 | 0 (n < j | n = j | n > j)
    for i in range(1, 41):
        for j in range(1, 41):
            lo, hi = min(i, j), max(i, j)
            closed = ZERO if i == j else Element(
                frozenset({Monomial(hi + 1, _range_mask(lo - 1, hi - 3))})
            )
            assert bracket(v(i), v(j)) == closed, (i, j)
    for n in range(1, 41):
        for j in range(41):
            if n > j:
                closed = RING_ZERO
            elif n == j:
                closed = RING_ONE
            else:
                closed = frozenset({_range_mask(n - 1, j - 2)})
            assert apply(v(n), frozenset({1 << j})) == closed, (n, j)


def test_apply_examples():
    t2 = frozenset({ring_monomial({2})})
    assert apply(v(1), frozenset({ring_monomial({3})})) == frozenset(
        {ring_monomial({0, 1})}
    )
    assert apply(v(2), frozenset({ring_monomial({0})})) == RING_ZERO
    assert apply(v(1) + v(2), t2) == frozenset({0, ring_monomial({0})})  # 1 + t0


def test_bracket_examples():
    assert bracket(v(1), v(2)) == v(3)
    assert bracket(v(3), v(3)) == ZERO
    assert format_element(bracket(v(2), eval_text("t0*v4"))) == "t0*t1*v5"


def test_square_examples():
    assert format_element(square(v(1))) == "t0*v3"
    assert square(eval_text("t0*v3")) == ZERO
    assert square(v(1) + v(2)) == eval_text("v3 + t0*v3 + t1*v4")


def test_power_examples():
    assert power_2k(v(1), 2) == ZERO
    assert power_2k(v(1), 0) == v(1)
    assert power_2k(v(1), 1) == eval_text("t0*v3")


def test_power_stops_at_zero():
    # v_1^4 = 0, so no squaring past the second is made
    start = time.perf_counter()
    assert power_2k(v(1), 10**9) == ZERO
    assert time.perf_counter() - start < 1.0


def test_power_cap(monkeypatch):
    monkeypatch.setattr(LIMITS, "monomial_limit", 2)
    with pytest.raises(MonomialLimitError):
        power_2k(element(W8[:20]), 3)


def test_tau_examples():
    assert tau(v(1), 1) == v(2)
    assert tau(eval_text("t0*v4"), 2) == eval_text("t2*v6")
    assert tau(ZERO, 5) == ZERO


def test_tau_is_bracket_homomorphism():
    a = eval_text("t0*v4 + v3")
    b = eval_text("t1*v5 + v2")
    assert tau(bracket(a, b), 3) == bracket(tau(a, 3), tau(b, 3))
    assert tau(square(a), 3) == square(tau(a, 3))


def test_is_basis_monomial():
    assert is_basis_monomial(monomial(5, [0])) == "standard"
    assert is_basis_monomial(monomial(3, [0])) == "square"
    assert is_basis_monomial(monomial(3, [1])) == "non-basis"
    assert is_basis_monomial(monomial(1)) == "standard"
    assert is_basis_monomial(monomial(7, [4])) == "square"


def test_index_ceiling():
    with pytest.raises(IndexCeilingError):
        monomial(4, [200])
    with pytest.raises(IndexCeilingError):
        tau(eval_text("t100*v200"), 30)
    with pytest.raises(IndexCeilingError):
        bracket(v(200), v(1))
    with pytest.raises(IndexCeilingError):
        square(v(129))  # v_129^2 = t_128 v_131
    with pytest.raises(IndexCeilingError):
        square(v(1) + v(200))  # [v_1, v_200] = t_0 ... t_197 v_201
    with pytest.raises(IndexCeilingError):
        bracket(v(1), v(200))
    with pytest.raises(IndexCeilingError):
        bracket_monomials(Monomial(1, 0), Monomial(2, 1 << 131))  # v_1(t_131) = t_0 ... t_129
    # [v_i, v_{i+1}] = v_{i+2} has an empty tail, so no ceiling applies,
    # in a bracket or in a square: (t0 v_130 + t1 v_131)^2 = [t0 v_130, t1 v_131]
    assert bracket(v(130), v(131)) == v(132)
    a, b = eval_text("t0*v130"), eval_text("t1*v131")
    assert square(a + b) == bracket(a, b) == eval_text("t0*t1*v132")


def test_colliding_tails_never_meet_the_ceiling():
    # [t0 v_1, t0 v_200] would carry t_0 ... t_197, but t_0^2 = 0 kills the
    # term before its tail is formed, in a bracket and in a square
    a, b = eval_text("t0*v1"), eval_text("t0*v200")
    assert bracket(a, b) == ZERO
    assert square(a + b) == ZERO
    # nor is that tail built: 10^9 bits would take 125 MB
    far = eval_text("t0*v1000000000")
    tracemalloc.start()
    try:
        assert square(a + far) == ZERO
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_canonical_order_and_roundtrip():
    e = eval_text("t1*v4 + v3 + t0*t1*v5")
    assert format_element(e) == "v3 + t1*v4 + t0*t1*v5"
    assert eval_text(format_element(e)) == e


def test_results_are_elements():
    a, b = eval_text("t0*t1*v5 + v3"), v(2)
    results = [
        v(1),
        element([Monomial(3, 0)]),
        bracket(a, b),
        bracket(v(1), v(1)),  # zero
        square(a),
        tau(a, 2),
        eval_text("[v1,v2,v3^3]+t0*t2*v7"),
        a + b,
    ]
    assert all(isinstance(x, Element) for x in results)


def test_element_is_the_frozenset_of_its_monomials():
    e = eval_text("t1*v4 + v3 + t0*t1*v5")
    m = Monomial(3, 0)
    assert isinstance(e, frozenset) and e.monomials is e
    assert e == frozenset(e) and ZERO == frozenset()
    assert e + e == ZERO
    # element() sums over GF(2); Element() takes distinct monomials
    assert element([m, m]) == ZERO
    assert Element([m, m]) == {m}
    # the set operators give plain frozensets, + gives an Element
    for op in (e ^ v(3), e | v(3), e & v(3)):
        assert type(op) is frozenset
    assert type(e + v(3)) is Element and e + v(3) == e ^ v(3)
    # iteration is unordered; sorted() is the canonical (pivot, tail) order
    assert sorted(e) == [Monomial(3, 0), Monomial(4, 0b10), Monomial(5, 0b11)]
    assert e.pivot_range() == (3, 5)
    with pytest.raises(InputError):
        ZERO.pivot_range()


def test_parse_rejects_malformed():
    # t0*t0*v4 is no longer malformed: t_0^2 = 0 makes it the zero element
    for bad in ("t0v3", "v", "v0 x"):
        with pytest.raises(ParseError):
            eval_text(bad)


@settings(max_examples=300, deadline=None)
@given(elements)
def test_alternation(e):
    assert bracket(e, e) == ZERO


@settings(max_examples=300, deadline=None)
@given(elements, elements, elements)
def test_jacobi(a, b, c):
    total = (
        bracket(bracket(a, b), c)
        + bracket(bracket(b, c), a)
        + bracket(bracket(c, a), b)
    )
    assert total == ZERO


@settings(max_examples=300, deadline=None)
@given(elements, elements)
def test_restricted_identity(a, b):
    assert bracket(square(a), b) == bracket(a, bracket(a, b))


@settings(max_examples=200, deadline=None)
@given(elements, elements, st.integers(0, 4))
def test_shift_homomorphism(a, b, k):
    assert tau(bracket(a, b), k) == bracket(tau(a, k), tau(b, k))
    assert tau(square(a), k) == square(tau(a, k))


@settings(max_examples=200, deadline=None)
@given(elements, elements)
def test_closure_of_basis_span(a, b):
    for m in bracket(a, b).monomials | square(a).monomials:
        assert is_basis_monomial(m) != "non-basis"


@settings(max_examples=200, deadline=None)
@given(elements, ring_elems, ring_elems)
def test_derivation_law(e, r, s):
    from fiblie.core import ring_mul

    lhs = apply(e, ring_mul(r, s))
    rhs = ring_mul(apply(e, r), s) ^ ring_mul(r, apply(e, s))
    assert lhs == rhs


# --- oracle: the monomial-pairwise square (sum of monomial squares plus
# the bracket of every unordered monomial pair) -----------------------------


def _square_mono(m: Monomial, acc: set[Monomial]) -> None:
    # (r v_n)^2 = r v_n(r) v_n + r^2 v_n^2, and r^2 = 0 unless r = 1
    n, r = m
    if r == 0:
        _check_index(n - 1)
        _toggle(acc, Monomial(n + 2, 1 << (n - 1)))
        return
    if r & (r - 1):
        # at least two tail factors: every Leibniz term of r*v_n(r) collides
        return
    j = r.bit_length() - 1
    if n > j:
        return
    if n == j:
        _toggle(acc, Monomial(n, r))
        return
    am = _range_mask(n - 1, j - 2)
    _toggle(acc, Monomial(n, am | r))


def _bracket_mono(m1: Monomial, m2: Monomial, acc: set[Monomial]) -> None:
    """Oracle: [m1, m2] toggled into acc, one pair at a time, by the Leibniz
    rule [r v_n, s v_m] = r v_n(s) v_m + s v_m(r) v_n + r s [v_n, v_m]."""
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
        pmask = _commutator_tail(i, j)
        rs = r | s
        if not (pmask & rs):
            _toggle(acc, Monomial(j + 1, pmask | rs))


def _oracle_bracket(m1: Monomial, m2: Monomial) -> set[Monomial]:
    acc: set[Monomial] = set()
    _bracket_mono(m1, m2, acc)
    return acc


def test_bracket_each_matches_the_pairwise_oracle_on_mixed_runs():
    rng = random.Random(2020)
    by_pivot: dict[int, list[Monomial]] = {}
    for m in W8:
        by_pivot.setdefault(m.pivot, []).append(m)
    for _ in range(300):
        # runs of one pivot each, pivots repeated and out of order
        others = [
            m
            for p in rng.choices(sorted(by_pivot), k=rng.randint(1, 6))
            for m in rng.choices(by_pivot[p], k=rng.randint(1, 5))
        ]
        for m1 in rng.sample(W8, 4):
            got = list(bracket_each(m1, others))
            assert len(got) == len(others)
            for m2, res in zip(others, got):
                assert len(set(res)) == len(res), (m1, m2)
                assert set(res) == _oracle_bracket(m1, m2), (m1, m2)


def test_bracket_each_same_pivot_and_empty_runs():
    # k = n: the parts r v_n(s) and s v_n(r) meet and cancel
    t5v5 = Monomial(5, 1 << 5)
    assert list(bracket_each(t5v5, [t5v5])) == [[]]
    # [t_5 v_5, t_6 v_5] = t_4 t_5 v_5 + t_6 v_5, and the run repeats after v_3
    others = [(5, 1 << 6), (3, 0), (5, 1 << 6), (5, 1 << 5)]
    got = list(bracket_each(t5v5, others))
    assert [sorted(res) for res in got] == [sorted(_oracle_bracket(t5v5, m)) for m in others]
    assert set(got[0]) == {Monomial(5, 0b110000), Monomial(5, 1 << 6)}
    assert list(bracket_each(t5v5, [])) == []
    assert list(bracket_each(Monomial(1000, 1 << 999), ())) == []


def pairwise_square(e: Element) -> Element:
    """p-th power (p = 2): sum of monomial squares plus pairwise brackets."""
    acc: set[Monomial] = set()
    mons = list(e.monomials)
    for m in mons:
        _square_mono(m, acc)
    for m1, m2 in combinations(mons, 2):
        _bracket_mono(m1, m2, acc)
    return Element(acc)


def test_square_matches_pairwise_oracle_on_pivot_intervals():
    for m in range(1, 10):
        e = element(monomial(k) for k in range(1, m + 1))
        while e:
            sq = square(e)
            assert sq == pairwise_square(e)
            e = sq


def test_square_matches_pairwise_oracle_on_random_elements():
    rng = random.Random(2410)
    for _ in range(1000):
        e = element(rng.sample(W9, rng.randint(1, 8)))
        assert square(e) == pairwise_square(e)


def _random_ring_element(rng: random.Random) -> frozenset[int]:
    return frozenset(
        ring_monomial(rng.sample(range(12), rng.randint(0, 4)))
        for _ in range(rng.randint(1, 4))
    )


def test_square_and_bracket_match_the_derivation_definition():
    # e^2 and [a, b] as derivations of R: e(e(r)) and a(b(r)) + b(a(r))
    rng = random.Random(832)
    for _ in range(1000):
        a = element(rng.sample(W9, rng.randint(1, 4)))
        b = element(rng.sample(W9, rng.randint(1, 4)))
        r = _random_ring_element(rng)
        assert apply(square(a), r) == apply(a, apply(a, r))
        assert apply(bracket(a, b), r) == apply(a, apply(b, r)) ^ apply(b, apply(a, r))


# --- oracle: v_n on a ring monomial by the Leibniz rule over every factor ----


def _action_masks_leibniz(n: int, smask: int) -> list[int]:
    """Masks of v_n applied to the ring monomial smask (Leibniz over factors)."""
    out = []
    s = smask
    while s:
        lsb = s & -s
        j = lsb.bit_length() - 1
        s ^= lsb
        rest = smask ^ lsb
        if n == j:
            out.append(rest)
        elif n < j:
            m = _range_mask(n - 1, j - 2)
            if not (m & rest):
                out.append(rest | m)
        # n > j: v_n(t_j) = 0
    return out


def _action_outcome(action, n: int, s: int) -> set[int] | None:
    """The set of output masks, or None when the action meets the ceiling."""
    try:
        return set(action(n, s))
    except IndexCeilingError:
        return None


def test_action_masks_match_leibniz_oracle_on_every_small_tail():
    for n in range(1, 15):
        for s in range(1 << 14):
            assert set(_action_masks(n, s)) == set(_action_masks_leibniz(n, s)), (n, s)


def test_action_masks_match_leibniz_oracle_on_wide_tails():
    rng = random.Random(1212)
    for _ in range(20000):
        n, s = rng.randint(1, 120), rng.getrandbits(rng.randint(1, 126))
        assert set(_action_masks(n, s)) == set(_action_masks_leibniz(n, s)), (n, s)
    # past the ceiling both raise on the same tails
    raised = 0
    for _ in range(20000):
        n, s = rng.randint(1, 140), rng.getrandbits(rng.randint(120, 140))
        out = _action_outcome(_action_masks, n, s)
        assert out == _action_outcome(_action_masks_leibniz, n, s), (n, s)
        raised += out is None
    assert raised > 1000


# --- oracle: the set bits of an int by clearing the lowest one at a time ----


def _set_bits_low_first(v: int) -> list[int]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def test_set_bits_matches_the_low_bit_loop():
    rng = random.Random(4096)
    values = [0, 1, (1 << 4096) - 1, 1 << 4095]
    values += [rng.getrandbits(rng.randint(1, 4096)) for _ in range(500)]
    for value in values:
        assert set_bits(value) == _set_bits_low_first(value)


# --- oracle: the product in R by testing every pair of tails ---------------


def _pairwise_ring_mul(r, s) -> frozenset[int]:
    acc: set[int] = set()
    for a in r:
        for b in s:
            if not a & b:
                _toggle(acc, a | b)
    return frozenset(acc)


def _window(r, s) -> tuple[int, int]:
    """(z, w): the tails of r and s lie in t_z ... t_{z+w-1}."""
    span = 0
    for a in (*r, *s):
        span |= a
    z = (span & -span).bit_length() - 1 if span else 0
    return z, (span >> z).bit_length()


def _random_tails(rng: random.Random, count: int, width: int, shift: int) -> frozenset[int]:
    # AND of two draws: tails of every rank, most of them below width / 2
    return frozenset(
        (rng.getrandbits(width) & rng.getrandbits(width)) << shift for _ in range(count)
    )


def test_build_masks_match_their_definition():
    for w in range(8):
        low, pop = _build_masks(w)
        for j in range(w):
            assert low[j] == sum(1 << a for a in range(1 << w) if not a >> j & 1)
        for k in range(w + 1):
            assert pop[k] == sum(1 << a for a in range(1 << w) if a.bit_count() == k)


def test_subset_convolution_matches_pairwise_oracle():
    rng = random.Random(1607)
    cases = []
    for _ in range(300):
        width = rng.randint(0, 16)
        cases.append(
            (
                _random_tails(rng, rng.randint(1, 80), width, rng.randint(0, 6)),
                _random_tails(rng, rng.randint(1, 80), width, rng.randint(0, 6)),
            )
        )
    # empty operands, single tails, the tail 1 alone
    cases += [
        (frozenset(), frozenset({0b1011})),
        (frozenset({0b1011}), frozenset()),
        (frozenset({0b0100}), frozenset({0b1011})),
        (frozenset({0b0110}), frozenset({0b0011})),
        (frozenset({0}), frozenset({0})),
        (frozenset({0}), frozenset({0b101, 0b11})),
    ]
    # rank sums past w: dense tails of rank near w on both sides
    full = (1 << 10) - 1
    dense = frozenset(full ^ (1 << i) for i in range(10)) | {full, full ^ 0b11}
    cases.append((dense, dense))
    cases.append((dense, frozenset(range(1 << 4))))
    # every tail far above t_0, up to just below the index ceiling
    for shift in (64, 100, 127 - 16):
        cases.append(
            (
                _random_tails(rng, 60, 16, shift) | {1 << shift},
                _random_tails(rng, 60, 16, shift),
            )
        )
    for r, s in cases:
        z, w = _window(r, s)
        assert _subset_convolution(tuple(r), tuple(s), z, w) == _pairwise_ring_mul(r, s)
        assert ring_mul(r, s) == _pairwise_ring_mul(r, s)


def test_ring_mul_matches_pairwise_oracle_on_both_sides_of_the_dispatch(monkeypatch):
    widths = []

    def convolution(r, s, z, w):
        widths.append(w)
        return _subset_convolution(r, s, z, w)

    monkeypatch.setattr(core, "_subset_convolution", convolution)
    rng = random.Random(1608)
    for count in (4, 30, 100, 400):
        for width in (6, 12, 20, _CONV_MAX_WIDTH + 2):
            r = _random_tails(rng, count, width, 3)
            s = _random_tails(rng, count, width, 3)
            assert ring_mul(r, s) == _pairwise_ring_mul(r, s), (count, width)
    # small operands and wide windows stay on the pair loop
    assert 0 < len(widths) < 16 and max(widths) <= 12
