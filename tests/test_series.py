"""Unit tests for lattice series, the enveloping operator, and Euler data."""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from fiblie.core import LIMITS, InputError, MonomialLimitError
from fiblie.grading import GoldenInt, LAMBDA, _fold_level, gr, lambda_power, weight_growth_levels
from fiblie import series as series_mod
from fiblie.basis import enumerate_W_upto
from fiblie.series import (
    LatticeSeries,
    SupportError,
    _exterior_1var,
    _factor_product,
    _hilbert_upper,
    _slot_width,
    _sweep_down,
    _trimmed_rows,
    e_operator,
    e_operator_1var,
    euler_eval_check,
    euler_inverse_check,
    euler_inverse_mismatch,
    euler_product,
    euler_product_1var,
    enveloping_growth_report,
    hilbert_enumerated,
    hilbert_lie,
    hilbert_one_var,
    hilbert_recursive,
    level_multidegree_counts,
    levels_for_degree,
    min_level_degree,
)


def series(d: dict, bound: int) -> LatticeSeries:
    return LatticeSeries(dict(d), bound)


def test_level_counts_match_enumeration():
    for n in range(1, 12):
        counts: dict = {}
        for m in enumerate_W_upto(n)[-1]:
            key = tuple(gr(m))
            counts[key] = counts.get(key, 0) + 1
        assert counts == level_multidegree_counts(n)


def test_min_level_degree():
    assert [min_level_degree(n) for n in range(1, 8)] == [1, 1, 2, 3, 4, 6, 9]
    assert levels_for_degree(10) == list(range(1, 8))


def test_hilbert_enumerated_examples():
    assert hilbert_enumerated(2, "lie", 10).coeffs == {(1, 0): 1, (0, 1): 1}
    assert hilbert_enumerated(3, "lie", 10).coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    for n in range(3, 10):
        total = sum(hilbert_enumerated(n, "lie", 100).coeffs.values())
        assert total == 1 + 2 ** (n - 2)


def test_hilbert_enumerated_stops_at_the_last_level_under_the_bound():
    for kind in ("lie", "restricted"):
        deep = max(levels_for_degree(40, kind))
        start = time.perf_counter()
        wide = hilbert_enumerated(100000, kind, bound=40)
        assert time.perf_counter() - start < 1.0
        assert wide == hilbert_enumerated(deep, kind, bound=40)
    # a small upto still needs no level past it, however large the bound
    assert hilbert_enumerated(3, "lie", 10**9).coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    # at bound 2 the restricted walk keeps level 4 for its square v_2^2 at
    # (0, 2), while W_4 itself starts at degree 3
    low = {(1, 0): 1, (0, 1): 1}
    two = {**low, (1, 1): 1, (2, 0): 1, (0, 2): 1}
    three = {**two, (1, 2): 1, (2, 1): 1}
    for bound, coeffs in enumerate([{}, low, two, three, three]):
        assert hilbert_enumerated(4, "restricted", bound).coeffs == coeffs


def test_hilbert_recursive_examples():
    assert hilbert_recursive(3, 10).coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    for n in range(2, 16):
        assert hilbert_recursive(n, 40) == hilbert_enumerated(n, "lie", 40)
    h = hilbert_recursive(15, 40)
    for n in range(1, 9):
        assert h[tuple(gr_pivot_pair(n))] >= 1
    # through degree 12 with W_{<=12}, and at degree 0, which no level reaches
    assert hilbert_recursive(12, 12) == hilbert_enumerated(12, "lie", 12)
    assert hilbert_recursive(2, 0) == hilbert_lie(0)
    assert hilbert_lie(0).coeffs == {}


def hilbert_recursive_full_loop(upto: int, bound: int) -> LatticeSeries:
    """Test oracle: the functional recursion run for all upto - 2 rounds."""
    coeffs = {(1, 0): 1, (0, 1): 1}
    for _ in range(upto - 2):
        substituted: dict = {}
        for (a, b), c in coeffs.items():
            if a + 2 * b <= bound:
                substituted[(b, a + b)] = substituted.get((b, a + b), 0) + c
        nxt = dict(substituted)
        for (a, b), c in substituted.items():
            nxt[(a + 1, b - 1)] = nxt.get((a + 1, b - 1), 0) + c
        nxt[(2, 0)] = nxt.get((2, 0), 0) - 1
        coeffs = nxt
    return LatticeSeries(coeffs, bound)


def test_hilbert_recursive_stops_at_the_last_level_under_the_bound():
    for bound in (0, 1, 2, 5, 13, 40):
        for upto in range(2, 25):
            assert hilbert_recursive(upto, bound) == hilbert_recursive_full_loop(upto, bound)
    start = time.perf_counter()
    assert hilbert_recursive(10**9, 40) == hilbert_recursive(20, 40)
    assert time.perf_counter() - start < 1.0


def gr_pivot_pair(n):
    from fiblie.grading import gr_pivot

    return gr_pivot(n)


def test_hilbert_strip_support():
    h = hilbert_lie(30)
    lam3 = GoldenInt(1, 2)
    lam2 = GoldenInt(1, 1)
    for (a, b) in h.coeffs:
        lower = GoldenInt(b, 0) - LAMBDA * a + lam3
        upper = LAMBDA * a + lam2 - GoldenInt(b, 0)
        assert lower.sign() > 0 and upper.sign() > 0


def test_e_operator_examples():
    free2 = e_operator(series({(1, 0): 1, (0, 1): 1}, 2))
    assert free2.coeffs == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (2, 0): 1,
        (1, 1): 1,
        (0, 2): 1,
    }
    env2 = e_operator(hilbert_lie(2))
    assert env2[(1, 1)] == 2 and env2[(2, 0)] == 1 and env2[(0, 2)] == 1


def test_e_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        e_operator(series({(0, 0): 1}, 4))
    with pytest.raises(ValueError):
        e_operator(series({(1, 0): -1}, 4))
    with pytest.raises(SupportError):
        series({(-1, 2): 1}, 4)  # refused before E could see it
    for h in ([1, 2, 0, 0, 0], [0, 1, -1], []):
        with pytest.raises(InputError):
            e_operator_1var(h)


def e_operator_exp(h: LatticeSeries) -> LatticeSeries:
    """Test oracle: E(h) = exp(sum_m h(x^m, y^m)/m) in exact rationals."""
    bound = h.bound
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
    assert all(c.denominator == 1 for c in result.values())
    return LatticeSeries({key: int(c) for key, c in result.items()}, bound)


def test_e_operator_product_equals_exp():
    for bound in (6, 12, 25):
        h = hilbert_lie(bound)
        assert e_operator(h) == e_operator_exp(h)


def test_euler_product_examples():
    assert euler_product(2).coeffs == {(0, 0): 1, (1, 0): -1, (0, 1): -1}
    assert euler_product(6)[(1, 1)] == 0
    # direct low-degree expansion
    prod = euler_product(2) * e_operator(hilbert_lie(2))
    assert prod.coeffs == {(0, 0): 1}


def test_euler_product_matches_factor_oracle():
    # level 9 starts at degree F_8 + 1 = 22, so levels 1..9 hold every
    # basis monomial of total degree <= 14
    multidegrees = [tuple(gr(m)) for level in enumerate_W_upto(9) for m in level]
    for bound in range(15):
        expected = LatticeSeries({(0, 0): 1}, bound)
        for a, b in multidegrees:
            if a + b <= bound:
                expected = expected * LatticeSeries({(0, 0): 1, (a, b): -1}, bound)
        assert euler_product(bound) == expected


def dict_pair_product(s: LatticeSeries, t: LatticeSeries) -> LatticeSeries:
    """Test oracle: every pair of terms, dropping the pairs past the smaller bound."""
    bound = min(s.bound, t.bound)
    out: dict[tuple[int, int], int] = {}
    for (a1, b1), c1 in s.coeffs.items():
        for (a2, b2), c2 in t.coeffs.items():
            a, b = a1 + a2, b1 + b2
            if a + b <= bound:
                out[(a, b)] = out.get((a, b), 0) + c1 * c2
    return LatticeSeries(out, bound)


def triangle(s: LatticeSeries, bound: int, depth: int) -> list[list[int]]:
    """Test oracle helper: the terms of ``s`` (a <= depth, a + b <= bound) on
    the dense triangle rows[a][b]."""
    rows = [[0] * (bound + 1 - a) for a in range(depth + 1)]
    for (a, b), c in s.coeffs.items():
        if a + b <= bound:
            rows[a][b] = c
    return rows


def from_triangle(rows: list[list[int]], bound: int) -> LatticeSeries:
    return LatticeSeries(
        {(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row)}, bound
    )


def triangle_factor_product(factors: LatticeSeries, sign: int) -> LatticeSeries:
    """Test oracle: the factor product cell by cell on the dense triangle.

    Each factor f visits the points p >= f: multiplying by (1 - x^f) sweeps
    downwards, so out[p] -= out[p - f] reads the old value; dividing by it
    sweeps upwards, so out[p] += out[p - f] reads the new one."""
    bound = factors.bound
    depth = bound if any(a for a, _ in factors.coeffs) else 0
    rows = triangle(LatticeSeries({(0, 0): 1}, bound), bound, depth)
    for (fa, fb), c in factors.coeffs.items():
        for _ in range(c):
            if sign > 0:
                for a in range(depth, fa - 1, -1):
                    row, src = rows[a], rows[a - fa]
                    for b in range(len(row) - 1, fb - 1, -1):
                        row[b] -= src[b - fb]
            else:
                for a in range(fa, depth + 1):
                    row, src = rows[a], rows[a - fa]
                    for b in range(fb, len(row)):
                        row[b] += src[b - fb]
    return from_triangle(rows, bound)


def triangle_product(s: LatticeSeries, t: LatticeSeries) -> LatticeSeries:
    """Test oracle: each term (a1, b1) of ``s`` adds its multiple of the rows
    a2 <= bound - a1 - b1 of ``t``'s dense triangle."""
    bound = min(s.bound, t.bound)
    right = triangle(t, bound, bound)
    out = triangle(LatticeSeries(), bound, bound)
    for (a1, b1), c1 in s.coeffs.items():
        for a2 in range(bound - a1 - b1 + 1):
            row = out[a1 + a2]
            row[b1:] = [x + c1 * y for x, y in zip(row[b1:], right[a2])]
    return from_triangle(out, bound)


def test_factor_product_matches_the_triangle_oracle():
    for bound in range(61):
        h = hilbert_lie(bound)
        for sign in (1, -1):
            assert _factor_product(h, sign) == triangle_factor_product(h, sign)


def test_factor_product_matches_the_triangle_oracle_on_random_counts():
    rng = random.Random(22)
    for trial in range(120):
        bound = rng.randint(0, 20)
        # every third series keeps a = 0: one slot per row
        depth = 0 if trial % 3 == 0 else bound
        coeffs = {}
        for _ in range(rng.randint(0, 8)):
            d = rng.randint(1, max(bound, 1))
            a = rng.randint(0, min(d, depth))
            coeffs[(a, d - a)] = rng.randint(0, 4)
        factors = LatticeSeries(coeffs, bound)
        for sign in (1, -1):
            assert _factor_product(factors, sign) == triangle_factor_product(factors, sign)


def test_offset_rows_lower_an_offset_after_the_row_holds_terms():
    # (1 - x^2 y) puts row 3's first term at slot 2; (1 - y^3) then adds one
    # at slot 0, below it: (1 - x^2 y)(1 - y^3) = 1 - x^2 y - y^3 + x^2 y^4
    rows, offsets = _sweep_down([(2, 3, 1), (0, 3, 1)], 8, 6)
    assert (offsets[3], rows[3]) == (0, -1 - (1 << 16))
    assert (offsets[6], rows[6]) == (2, 1)
    for coeffs in ({(2, 1): 1, (0, 3): 1}, {(3, 0): 2, (1, 1): 1, (0, 2): 3, (2, 2): 1}):
        factors = LatticeSeries(coeffs, 12)
        assert _factor_product(factors, 1) == triangle_factor_product(factors, 1)


def exterior_1var_brute(h: list[int]) -> list[int]:
    """Test oracle: prod over degrees d of (1 + t^d)^h[d], one factor at a time."""
    out = [1] + [0] * (len(h) - 1)
    for d, c in enumerate(h):
        for _ in range(c):
            out = [x + (out[k - d] if k >= d else 0) for k, x in enumerate(out)]
    return out


def test_exterior_width_holds_the_euler_product():
    for bound in range(61):
        h = hilbert_one_var(bound)
        assert _exterior_1var(h, e_operator_1var(h)) == exterior_1var_brute(h)
    h = hilbert_one_var(200)
    width = _slot_width(max(_exterior_1var(h, e_operator_1var(h))).bit_length())
    assert max(map(abs, euler_product(200).coeffs.values())) < 2 ** (width - 1)
    # narrower than slots sized by the one-variable envelope
    assert width < _slot_width(max(e_operator_1var(h)).bit_length())


def test_euler_inverse_mismatch_names_the_first_wrong_cell(monkeypatch):
    # E' = E + x^p makes E' * H(U) = 1 + x^p H(U): its first cell off 1 is p,
    # as H(U) is 1 at the origin; a corrupted envelope shows the same way
    good_e, good_u = euler_product(30), e_operator(hilbert_lie(30))
    for cell in ((4, 7), (0, 1), (12, 0), (9, 21)):
        for name, good in (("euler_product", good_e), ("e_operator", good_u)):
            corrupted = LatticeSeries({**good.coeffs, cell: good[cell] + 1}, 30)
            with monkeypatch.context() as m:
                m.setattr(series_mod, name, lambda *args: corrupted)
                assert euler_inverse_mismatch(30) == cell
    assert euler_inverse_mismatch(30) is None


def test_euler_product_of_degree_400_runs_on_rows():
    # about 0.4 s on offset rows, 1.2 s on full rows and 7 s cell by cell
    # (2-vCPU VM, Python 3.11)
    start = time.perf_counter()
    euler_product(400)
    assert time.perf_counter() - start < 4.0


def random_quadrant_series(rng: random.Random) -> LatticeSeries:
    bound = rng.randint(0, 12)
    coeffs = {}
    for _ in range(rng.randint(0, 15)):
        a = rng.randint(0, bound)
        coeffs[(a, rng.randint(0, bound - a))] = rng.randint(-5, 5)
    return LatticeSeries(coeffs, bound)


def test_product_matches_pair_oracle():
    rng = random.Random(8)
    for _ in range(200):
        s, t = random_quadrant_series(rng), random_quadrant_series(rng)
        assert s * t == dict_pair_product(s, t) == triangle_product(s, t)
    empty = LatticeSeries({}, 6)
    s = series({(0, 0): 2, (1, 3): -1}, 6)
    assert s * empty == empty * s == empty
    assert s * LatticeSeries({(0, 0): 3}, 0) == LatticeSeries({(0, 0): 6}, 0)


def test_trimmed_rows_start_at_their_lowest_cell():
    # the second cell of row 4 lies below the first: the row is shifted up to it
    s = series({(0, 0): 1, (3, 0): 5, (3, 1): 2, (1, 3): -1, (5, 2): -2}, 9)
    assert _trimmed_rows(s, 9, 8) == [
        (0, 0, 1),
        (3, 24, 5),
        (4, 8, (2 << 16) - 1),
        (7, 40, -2),
    ]
    assert _trimmed_rows(s, 5, 8) == _trimmed_rows(s, 9, 8)[:3]


def test_trimmed_product_matches_pair_oracle():
    # rows whose only cell is at a = d, empty rows between, different bounds
    top = series({(0, 0): 1, (3, 0): 5, (6, 0): -2, (9, 0): 1}, 9)
    mixed = series({(2, 0): -3, (1, 4): 7, (5, 1): 2, (0, 6): 1, (8, 3): 4}, 12)
    one = series({(4, 0): 1}, 20)
    for x in (top, mixed, one):
        for y in (top, mixed, one):
            assert x * y == dict_pair_product(x, y) == triangle_product(x, y)
    rng = random.Random(39)
    for _ in range(200):
        # every row starts at a random slot, often at its top slot a = d
        bound = rng.randint(0, 12)
        coeffs = {}
        for _ in range(rng.randint(0, 10)):
            d = rng.randint(0, bound)
            a = rng.choice((d, rng.randint(d // 2, d)))
            coeffs[(a, d - a)] = rng.randint(-9, 9)
        s = LatticeSeries(coeffs, bound)
        t = random_quadrant_series(rng)
        assert s * t == t * s == dict_pair_product(s, t)


def test_product_of_wide_coefficients_matches_pair_oracle():
    rng = random.Random(100)
    top_signs = set()
    for _ in range(40):
        s, t = (
            LatticeSeries({k: rng.randint(-(2**100), 2**100) for k in u.coeffs}, u.bound)
            for u in (random_quadrant_series(rng), random_quadrant_series(rng))
        )
        product = s * t
        assert product == dict_pair_product(s, t)
        # the top slot of row d is a = d
        top_signs.update(c > 0 for (a, b), c in product.coeffs.items() if b == 0)
    assert top_signs == {False, True}


def test_product_slots_are_exactly_wide_enough():
    # bits(M) + bits(M) + bits(n) + 1 = 113 bits round up to 120, and 112
    # would already be whole bytes: a slot one bit short cannot hold n M^2,
    # the one cell at (0, n - 1) where all n pairs meet
    n, big = 255, 2**52 - 1
    x = LatticeSeries({(0, i): big for i in range(n)}, n - 1)
    for sign in (1, -1):
        y = LatticeSeries({(0, n - 1 - i): sign * big for i in range(n)}, n - 1)
        assert (x * y)[(0, n - 1)] == sign * n * big**2
        assert x * y == dict_pair_product(x, y)


def test_euler_times_envelope_matches_pair_oracle():
    for bound in range(41):
        e, h_u = euler_product(bound), e_operator(hilbert_lie(bound))
        assert e * h_u == dict_pair_product(e, h_u)


def test_product_rejects_off_quadrant_factor():
    # a factor off N0^2 cannot be made, so no product sees one
    for key in ((-1, 2), (2, -1), (-1, -1)):
        with pytest.raises(SupportError):
            series({key: 1}, 4)
    assert series({(-1, 2): 0, (3, -1): 1}, 1).coeffs == {}  # zeros and terms past the bound


def test_series_is_frozen_after_the_quadrant_check():
    # mutation would bypass the check made at construction
    s = series({(1, 0): 1}, 4)
    with pytest.raises(TypeError):
        s.coeffs[(-1, 2)] = 1
    for field, value in (("coeffs", {(-1, 2): 1}), ("bound", -1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, value)
    assert s.coeffs == {(1, 0): 1} and s.one_var() == [0, 1, 0, 0, 0]
    assert (s * s).coeffs == {(2, 0): 1}


def test_dense_triangle_is_held_to_the_monomial_limit(monkeypatch):
    # the triangle a + b <= bound has (bound + 1)(bound + 2)/2 entries; one row has bound + 1
    h5, h6, h20 = hilbert_lie(5), hilbert_lie(6), hilbert_one_var(20)
    expected = e_operator(h5), e_operator_1var(h20)
    monkeypatch.setattr(LIMITS, "monomial_limit", 21)
    assert (e_operator(h5), e_operator_1var(h20)) == expected
    s = series({(1, 0): 1}, 5)
    assert s * s == series({(2, 0): 1}, 5)
    t = series({(1, 0): 1}, 6)
    for build in (lambda: e_operator(h6), lambda: t * t, lambda: e_operator_1var(h20 + [1])):
        with pytest.raises(MonomialLimitError):
            build()


def test_deep_requests_are_refused_before_any_fold():
    # levels 1..29 together fold into F_31 - 1 > 10^6 multidegrees: each
    # level walk is refused at level 29, and euler_product at its triangle,
    # before level 1 is folded
    _fold_level.cache_clear()
    for build in (
        lambda: levels_for_degree(10**9),
        lambda: weight_growth_levels(lambda_power(40)),
        lambda: euler_product(100000),
        lambda: hilbert_lie(800000),
    ):
        with pytest.raises(MonomialLimitError):
            build()
        assert _fold_level.cache_info().currsize == 0


def test_hilbert_request_is_held_to_the_monomial_limit(monkeypatch):
    # levels 1..8 fold into F_10 - 1 = 54 multidegrees, and level 9 starts at
    # degree F_8 + 1 = 22
    monkeypatch.setattr(LIMITS, "monomial_limit", 54)
    assert max(levels_for_degree(21)) == 8
    assert hilbert_recursive(8, 21) == hilbert_lie(21)
    for build in (
        lambda: hilbert_lie(22),
        lambda: hilbert_enumerated(9, "lie", 22),
        lambda: hilbert_recursive(9, 22),
    ):
        with pytest.raises(MonomialLimitError):
            build()


def test_euler_inverse_check():
    for bound in (0, 1, 2, 3, 4, 5, 11, 24, 40, 200):
        assert euler_inverse_check(bound)


def test_one_var_specialization():
    for bound in (0, 1, 2, 3, 4, 5, 11, 15, 40, 200):
        assert euler_product(bound).one_var() == euler_product_1var(bound)
    for bound in range(31):
        assert e_operator_1var(hilbert_one_var(bound)) == e_operator(hilbert_lie(bound)).one_var()


def test_hilbert_one_var_is_the_projection():
    # level 10 starts at degree F_9 + 1 = 35, so levels 1..9 hold every
    # basis monomial of total degree <= 30
    totals = [sum(gr(m)) for level in enumerate_W_upto(9) for m in level]
    for bound in range(1, 31):
        assert hilbert_one_var(bound) == [totals.count(d) for d in range(bound + 1)]
    # degree 2: v_3 = [v_1, v_2], v_1^2 = t_0 v_3 and v_2^2 = t_1 v_4
    assert hilbert_lie(2, "restricted").one_var()[2] == 3


def test_one_var_series_are_coefficient_lists_through_the_bound():
    for bound in range(41):
        assert len(hilbert_one_var(bound)) == bound + 1
        assert len(hilbert_lie(bound, "restricted").one_var()) == bound + 1
    assert euler_product_1var(0) == [1] and e_operator_1var([0]) == [1]


def test_one_var_euler_product_inverts_the_envelope():
    for bound in range(81):
        e, h_u = euler_product_1var(bound), e_operator_1var(hilbert_one_var(bound))
        assert len(e) == len(h_u) == bound + 1
        product = [sum(e[i] * h_u[d - i] for i in range(d + 1)) for d in range(bound + 1)]
        assert product == [1] + [0] * bound


def test_truncation_semantics():
    a = series({(1, 0): 1, (5, 5): 2}, 10)
    b = series({(1, 0): 1}, 4)
    assert (a * b).bound == 4
    assert (a * b).coeffs == {(2, 0): 1}
    with pytest.raises(InputError):
        (a * b)[(6, 5)]  # the product knows nothing past degree 4
    with pytest.raises(InputError):
        a[(5, 6)]
    assert a[(5, 5)] == 2


def test_recursive_support_assertion():
    # data outside the quadrant is refused when the series is made
    with pytest.raises(SupportError):
        LatticeSeries({(-1, 2): 1}, 5)


def test_enveloping_growth_report():
    rep = enveloping_growth_report(80)
    assert rep.gamma == sorted(rep.gamma)
    assert rep.witness_ok()
    assert rep.theta_hat and all(th > 0 for _, th in rep.theta_hat)


def test_hilbert_upper_sums_the_exact_part_by_horner():
    # Horner's rule against the exact rational value of the same polynomial
    s = hilbert_one_var(400)
    for u in (0.5, 0.8, 0.95, 0.95**60):
        # both bounds add the same tail past degree 400
        part = _hilbert_upper(u, s) - _hilbert_upper(u, [0] * len(s))
        exact = float(sum(c * Fraction(u) ** n for n, c in enumerate(s)))
        assert part == pytest.approx(exact, rel=1e-12)


def test_euler_eval_check_small_degree():
    # with a deliberately small truncation the tail bound must refuse
    weak = euler_eval_check(degree=40)
    assert not any(r.tail_ok for r in weak)
    strong = euler_eval_check(degree=400)
    for r in strong:
        assert r.tail_ok
        assert r.positive_ok and r.upper_ok
