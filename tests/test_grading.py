"""Unit tests for exact golden-ratio arithmetic and weight geometry."""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiblie import grading
from fiblie.basis import enumerate_W, enumerate_W_upto
from fiblie.core import (
    LIMITS,
    ZERO,
    FibLieError,
    IndexCeilingError,
    Monomial,
    MonomialLimitError,
    bracket,
    element,
    monomial,
)
from fiblie.expr import eval_text
from fiblie.verify import criterion_geometry
from fiblie.grading import (
    GoldenInt,
    LAMBDA,
    LAMBDA_FLOAT,
    Multidegree,
    WeightTable,
    check_levels,
    count_weights_at_most,
    fib,
    golden_sign,
    gr,
    lambda_power,
    level_multidegree_counts,
    level_rectangle_violations,
    level_strip_violations,
    levels_while,
    local_nilpotency_bound,
    sign_split,
    square_multidegree,
    weight,
    weight_coords,
    weight_coords_float,
    weight_growth_levels,
)

ONE = GoldenInt(1, 0)

golden_ints = st.builds(
    GoldenInt, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
)


@settings(max_examples=300, deadline=None)
@given(golden_ints, golden_ints, golden_ints)
def test_golden_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert (x * y).conj() == x.conj() * y.conj()


@settings(max_examples=500, deadline=None)
@given(golden_ints)
def test_golden_sign_vs_float(x):
    approx = x.a + x.b * (1 + 5**0.5) / 2
    if abs(approx) > 1e-4:
        assert x.sign() == (approx > 0) - (approx < 0)


def test_golden_sign_float80_oracle():
    # exact sign vs 80-bit floating evaluation on 10^6 random pairs
    rng = np.random.default_rng(991)
    a = rng.integers(-(10**6), 10**6, size=1_000_000)
    b = rng.integers(-(10**6), 10**6, size=1_000_000)
    phi = (np.longdouble(1) + np.sqrt(np.longdouble(5))) / 2
    approx = np.sign(a.astype(np.longdouble) + b.astype(np.longdouble) * phi)
    exact = [golden_sign(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert exact == approx.astype(np.int64).tolist()
    for i in range(0, 1_000_000, 9973):
        assert GoldenInt(int(a[i]), int(b[i])).sign() == exact[i]


def test_lambda_powers_and_text():
    assert lambda_power(0) == GoldenInt(1, 0)
    assert lambda_power(2) == GoldenInt(1, 1)
    assert lambda_power(4) == GoldenInt(2, 3)
    assert LAMBDA * LAMBDA == lambda_power(2)
    assert str(GoldenInt(2, -3)) == "2+-3*L"
    assert str(GoldenInt(-7, 11)) == "-7+11*L"


def test_gr_examples():
    assert gr(monomial(3)) == Multidegree(1, 1)
    assert gr(monomial(4, [0])) == Multidegree(2, 1)
    # Gr(t_0) = (1, -1) read off the square v_1^2 = t_0 v_3
    assert gr(monomial(3, [0])) == Multidegree(2, 0)


def test_weight_examples():
    assert weight(monomial(2)).wt == GoldenInt(1, 1)
    assert weight(monomial(1)).swt == GoldenInt(1, -1)
    assert weight(monomial(4, [0])).wt == GoldenInt(1, 3)


def test_weight_coords_examples():
    xi, eta = weight_coords((1, 0))
    assert xi == LAMBDA and eta == GoldenInt(1, -1)
    xi, eta = weight_coords((0, 1))
    assert xi == GoldenInt(1, 1) and eta == GoldenInt(2, -1)
    assert weight_coords((0, 0)) == (GoldenInt(0, 0), GoldenInt(0, 0))


def test_weight_coords_float_round_the_exact_coordinates():
    for d in [(1, 0), (0, 1), (3, 5), (-2, 7), (13, 21)]:
        for exact, approx in zip(weight_coords(d), weight_coords_float(d)):
            assert math.isclose(exact.a + exact.b * LAMBDA_FLOAT, approx, abs_tol=1e-9)


# --- oracle: wt(t^S v_n) = lambda^n - sum_{j in S} lambda^j, walked over the tail


def _weight_by_lambda_powers(m) -> GoldenInt:
    wt = lambda_power(m.pivot)
    tail = m.tail
    while tail:
        low = tail & -tail
        wt = wt - lambda_power(low.bit_length() - 1)
        tail ^= low
    return wt


def test_weight_coords_match_weight_on_basis():
    # weight reads (wt, swt) off the multidegree by weight_coords
    for level in enumerate_W_upto(14, "restricted"):
        for m in level:
            wv = weight(m)
            assert wv.wt == _weight_by_lambda_powers(m), m
            assert wv.swt == wv.wt.conj(), m


def test_weight_additivity_under_bracket():
    a = eval_text("t0*v4")
    b = eval_text("t1*v5")
    res = bracket(a, b)
    assert res != ZERO
    wa, wb = weight(next(iter(a.monomials))), weight(next(iter(b.monomials)))
    for m in res.monomials:
        assert weight(m).wt == wa.wt + wb.wt
        ga, gb_ = gr(next(iter(a.monomials))), gr(next(iter(b.monomials)))
        assert gr(m) == Multidegree(ga.a + gb_.a, ga.b + gb_.b)


def in_strip(m):
    """-lambda < swt(m) < 1, from the exact signs of GoldenInt."""
    swt = weight(m).swt
    return (swt + LAMBDA).sign() > 0 and (swt - GoldenInt(1, 0)).sign() < 0


def test_strip_examples():
    assert in_strip(monomial(1))
    assert in_strip(monomial(3, [0]))  # v_1^2
    for level in enumerate_W_upto(12, "restricted"):
        for m in level:
            assert in_strip(m)


def test_sign_split_examples():
    plus, minus = sign_split([monomial(1), monomial(2)])
    assert minus == [monomial(1)] and plus == [monomial(2)]
    a_mons = [m for m in enumerate_W(6) if m.tail & 1]
    _, neg = sign_split(a_mons)
    assert neg == a_mons


def test_local_nilpotency_bound():
    assert local_nilpotency_bound([monomial(2)]) == 3
    # verification: all 3-fold brackets of v_2 with itself vanish
    e = element([monomial(2)])
    assert bracket(bracket(e, e), e) == ZERO
    with pytest.raises(ValueError):
        local_nilpotency_bound([monomial(1)])
    with pytest.raises(ValueError):
        local_nilpotency_bound([])


def step_nilpotency_bound(mu: GoldenInt) -> int:
    """Test oracle: add mu until the sum reaches 1, one exact sign per step."""
    acc, n = GoldenInt(0, 0), 0
    while (acc - ONE).sign() < 0:
        acc, n = acc + mu, n + 1
    return n


def test_local_nilpotency_bound_matches_the_step_search():
    plus, _ = sign_split([m for level in enumerate_W_upto(12) for m in level])
    assert len(plus) == 342
    for m in plus:
        assert local_nilpotency_bound([m]) == step_nilpotency_bound(weight(m).swt)
    assert local_nilpotency_bound(plus) == step_nilpotency_bound(min(weight(m).swt for m in plus))


def test_local_nilpotency_bound_of_deep_pivots():
    # the step search takes 710,647 steps at v_28 and about 1.9 million at v_30
    start = time.perf_counter()
    assert local_nilpotency_bound([monomial(28)]) == 710647
    assert local_nilpotency_bound([monomial(30)]) == 1860498
    assert time.perf_counter() - start < 0.1


def weight_growth(x: GoldenInt, kind: str = "lie") -> int:
    """Test oracle: the scalar twin of count_weights_at_most, one exact
    GoldenInt comparison per basis monomial."""
    if x.sign() < 0:
        raise ValueError("threshold must be >= 0")
    count = 0
    n = 1
    while True:
        # wt(W~_n) > lambda^(n-1), so once lambda^(n-1) >= x no level contributes
        if (lambda_power(n - 1) - x).sign() >= 0:
            return count
        count += sum((weight(m).wt - x).sign() <= 0 for m in enumerate_W(n, kind))
        n += 1


def test_weight_growth_examples():
    assert weight_growth(lambda_power(2)) == 2
    for n in range(3, 12):
        assert weight_growth(lambda_power(n)) == 1 + 2 ** (n - 2)
    # restricted counts the squares as well
    assert weight_growth(lambda_power(4), "restricted") > weight_growth(lambda_power(4))


def test_weight_counts_match_scalar():
    # the thresholds lambda^n are attained weights, so `<` for `<=` shows
    thresholds = [lambda_power(5), GoldenInt(7, 3)]
    thresholds += [lambda_power(n) for n in range(13)]
    thresholds += [lambda_power(n) - ONE for n in range(13)]
    thresholds += [GoldenInt(t, 0) for t in range(101)]
    for x in thresholds:
        assert count_weights_at_most(weight_growth_levels(x), x) == weight_growth(x), x


def test_weight_table_matches_the_threshold_scan():
    # every threshold of criterion 08's sandwich
    levels = weight_growth_levels(GoldenInt(1002, 0))
    table = WeightTable(levels)
    for t in range(2, 1002):
        x = GoldenInt(t, 0)
        assert table.count(x) == count_weights_at_most(levels, x), t
    # lambda^n is an attained weight, so `<` for `<=` shows
    levels = weight_growth_levels(lambda_power(20))
    table = WeightTable(levels)
    for n in range(21):
        for x in (lambda_power(n), lambda_power(n) - ONE):
            assert table.count(x) == count_weights_at_most(levels, x), x
    # the scalar oracle through level 12: wt(W_13) > lambda^12 bounds x
    table = WeightTable(range(1, 13))
    thresholds = [lambda_power(n) for n in range(13)]
    thresholds += [lambda_power(n) - ONE for n in range(13)]
    thresholds += [GoldenInt(t, 0) for t in range(101)] + [GoldenInt(7, 3)]
    for x in thresholds:
        assert table.count(x) == weight_growth(x), x


def test_oversized_weights_are_counted_exactly():
    # Python ints have no range to leave: the count past 2^63 stays exact
    assert count_weights_at_most([5], GoldenInt(1 << 70, 0)) == 4
    # level 45 folds into F_45 - 1 multidegrees: the cap must stop it at once
    with pytest.raises(FibLieError):
        level_multidegree_counts(45)


def test_check_levels_sums_the_folds_in_order(monkeypatch):
    # W_1..W_28 fold into F_30 - 1 = 832039 <= 10^6 multidegrees, W_1..W_29
    # into F_31 - 1 > 10^6; the walk is refused at level 29 of an endless count
    assert check_levels(range(1, 29)) == list(range(1, 29))
    for build in (lambda: check_levels(range(1, 30)), lambda: levels_while(lambda n: True)):
        with pytest.raises(MonomialLimitError, match="of 29 levels through W_29"):
            build()
    assert levels_while(lambda n: n < 5) == [1, 2, 3, 4]
    monkeypatch.setattr(LIMITS, "monomial_limit", 7)  # F_1 + ... + F_4 = 7
    check_levels([1, 2, 3, 4])
    with pytest.raises(MonomialLimitError):
        check_levels([1, 2, 3, 4, 1])


def test_check_levels_refuses_a_deep_level_without_its_fibonacci(monkeypatch):
    asked = []

    def recorder(k):
        asked.append(k)
        return fib(k)

    monkeypatch.setattr(grading, "fib", recorder)
    with pytest.raises(MonomialLimitError, match="or more possible multidegrees of W_1000000"):
        check_levels([10**6])
    assert asked and max(asked) < 100


def test_fib_matches_the_recurrence():
    a, b = 0, 1
    for k in range(5001):
        assert fib(k) == a
        a, b = b, a + b
    assert (fib(-1), fib(-2)) == (1, -1)
    with pytest.raises(FibLieError):
        fib(-3)


def test_deep_pivot_grading_builds_no_fibonacci_list():
    # gr and weight of v_n need F_(n-3) .. F_(n-1) only, not F_0 .. F_n
    fib.cache_clear()
    tracemalloc.start()
    try:
        gr(Monomial(30_000, 0))
        weight(Monomial(30_000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    start = time.perf_counter()
    assert gr(Monomial(10**6, 0)) == (fib(10**6 - 2), fib(10**6 - 1))
    assert weight(Monomial(10**6, 0)).wt == lambda_power(10**6)
    assert time.perf_counter() - start < 2.0


def test_square_multidegree_matches_the_pivot_square():
    for n in range(3, 41):
        assert square_multidegree(n) == gr(Monomial(n, 1 << (n - 3))), n


def test_level_scans_match_scalar_counts():
    for n in range(1, 13):
        for kind in ("lie", "restricted"):
            outside = sum(not in_strip(m) for m in enumerate_W(n, kind))
            assert level_strip_violations(n, kind) == outside
        lo, hi = lambda_power(n - 1), lambda_power(n)
        outside = sum(not lo < weight(m).wt <= hi for m in enumerate_W(n))
        assert level_rectangle_violations(n) == outside


def folded(levels, outside) -> int:
    """Test oracle: the fold-based scans that the digit DP replaced.  Each
    distinct multidegree (a, b) of each level is tested once with
    ``outside(a, b)`` and weighed by its count."""
    return sum(
        c for n in levels for (a, b), c in level_multidegree_counts(n).items() if outside(a, b)
    )


def wt_at_most(x):
    return lambda a, b: golden_sign(b - x.a, a + b - x.b) <= 0


def test_level_counts_match_the_fold_oracle():
    for n in range(1, 25):
        lie = folded([n], lambda a, b: not grading._in_strip(a, b))
        square = n >= 3 and not grading._in_strip(*square_multidegree(n))
        assert level_strip_violations(n, "lie") == lie, n
        assert level_strip_violations(n, "restricted") == lie + square, n
        lo, hi = lambda_power(n - 1), lambda_power(n)
        outside = folded([n], lambda a, b: not lo < GoldenInt(b, a + b) <= hi)
        assert level_rectangle_violations(n) == outside, n
        # lambda^n is attained at level n, so `<` for `<=` shows
        for x in (hi, hi - ONE, lo, lo + LAMBDA):
            assert count_weights_at_most([n], x) == folded([n], wt_at_most(x)), (n, x)


def test_weight_counts_match_the_fold_oracle_at_seeded_thresholds():
    rng = random.Random(20240)
    levels = range(1, 15)
    for _ in range(300):
        x = GoldenInt(rng.randrange(-300, 1500), rng.randrange(-300, 300))
        assert count_weights_at_most(levels, x) == folded(levels, wt_at_most(x)), x


def test_subset_count_matches_brute_force():
    # the DP kernel on mixed signs, in any order: every subset summed exactly
    rng = random.Random(7)
    powers = [lambda_power(j) for j in range(8)]
    powers += [p.conj() for p in powers]
    powers += [-p for p in powers]
    for _ in range(300):
        terms = rng.sample(powers, rng.randrange(0, 9))
        r = GoldenInt(rng.randrange(-20, 21), rng.randrange(-12, 13))
        subsets = chain.from_iterable(combinations(terms, k) for k in range(len(terms) + 1))
        expected = sum(sum(s, GoldenInt()) >= r for s in subsets)
        assert grading._subsets_at_least(terms, r) == expected, (terms, r)


def test_levels_without_a_tail():
    # W_1, W_2, W_3 are v_1, v_2, v_3: swt = mu, mu^2, mu^3 lie in the strip
    for n in (1, 2, 3):
        for kind in ("lie", "restricted"):
            assert level_strip_violations(n, kind) == 0
        assert level_rectangle_violations(n) == 0
        assert count_weights_at_most([n], lambda_power(n)) == 1
        assert count_weights_at_most([n], lambda_power(n) - ONE) == 0
    assert count_weights_at_most([1, 2, 3], lambda_power(3)) == 3


def test_deep_level_counts_by_closed_form():
    # W_120 holds 2^117 monomials, all in the strip and the rectangle
    n = 120
    start = time.perf_counter()
    for kind in ("lie", "restricted"):
        assert level_strip_violations(n, kind) == 0
    assert level_rectangle_violations(n) == 0
    assert count_weights_at_most([n], lambda_power(n)) == 1 << (n - 3)
    assert count_weights_at_most([n], lambda_power(n - 1)) == 0
    assert time.perf_counter() - start < 0.1


def test_level_counts_stop_at_the_index_ceiling():
    # tail indices 0..n-4, so level ceiling + 3 is the deepest one admitted
    top = LIMITS.index_ceiling + 3
    assert level_rectangle_violations(top) == 0
    for count in (
        lambda n: level_strip_violations(n, "restricted"),
        level_rectangle_violations,
        lambda n: count_weights_at_most([n], lambda_power(n)),
        lambda n: weight_growth_levels(lambda_power(n)),
    ):
        with pytest.raises(IndexCeilingError):
            count(top + 1)
    assert weight_growth_levels(lambda_power(top)) == list(range(1, top + 1))


def test_weight_table_folds_only_levels_within_the_limit(folds):
    # W_1..W_29 fold into F_31 - 1 > 10^6 multidegrees: refused before W_1
    with pytest.raises(MonomialLimitError, match="of 29 levels through W_29"):
        WeightTable(range(1, 30))
    assert folds == []
    WeightTable(range(1, 13))
    assert folds == list(range(1, 13))


def test_geometry_criterion_folds_no_level(folds):
    assert criterion_geometry(1)[0]
    assert folds == []


def test_level_stratification():
    for n in range(1, 13):
        lo, hi = lambda_power(n - 1), lambda_power(n)
        weights = [weight(m).wt for m in enumerate_W(n)]
        assert all(lo < w <= hi for w in weights)
        assert any(w == hi for w in weights)
        if n >= 4:
            assert any(w == lo + LAMBDA for w in weights)


def test_degree_growth():
    # s(n) = dim of the degree-n component, read off the one-variable series
    from fiblie.series import hilbert_one_var

    s = hilbert_one_var(60)
    assert s[0] == 0 and s[1] == 2 and s[2] == 1
    for n in range(4, 10):
        assert s[fib(n)] == 2 and s[fib(n) + 1] == 2
    assert all(s[k] >= 1 for k in range(1, 61))
