"""Unit tests for the sliced Chevalley-Eilenberg complex."""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from fiblie import gf2, homology
from fiblie.basis import enumerate_W, enumerate_W_upto
from fiblie.core import (
    LIMITS,
    ZERO,
    InputError,
    MonomialLimitError,
    bracket,
    bracket_monomials,
    element,
    monomial,
    set_bits,
)
from fiblie.grading import (
    GoldenInt,
    gr,
    lambda_power,
    weight,
    weight_coords,
    weight_coords_float,
)
from fiblie.homology import (
    Multidegree,
    _bracket_pair,
    _monomials,
    _pool,
    chain_basis,
    d_rows,
    dd_is_zero,
    differential,
    euler_crosscheck,
    homology_dim,
    homology_table,
    index_of,
    inside_homology_strip,
    monomial_at,
    paraboloid_report,
    table_ns,
)
from fiblie.series import THETA, euler_product, levels_for_degree


def factors(key):
    """The monomials of a wedge key, in canonical order."""
    return tuple(monomial_at(i) for i in set_bits(key))


def decoded(keys):
    return tuple(factors(key) for key in keys)


def column_count(n, degree):
    """The column count of d_n on the slice: the (n-1)-wedges there."""
    return len(chain_basis(n - 1, degree)) if n >= 1 else 0


def test_monomial_index_round_trips_in_monomial_order():
    # levels 1..14 take the indices 0, 1, 2, ... in Monomial order
    monomials = [m for level in enumerate_W_upto(14) for m in level]
    assert monomials == sorted(monomials)
    assert [index_of(m) for m in monomials] == list(range(len(monomials)))
    assert [monomial_at(i) for i in range(len(monomials))] == monomials


def test_chain_basis_examples():
    assert decoded(chain_basis(2, Multidegree(1, 1))) == ((monomial(1), monomial(2)),)
    assert decoded(chain_basis(1, Multidegree(1, 1))) == ((monomial(3),),)
    assert decoded(chain_basis(0, Multidegree(0, 0))) == ((),)
    assert chain_basis(0, Multidegree(1, 0)) == ()


def backtracking_chain_basis(n, degree):
    """Oracle: depth-first search over the basis monomials that fit under
    the multidegree, in Monomial order, keeping the remaining multidegree
    and the next monomial on an explicit stack."""
    a, b = degree
    if n == 0:
        return ((),) if (a, b) == (0, 0) else ()
    pool = []
    for level in levels_for_degree(a + b):
        for m in enumerate_W(level):
            ma, mb = gr(m)
            if ma <= a and mb <= b:
                pool.append((m, (ma, mb)))
    out = []
    stack = []

    def extend(start, ra, rb, k):
        if k == 0:
            if ra == 0 and rb == 0:
                out.append(tuple(stack))
            return
        for idx in range(start, len(pool)):
            m, (ma, mb) = pool[idx]
            if ma > ra or mb > rb:
                continue
            stack.append(m)
            extend(idx + 1, ra - ma, rb - mb, k - 1)
            stack.pop()

    extend(0, a, b, n)
    return tuple(out)


def test_chain_basis_matches_backtracking_oracle():
    # same wedges in the same order, for every n <= a+b <= 16
    for d in range(17):
        for a in range(d + 1):
            degree = Multidegree(a, d - a)
            for n in range(d + 1):
                assert decoded(chain_basis(n, degree)) == backtracking_chain_basis(n, degree)


def test_wedge_length_bound_cuts_only_empty_chain_spaces():
    # every n-wedge the oracle finds is at most the slice's longest wedge,
    # and chain_basis is empty from there up to a + b + 1
    for d in range(17):
        for a in range(d + 1):
            degree = Multidegree(a, d - a)
            longest = _pool(degree)[0]
            for n in range(longest + 1, d + 2):
                assert not backtracking_chain_basis(n, degree)
                assert chain_basis(n, degree) == ()


def test_differential_examples():
    assert d_rows(2, Multidegree(1, 1)) == [1]  # v_1 ^ v_2 -> v_3
    assert differential(2, Multidegree(1, 1)) == 1
    assert d_rows(1, Multidegree(1, 1)) == [0]
    # [v_1, t_0 v_4] = 0: the action v_1(t_0) vanishes and t_0^2 kills the rest
    assert bracket(element([monomial(1)]), element([monomial(4, [0])])) == ZERO
    assert decoded(chain_basis(2, Multidegree(3, 1))) == ((monomial(1), monomial(4, [0])),)
    assert d_rows(2, Multidegree(3, 1)) == [0]
    assert differential(2, Multidegree(3, 1)) == 0


def differential_oracle(n, degree):
    """Labelled oracle: d_n row by row on the backtracking oracle's wedge
    tuples.  Each term drops two factors by slicing, adds their bracket's
    monomials one at a time and finds the target column by sorting the new
    wedge."""
    rows_basis = backtracking_chain_basis(n, degree)
    if n <= 1:
        target_dim = len(backtracking_chain_basis(n - 1, degree)) if n == 1 else 0
        return rows_basis, tuple(0 for _ in rows_basis), target_dim
    target = backtracking_chain_basis(n - 1, degree)
    col_of = {w: i for i, w in enumerate(target)}
    rows = []
    for w in rows_basis:
        row = 0
        for s in range(len(w)):
            for t in range(s + 1, len(w)):
                rest = w[:s] + w[s + 1 : t] + w[t + 1 :]
                for m in bracket_monomials(w[s], w[t]):
                    if m not in rest:
                        row ^= 1 << col_of[tuple(sorted(rest + (m,)))]
        rows.append(row)
    return rows_basis, tuple(rows), len(target)


def test_differential_matches_tuple_oracle():
    # wedge keys over the canonical index give the same matrices as sorting
    # wedge tuples
    for d in range(15):
        for a in range(d + 1):
            degree = Multidegree(a, d - a)
            for n in range(d + 2):
                rows = tuple(d_rows(n, degree))
                found = (decoded(chain_basis(n, degree)), rows, column_count(n, degree))
                assert found == differential_oracle(n, degree)


def test_homology_dims_examples():
    assert homology_dim(0, Multidegree(0, 0)) == 1
    assert homology_dim(1, Multidegree(1, 0)) == 1
    assert homology_dim(1, Multidegree(0, 1)) == 1
    assert homology_dim(1, Multidegree(1, 1)) == 0
    assert homology_dim(2, Multidegree(1, 1)) == 0
    assert homology_dim(2, Multidegree(3, 1)) == 1


def test_dd_zero():
    for a in range(7):
        for b in range(7):
            if a + b > 8:
                continue
            for n in range(1, a + b + 1):
                assert dd_is_zero(n, Multidegree(a, b))


def test_euler_crosscheck():
    euler = euler_product(8)
    assert (euler[(0, 0)], euler[(1, 0)]) == (1, -1)
    for d in range(9):
        for a in range(d + 1):
            assert euler_crosscheck(Multidegree(a, d - a), euler)


def homology_euler_slice(degree):
    """Labelled oracle: the alternating sum of the homology dimensions."""
    a, b = degree
    return sum((-1) ** n * homology_dim(n, Multidegree(a, b)) for n in range(a + b + 1))


def test_euler_crosscheck_matches_homology_oracle():
    # the cross-check's telescoped sum over the table's n and the alternating
    # sum of every homology dimension agree with the Euler coefficient
    euler = euler_product(14)
    for d in range(15):
        for a in range(d + 1):
            degree = Multidegree(a, d - a)
            assert euler_crosscheck(degree, euler)
            assert homology_euler_slice(degree) == euler[degree]


def test_euler_crosscheck_fails_when_the_table_skips_homology(monkeypatch):
    # the check sums the table's own dimensions, so hiding the lowest
    # nonzero H_n (n > 0) of a slice from the table must fail it there
    euler = euler_product(20)
    caught = 0
    for d in range(21):
        for a in range(d + 1):
            degree = Multidegree(a, d - a)
            nonzero = [n for n in range(1, d + 1) if homology_dim(n, degree)]
            if not nonzero:
                continue
            assert euler_crosscheck(degree, euler)
            with monkeypatch.context() as patch:
                patch.setattr(
                    homology,
                    "table_ns",
                    lambda a, b: [n for n in table_ns(a, b) if n != nonzero[0]],
                )
                assert not euler_crosscheck(degree, euler)
            caught += 1
    assert caught == 66


def test_homology_table_refuses_a_negative_n():
    with pytest.raises(InputError, match="need n >= 0 and a nonnegative multidegree"):
        homology_table(3, -1)


def test_monomial_list_is_held_to_the_monomial_limit(monkeypatch):
    # the walk holds every monomial of its levels, 2^(n-3) at level n, and
    # they outnumber the multidegrees (at most F_n) that the levels' own
    # guard counts: W_1..W_22 hold 2^20 + 1 monomials in 46367 multidegrees
    with pytest.raises(MonomialLimitError) as refused:
        homology_dim(1, Multidegree(10000, 7711))
    assert str(refused.value) == (
        "1048577 basis monomials of W_1..W_22 exceed the monomial limit 1000000"
    )
    # W_1..W_10 reach total degree 40: 257 monomials, 143 multidegrees
    _monomials.cache_clear()
    monkeypatch.setattr(LIMITS, "monomial_limit", 200)
    with pytest.raises(MonomialLimitError) as refused:
        _monomials(40)
    assert str(refused.value) == "257 basis monomials of W_1..W_10 exceed the monomial limit 200"
    monkeypatch.setattr(LIMITS, "monomial_limit", 257)
    assert len(_monomials(40)) == 157  # those of total degree 40 or less


def test_euler_crosscheck_refuses_a_slice_past_the_series_bound():
    # E(3, 6) = -1, but a series through degree 8 holds no answer at 9
    assert euler_product(9)[(3, 6)] == -1
    with pytest.raises(InputError):
        euler_crosscheck(Multidegree(3, 6), euler_product(8))


def test_rank_oracle_agreement():
    rng = random.Random(3)
    for _ in range(300):
        n_cols = rng.randrange(0, 49)
        rows = [rng.getrandbits(n_cols) for _ in range(rng.randrange(0, 49))]
        assert gf2.rank(rows, n_cols) == gf2.rank_naive(rows, n_cols)
    # and on every differential with a+b <= 12
    for d in range(13):
        for a in range(d + 1):
            for n in range(1, d + 2):
                degree = Multidegree(a, d - a)
                rows, cols = d_rows(n, degree), column_count(n, degree)
                assert gf2.rank(rows, cols) == gf2.rank_naive(rows, cols)
                assert differential(n, degree) == gf2.rank_naive(rows, cols)


def test_rank_rejects_rows_wider_than_n_cols():
    assert gf2.rank([0b011, 0b101], 3) == 2
    with pytest.raises(InputError):
        gf2.rank([0b011, 0b1000], 3)
    with pytest.raises(InputError):
        gf2.rank([1], 0)


def test_gf2_span():
    span = gf2.Span()
    assert span.add(0b101)
    assert span.add(0b011)
    assert not span.add(0b110)
    assert span.reduce(0b110) == 0 and span.reduce(0b001) != 0
    assert len(span) == 2


def test_h2_dims_per_total_degree():
    per_degree = Counter()
    for (_, a, b), h in homology_table(80, 2).entries.items():
        per_degree[a + b] += h
    assert dict(per_degree) == {
        4: 1, 5: 2, 8: 3, 9: 1, 12: 2, 13: 4, 19: 2, 20: 2,
        21: 2, 30: 2, 32: 2, 33: 2, 48: 2, 51: 2, 53: 2, 77: 2,
    }


def test_homology_strip_and_table():
    table = homology_table(6)
    for (n, a, b), d in table.entries.items():
        assert d > 0
        if n >= 1:
            assert inside_homology_strip(n, a, b)
    # strip pruning hides nothing: every slice outside the strip is zero
    outside = 0
    for d in range(21):
        for a in range(d + 1):
            for n in range(1, d + 1):
                if not inside_homology_strip(n, a, d - a):
                    outside += 1
                    assert homology_dim(n, Multidegree(a, d - a)) == 0
    assert outside == 520


def test_homology_strip_grows_with_n():
    # homology_table skips every n below the first one inside the strip
    for d in range(41):
        for a in range(d + 1):
            for n in range(1, d):
                if inside_homology_strip(n, a, d - a):
                    assert inside_homology_strip(n + 1, a, d - a)
    full = homology_table(20).entries
    h2 = {key: h for key, h in full.items() if key[0] == 2}
    assert homology_table(20, 2).entries == h2


def test_homology_table_pin_frontier_28():
    table = homology_table(28)
    assert (len(table.entries), sum(table.entries.values())) == (287, 715)


def test_wedge_weight_additivity_and_stratification():
    # the factors' weights add up to the wt of the slice's multidegree, and
    # an n-wedge with top factor level m has lambda^(m-1) < wt <= n lambda^m
    for deg in (Multidegree(3, 3), Multidegree(2, 5)):
        wt, _ = weight_coords(deg)
        for n in range(1, 5):
            for key in chain_basis(n, deg):
                wedge = factors(key)
                total = GoldenInt(0, 0)
                for m in wedge:
                    total = total + weight(m).wt
                assert total == wt
                top = wedge[-1].pivot
                assert lambda_power(top - 1) < total <= lambda_power(top) * n


def test_paraboloid_report():
    table = homology_table(6)
    rep = paraboloid_report(table.entries)
    assert rep.fitted_constant > 0
    # every nonzero entry lies under the fitted envelope C xi^theta
    for (_, a, b), dim in table.entries.items():
        xi, eta = weight_coords_float((a, b))
        if dim and xi > 0:
            assert abs(eta) < rep.fitted_constant * xi**THETA * (1 + 1e-9)


def test_homology_table_runtime_guard():
    # wedges by recursion on the chain_basis cache; the backtracking search
    # needs about 20 s here
    for cached in (_monomials, _pool, chain_basis, _bracket_pair, differential):
        cached.cache_clear()  # a cold run, not the slices earlier tests built
    start = time.perf_counter()
    table = homology_table(24)
    elapsed = time.perf_counter() - start
    assert (len(table.entries), sum(table.entries.values())) == (192, 345)
    assert elapsed < 10.0
