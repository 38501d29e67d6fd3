"""Unit tests for basis enumeration and the recursive construction."""

from __future__ import annotations

import pytest

from fiblie import basis
from fiblie.basis import (
    BasisFormError,
    build_W_recursive,
    check_held,
    colour,
    enumerate_W,
    enumerate_W_upto,
)
from fiblie.core import (
    LIMITS,
    Monomial,
    MonomialLimitError,
    ZERO,
    bracket,
    element,
    monomial,
    tau,
)
from fiblie.expr import eval_text


def test_level_examples():
    assert [m for m in enumerate_W(3)] == [Monomial(3, 0)]
    assert [m for m in enumerate_W(4)] == [Monomial(4, 0), Monomial(4, 1)]
    assert len(enumerate_W(10)) == 128


def test_counts_upto():
    for n, count in ((3, 3), (8, 65), (15, 8193)):
        assert sum(map(len, enumerate_W_upto(n))) == count


def test_held_rows_are_held_to_the_monomial_limit(monkeypatch):
    monkeypatch.setattr(LIMITS, "monomial_limit", 65)
    check_held(enumerate_W_upto(8))  # 65 rows
    check_held([enumerate_W(9)])  # 64 rows
    for levels in (enumerate_W_upto(8, "restricted"), [enumerate_W(10)]):
        with pytest.raises(MonomialLimitError):
            check_held(levels)
    # past 2^63 rows, where len() of a level cannot return
    with pytest.raises(MonomialLimitError):
        check_held(enumerate_W_upto(100))


def test_len_of_a_level_past_sys_maxsize_raises():
    assert len(enumerate_W(65)) == 2**62
    assert enumerate_W(66).size == 2**63
    with pytest.raises(MonomialLimitError):
        len(enumerate_W(66))


def test_restricted_levels():
    assert len(enumerate_W(2, "restricted")) == 1
    lvl = enumerate_W(5, "restricted")
    assert len(lvl) == 5
    assert lvl.square == monomial(5, [2])


def test_recursive_construction_small():
    for n in range(3, 13):
        assert build_W_recursive(n) == set(enumerate_W(n + 1).masks)


def test_recursive_step_matches_by_hand():
    # from W_3 = {v_3}: [v_2, v_3] = v_4 and [v_1, v_3] = t_0 v_4
    assert build_W_recursive(3) == {0, 1}


def test_recursive_construction_rejects_malformed_brackets(monkeypatch):
    # criterion 02 must be able to fail: two monomials, or one of another pivot
    def each(res):
        return lambda gen, others: (res for _ in others)

    monkeypatch.setattr(basis, "bracket_each", each([Monomial(5, 0), Monomial(5, 1)]))
    with pytest.raises(BasisFormError, match="not a monomial"):
        build_W_recursive(4)
    monkeypatch.setattr(basis, "bracket_each", each([Monomial(6, 0)]))
    with pytest.raises(BasisFormError, match="pivot 6, expected 5"):
        build_W_recursive(4)


def test_colour():
    assert colour(monomial(1)) == "red"
    assert colour(monomial(5)) == "red"
    assert colour(monomial(4, [0])) == "blue"
    assert colour(monomial(5, [0])) == "green"
    assert colour(monomial(5, [1])) == "blue"
    assert colour(monomial(3, [0])) == "square"  # t0*v3 = v1^2
    assert colour(monomial(5, [2])) == "square"
    with pytest.raises(BasisFormError):
        colour(monomial(3, [1]))
    with pytest.raises(BasisFormError):
        colour(monomial(5, [0, 2]))


def decompose(n):
    """W_{<=n} split as {v_1} + tau(W_{<=n-1}) + t_0 tau(W_{<=n-1} - {v_1,v_2}):
    v_1, then the rest by whether t_0 divides the tail."""
    rest = [m for lvl in enumerate_W_upto(n) for m in lvl if m != Monomial(1, 0)]
    return (
        {Monomial(1, 0)},
        {m for m in rest if not m.tail & 1},
        {m for m in rest if m.tail & 1},
    )


def test_decompose_small():
    assert decompose(3) == ({Monomial(1, 0)}, {Monomial(2, 0), Monomial(3, 0)}, set())
    assert decompose(4)[2] == {Monomial(4, 1)}


def test_decompose_counts_and_exactness():
    for n in range(2, 12):
        _, shifted, t0_shifted = decompose(n)
        size = sum(map(len, enumerate_W_upto(n)))
        # |W_{<=n+1}| = 1 + |W_{<=n}| + (|W_{<=n}| - 2)
        assert size + len(enumerate_W(n + 1)) == 1 + 2 * size - 2
        # the parts are exactly tau of the lower union and t_0 times tau of
        # it without v_1 and v_2
        lower = [m for lvl in enumerate_W_upto(n - 1) for m in lvl]
        taus = [next(iter(tau(element([m]), 1))) for m in lower]
        assert set(taus) == shifted
        assert {Monomial(m.pivot, m.tail | 1) for m in taus[2:]} == t0_shifted


def test_abelian_ideal_exhaustive():
    a_mons = [
        m for lvl in enumerate_W_upto(8) for m in lvl if m.tail & 1
    ]
    assert len(a_mons) == 31
    for m1 in a_mons:
        for m2 in a_mons:
            assert bracket(element([m1]), element([m2])) == ZERO


def test_bracket_with_pivot_is_monomial():
    w = eval_text("t0*t2*v6")
    res = bracket(eval_text("v5"), w)
    assert len(res) == 1 and next(iter(res.monomials)) == Monomial(7, 0b101)
