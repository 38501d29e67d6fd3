"""Unit tests for nilpotency-index experiments."""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from fiblie import core, nil
from fiblie.basis import enumerate_W_upto
from fiblie.core import (
    ZERO,
    FibLieError,
    IndexCeilingError,
    InputError,
    MonomialLimitError,
    check_cap,
    element,
    power_2k,
    square,
    tau,
    v,
)
from fiblie.expr import eval_text
from fiblie.nil import conjecture_scan, nil_index, pivot_interval

README = Path(__file__).parents[1] / "README.md"


def test_nil_index_examples():
    r = nil_index(v(1))
    assert (r.index, r.bound) == (2, 2)
    r = nil_index(eval_text("t0*v4"))
    assert r.index == 1
    r = nil_index(v(1) + v(2))
    assert r.index <= 3 and r.bound == 3
    assert r.index == 3  # exact value by iterated squaring


def test_nil_index_rejects(monkeypatch):
    with pytest.raises(ValueError):
        nil_index(ZERO)
    with pytest.raises(ValueError):
        nil_index(eval_text("t3*v4"))  # non-basis
    for limit in (0, -5):
        with pytest.raises(InputError):
            nil_index(v(1), limit=limit)
    # an element that never vanishes is refused at its bound m - n + 2 = 6;
    # nil_index squares its pivot groups through nil.square
    squarings = []
    monkeypatch.setattr(nil, "square", lambda e: squarings.append(e) or e)
    with pytest.raises(FibLieError):
        nil_index(v(1) + v(5))
    assert len(squarings) == 6


def test_shift_structure_examples():
    # e^(2^N) of a basis-form element on pivots n..m keeps the shape
    # sum_{i=n+2N}^{m+N} r_i v_i + (scalar-free tail) v_{m+N+1}
    rng = random.Random(7)
    pool = [m for lvl in enumerate_W_upto(7) for m in lvl]
    samples = [v(1), v(1) + v(2)]
    for _ in range(60):
        samples.append(element(rng.sample(pool, rng.choice((1, 2, 3)))))
    for e in filter(None, samples):
        lo, hi = e.pivot_range()
        power = e
        for big_n in range(1, hi - lo + 3):
            power = square(power)
            for m in power:
                assert lo + 2 * big_n <= m.pivot <= hi + big_n + 1, (e, big_n, m)
                assert m.pivot <= hi + big_n or m.tail, (e, big_n, m)


def test_square_pivot_floor():
    # the pure-tail part of e^2 starts at min pivot + 2
    rng = random.Random(11)
    pool = [m for lvl in enumerate_W_upto(7) for m in lvl]
    for _ in range(80):
        e = element(rng.sample(pool, 2))
        if not e:
            continue
        lo, _ = e.pivot_range()
        sq = square(e)
        if sq:
            assert min(m.pivot for m in sq.monomials) >= lo + 2


def test_conjecture_scan_rows():
    rows = {(r.n, r.m): r for r in conjecture_scan((1, 2), 4)}
    assert rows[(1, 1)].index == 2 and rows[(1, 1)].bound == 2
    assert rows[(1, 2)].bound == 3
    assert rows[(2, 4)].bound == 4
    assert all(r.index <= r.bound for r in rows.values())


def test_scan_rows_depend_on_the_length_only():
    # the scan squares each length once and reuses it by tau-invariance;
    # every row must still be the index of its own element
    for row in conjecture_scan((1, 3), 9):
        report = nil_index(pivot_interval(row.n, row.m))
        assert (row.index, row.bound, row.peak_monomials) == (
            report.index,
            report.bound,
            report.peak_monomials,
        ), (row.n, row.m)


def test_scan_squares_each_length_once(monkeypatch):
    calls = []
    real = nil.nil_index
    monkeypatch.setattr(nil, "nil_index", lambda e: calls.append(e.pivot_range()) or real(e))
    rows = conjecture_scan((1, 3), 9)
    assert len(rows) == 9 + 8 + 7
    assert calls == [(1, m) for m in range(1, 10)]


def test_scan_squares_rows_near_the_ceiling_themselves(monkeypatch):
    # at ceiling 12 every v_1 + ... + v_m with m <= 8 stays below it, while
    # v_2 + ... + v_8, the shift of v_1 + ... + v_7, reaches it: a row whose
    # powers may reach the ceiling is squared, not read from its length
    monkeypatch.setattr(core.LIMITS, "index_ceiling", 12)
    assert [r.index for r in conjecture_scan((1, 1), 8)] == [2, 3, 4, 4, 6, 7, 8, 7]
    with pytest.raises(IndexCeilingError):
        nil_index(pivot_interval(2, 8))
    with pytest.raises(IndexCeilingError):
        conjecture_scan((1, 2), 8)


# --- oracle: the squaring loop on Elements, regrouped at every square ------


def loop_nil_index(e, limit=None, squared=None):
    """(index, peak) of e by squaring the Element itself: nil_index before
    its powers stayed pivot groups.  Raises as nil_index does; ``squared``
    collects the size of each power it squares."""
    lo, hi = e.pivot_range()
    bound = hi - lo + 2
    peak, power, index = len(e), e, 0
    while power:
        if index == bound:
            raise FibLieError(f"e^(2^{bound}) != 0 past the guaranteed bound {bound}")
        if squared is not None:
            squared.append(len(power))
        power = square(power)
        index += 1
        peak = max(peak, len(power))
        check_cap(len(power), "monomials in an intermediate element", limit)
    return index, peak


def random_basis_elements(seed, count):
    """``count`` sums of 1 to 3 distinct basis monomials of levels <= 7."""
    rng = random.Random(seed)
    pool = [m for lvl in enumerate_W_upto(7) for m in lvl]
    return [element(rng.sample(pool, rng.choice((1, 2, 3)))) for _ in range(count)]


def test_nil_index_matches_the_element_loop():
    for e in random_basis_elements(30, 200):
        report = nil_index(e)
        assert (report.index, report.peak_monomials) == loop_nil_index(e), e


def test_monomial_limit_stops_at_the_same_squaring(monkeypatch):
    # with the cap one below the peak, both loops square the same powers
    # and refuse the same one
    grouped = []
    monkeypatch.setattr(nil, "square", lambda e: grouped.append(len(e)) or square(e))
    samples = [pivot_interval(n, m) for n in (1, 2) for m in range(n + 1, 9)]
    samples += random_basis_elements(31, 200)
    checked = 0
    for e in samples:
        peak = loop_nil_index(e)[1]
        if peak <= len(e):
            continue  # the cap is checked on the powers only
        grouped.clear()
        looped = []
        with pytest.raises(MonomialLimitError) as got:
            nil_index(e, limit=peak - 1)
        with pytest.raises(MonomialLimitError) as want:
            loop_nil_index(e, limit=peak - 1, squared=looped)
        assert grouped == looped, e
        assert str(got.value) == str(want.value), e
        checked += 1
    assert checked == 13 + 13  # 13 intervals and 13 of the random elements


def test_tau_invariance_of_index():
    for text in ("v1", "v1 + v2", "t0*v4 + v3"):
        e = eval_text(text)
        base = nil_index(e).index
        for k in (1, 2, 5):
            assert nil_index(tau(e, k)).index == base


def readme_nil_table() -> dict[str, list[int]]:
    """The rows of README's "Nilpotency indices" table, by their label."""
    text = README.read_text().split("## Nilpotency indices", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] in ("m", "index", "bound"):
            rows[cells[0]] = [int(c) for c in cells[1:]]
    return rows


def test_interval_indices_below_the_bound():
    # indices of v_1 + ... + v_m; the bound m + 1 is missed at m = 4 and at
    # every m from 8 on
    rows = conjecture_scan((1, 1), 12)
    indices = [2, 3, 4, 4, 6, 7, 8, 7, 7, 8, 8, 9]
    assert [r.index for r in rows] == indices
    assert [r.bound for r in rows] == [m + 1 for m in range(1, 13)]
    table = readme_nil_table()
    assert table["m"] == list(range(1, len(table["m"]) + 1))
    assert table["index"][:12] == indices
    assert table["bound"] == [m + 1 for m in table["m"]]
    assert len(table["index"]) == len(table["m"]) >= 12


def test_nil_index_runtime_guard():
    # squaring by pivot groups; the monomial-pairwise square needs about a
    # minute at m = 10, and the pair loop of ring_mul about 13 s at m = 11
    for m, index, peak in ((10, 8, 5232), (11, 8, 22144)):
        start = time.perf_counter()
        report = nil_index(pivot_interval(1, m))
        elapsed = time.perf_counter() - start
        assert (report.index, report.peak_monomials) == (index, peak)
        assert elapsed < 5.0


def test_high_pivot_interval_convolves_in_a_narrow_window(monkeypatch):
    # the tails of v_60 + ... + v_66 and its squares lie in t_59 ... t_70; a
    # convolution sized from t_0 would need a 2^75-bit int
    windows = []

    def convolution(r, s, z, w):
        windows.append((z, w))
        return real(r, s, z, w)

    real = core._subset_convolution
    monkeypatch.setattr(core, "_subset_convolution", convolution)
    start = time.perf_counter()
    high = nil_index(pivot_interval(60, 66))
    elapsed = time.perf_counter() - start
    assert windows and all(z == 59 and w <= 12 for z, w in windows)
    low = nil_index(pivot_interval(1, 7))
    assert high.index == low.index == 8
    assert high.peak_monomials == low.peak_monomials
    assert elapsed < 5.0


def test_exhaustive_small_family():
    pool = [m for lvl in enumerate_W_upto(5) for m in lvl]
    from itertools import combinations

    for size in (1, 2):
        for combo in combinations(pool, size):
            e = element(combo)
            lo, hi = e.pivot_range()
            assert power_2k(e, hi - lo + 2) == ZERO
