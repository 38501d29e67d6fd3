"""Unit tests for nilpotency-index experiments."""

from __future__ import annotations

import random
import time

import pytest

from fiblie import core, nil
from fiblie.basis import enumerate_W_upto
from fiblie.core import (
    ZERO,
    FibLieError,
    InputError,
    element,
    power_2k,
    square,
    tau,
    v,
)
from fiblie.expr import eval_text
from fiblie.nil import conjecture_scan, nil_index, pivot_interval


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
    # an element that never vanishes is refused at its bound m - n + 2 = 6
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
    # tau-invariance: row (n, m) of the scan equals row (1, m - n + 1)
    rows = {(r.n, r.m): r for r in conjecture_scan((1, 3), 9)}
    for (n, m), row in rows.items():
        base = rows[(1, m - n + 1)]
        assert (row.index, row.peak_monomials) == (base.index, base.peak_monomials)


def test_tau_invariance_of_index():
    for text in ("v1", "v1 + v2", "t0*v4 + v3"):
        e = eval_text(text)
        base = nil_index(e).index
        for k in (1, 2, 5):
            assert nil_index(tau(e, k)).index == base


def test_interval_indices_below_the_bound():
    # indices of v_1 + ... + v_m; the bound m + 1 is missed at m = 4, 8, 9
    got = [r.index for r in conjecture_scan((1, 1), 9)]
    assert got == [2, 3, 4, 4, 6, 7, 8, 7, 7]


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
