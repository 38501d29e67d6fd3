"""Unit tests for the free Lie algebra and the relation quotient."""

from __future__ import annotations

import pytest

from fiblie.core import ZERO, InputError, bracket, format_element, v
from fiblie import gf2
from fiblie.presentation import (
    RELATION_TREES,
    _word_index,
    evaluate,
    free_lie,
    left_normed,
    lie_bracket_poly,
    lyndon_words,
    pivot_tree,
    poly_vec,
    presentation_report,
    quotient_dims,
    relation_shifts_check,
    relations_vanish,
    shifted_relation_trees,
    standard_factorization,
    tree_degree,
    tree_poly,
)


def test_lyndon_words_small():
    words = lyndon_words(2, 3)
    assert (1,) in words and (2,) in words and (1, 2) in words
    assert (1, 1, 2) in words and (1, 2, 2) in words
    assert (2, 1) not in words


def test_standard_factorization():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))


def necklace_dim(n: int, q: int = 2) -> int:
    """Test oracle, the Witt formula: (1/n) sum_{d|n} mu(d) q^(n/d)."""

    def mobius(m: int) -> int:
        result = 1
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                result = -result
            d += 1
        if m > 1:
            result = -result
        return result

    total = sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def test_free_dims_vs_necklace_oracle():
    fl = free_lie(7)
    dims = fl.dims()
    for d in range(1, 8):
        assert dims[d] == necklace_dim(d)


def test_pivot_tree_recursion():
    assert pivot_tree(1) == 1 and pivot_tree(2) == 2
    for n in range(3, 13):
        assert pivot_tree(n) == (pivot_tree(n - 2), pivot_tree(n - 1))
    for n in (0, -1):
        with pytest.raises(InputError):
            pivot_tree(n)


def test_bracket_table_properties():
    fl = free_lie(5)
    for w in fl.by_degree(2):
        assert fl.bracket_in_basis(w, w) == set()  # [w, w] = 0
    # [x, x] = 0 as a Lie polynomial and in the basis
    assert tree_poly((1, 1)) == frozenset()
    assert fl.express(frozenset(), 2) == set()
    # degree additivity of table entries
    for w1 in fl.by_degree(1):
        for w2 in fl.by_degree(2):
            for out in fl.bracket_in_basis(w1, w2):
                assert len(out) == 3


def test_evaluate_examples():
    assign = {1: v(1), 2: v(2)}
    assert evaluate(left_normed([2, 1, 1, 1]), assign) == ZERO
    assert format_element(evaluate((1, 2), assign)) == "v3"
    assert evaluate(left_normed([1, 2, 2, 2, 2]), assign) == ZERO


def test_evaluate_is_bracket_homomorphism():
    assign = {1: v(1), 2: v(2)}
    u = left_normed([1, 2])
    w = left_normed([2, 1, 1])
    assert evaluate((u, w), assign) == bracket(evaluate(u, assign), evaluate(w, assign))


def test_relations_vanish_and_shifts():
    assert relations_vanish(0)
    assert relations_vanish(1)  # includes [v_3, v_2^3] = 0
    assert relation_shifts_check(4)


def test_quotient_with_no_relations_is_free():
    fl = free_lie(6)
    dims = quotient_dims((), 6, fl)
    assert dims == fl.dims()


def test_quotient_matches_algebra_dims():
    report = presentation_report(7)
    for d in range(1, 8):
        assert report.quotient[d] == report.target[d]
        # the quotient surjects onto the algebra
        assert report.quotient[d] >= report.target[d]
    assert [report.target[d] for d in range(1, 8)] == [2, 1, 2, 2, 2, 2, 4]


def test_kernel_dims_are_free_minus_quotient():
    report = presentation_report(6)
    for d in range(1, 7):
        kernel = report.free[d] - report.quotient[d]
        assert kernel >= 0
    assert report.free[4] - report.quotient[4] == 1  # the degree-4 relation


def test_free_lie_rejects_bad_degree():
    with pytest.raises(ValueError):
        free_lie(0)


def test_quotient_against_evaluation_kernel_oracle():
    # independent route: rank of the evaluation map per degree
    fl = free_lie(7)
    assign = {1: v(1), 2: v(2)}
    report = presentation_report(7)
    for d in range(1, 8):
        words = fl.by_degree(d)
        images = [evaluate(fl.trees[w], assign) for w in words]
        support = sorted({m for e in images for m in e.monomials})
        idx = {m: i for i, m in enumerate(support)}
        rows = [sum(1 << idx[m] for m in e.monomials) for e in images]
        rank = gf2.rank(rows, max(len(support), 1))
        assert rank == report.target[d]
        assert len(words) - rank == report.free[d] - report.quotient[d]


def test_shifted_relations_vanish_and_extend_the_ideal():
    assign = {1: v(1), 2: v(2)}
    for tree in shifted_relation_trees(2):
        assert evaluate(tree, assign) == ZERO
    base = quotient_dims(shifted_relation_trees(0), 8)
    with_shift = quotient_dims(shifted_relation_trees(1), 8)
    assert with_shift[8] <= base[8]


def quotient_dims_all_lyndon(relation_trees, degree):
    """Test oracle: the ideal closed under bracketing each layer with every
    Lyndon basis element of every lower degree."""
    fl = free_lie(degree)
    indexes = {d: _word_index(d) for d in range(1, degree + 1)}
    spans = {d: gf2.Span() for d in range(1, degree + 1)}
    layer_polys = {d: [] for d in range(1, degree + 1)}

    def insert(p, d):
        if p and spans[d].add(poly_vec(p, indexes[d])):
            layer_polys[d].append(p)

    for t in relation_trees:
        if tree_degree(t) <= degree:
            insert(tree_poly(t), tree_degree(t))
    for d in range(1, degree + 1):
        for d_low in range(1, d):
            for p in list(layer_polys[d_low]):
                for w in fl.by_degree(d - d_low):
                    insert(lie_bracket_poly(p, fl.polys[w]), d)
    return {d: fl.dims().get(d, 0) - len(spans[d]) for d in range(1, degree + 1)}


def test_generator_closure_matches_all_lyndon_oracle():
    for relations in (RELATION_TREES, shifted_relation_trees(1), shifted_relation_trees(2)):
        assert quotient_dims(relations, 10) == quotient_dims_all_lyndon(relations, 10)
