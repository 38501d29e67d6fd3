"""Unit tests for the free Lie algebra and the relation quotient."""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from fiblie.core import (
    LIMITS,
    ZERO,
    InputError,
    MonomialLimitError,
    bracket,
    format_element,
    set_bits,
    v,
)
from fiblie import gf2
from fiblie.presentation import (
    RELATION_TREES,
    Poly,
    _GradedQuotient,
    concat_mul,
    evaluate,
    free_dims,
    free_lie,
    left_normed,
    lie_bracket_poly,
    lyndon_words,
    pivot_tree,
    presentation_report,
    quotient_dims,
    relation_shifts_check,
    relations_vanish,
    shifted_relation_trees,
    standard_factorization,
    tree_degree,
    tree_poly,
    word_bit,
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


def lyndon_dims(degree: int) -> dict[int, int]:
    """Test oracle: the free dimensions as Lyndon words counted by length."""
    counts = Counter(len(w) for w in lyndon_words(2, degree))
    return {d: counts[d] for d in range(1, degree + 1)}


def test_free_dims_vs_lyndon_oracle():
    for d in range(1, 17):
        assert free_dims(d) == lyndon_dims(d)


def test_pivot_tree_recursion():
    assert pivot_tree(1) == 1 and pivot_tree(2) == 2
    for n in range(3, 13):
        assert pivot_tree(n) == (pivot_tree(n - 2), pivot_tree(n - 1))
    for n in (0, -1):
        with pytest.raises(InputError):
            pivot_tree(n)


def bit_word(bit: int, degree: int) -> tuple[int, ...]:
    """The word at a bit of a degree-d polynomial, inverse of ``word_bit``."""
    return tuple(int(c) + 1 for c in format(bit, f"0{degree}b"))


def by_degree(fl, d):
    return [w for w in fl.words if len(w) == d]


def express(fl, p):
    """Test helper: p in the Lyndon basis of fl, by triangular reduction on
    leading words (the lowest set bits); None when p leaves the Lie span."""
    support = set()
    rest = p.bits
    while rest:
        lead = bit_word((rest & -rest).bit_length() - 1, p.degree)
        if lead not in fl.polys:
            return None
        support.add(lead)
        rest ^= fl.polys[lead].bits
    return support


def test_bracket_table_properties():
    fl = free_lie(5)
    for w in by_degree(fl, 2):
        assert express(fl, lie_bracket_poly(fl.polys[w], fl.polys[w])) == set()  # [w, w] = 0
    # [x, x] = 0 as a Lie polynomial and in the basis
    assert not tree_poly((1, 1)).bits
    assert express(fl, Poly(2, 0)) == set()
    # the bracket of two basis elements lies in the span of the basis words
    # of the summed degree
    for w1 in fl.words:
        for w2 in fl.words:
            if len(w1) + len(w2) <= 5:
                out = express(fl, lie_bracket_poly(fl.polys[w1], fl.polys[w2]))
                assert out is not None and all(len(w) == len(w1) + len(w2) for w in out)


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
    assert quotient_dims((), 12) == free_dims(12)


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
    for build in (free_lie, free_dims, presentation_report, lambda d: lyndon_words(2, d)):
        with pytest.raises(InputError):
            build(0)


def test_row_width_is_held_to_the_monomial_limit(monkeypatch):
    # a degree-d tail row has 2 dim Q_{d-1} <= 2 dim F_{d-1} bits: the
    # default cap admits d <= 24 (2 * 364722 bits), not 25 (2 * 698870)
    assert 2 * free_dims(24)[23] <= LIMITS.monomial_limit < 2 * free_dims(24)[24]
    for d in (25, 40, 10**9):
        for build in (free_dims, lambda d: quotient_dims(RELATION_TREES, d)):
            with pytest.raises(MonomialLimitError):
                build(d)
    # a Lyndon polynomial is still a 2^d-bit row, refused before any word
    with pytest.raises(MonomialLimitError):
        free_lie(20)
    start = time.perf_counter()
    with pytest.raises(MonomialLimitError):
        lyndon_words(2, 10**9)
    assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(LIMITS, "monomial_limit", 1 << 6)
    # 2 dim F_8 = 60 fits in 64 bits, 2 dim F_9 = 112 does not
    assert list(quotient_dims(RELATION_TREES, 9).values()) == [2, 1, 2, 2, 2, 2, 4, 5, 8]
    for build in (free_dims, lambda d: quotient_dims(RELATION_TREES, d)):
        with pytest.raises(MonomialLimitError):
            build(10)
    with pytest.raises(MonomialLimitError):
        free_lie(7)


def test_quotient_against_evaluation_kernel_oracle():
    # independent route: rank of the evaluation map per degree
    fl = free_lie(7)
    assign = {1: v(1), 2: v(2)}
    report = presentation_report(7)
    for d in range(1, 8):
        words = by_degree(fl, d)
        images = [evaluate(fl.trees[w], assign) for w in words]
        support = sorted(set().union(*images))
        idx = {m: i for i, m in enumerate(support)}
        rows = [sum(1 << idx[m] for m in e) for e in images]
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


def quotient_dims_dense(relation_trees, degree):
    """Test oracle: the relation ideal expanded in the free associative
    algebra, one 2^d-bit row per polynomial of its degree-d layer, closed
    degree by degree under bracketing with the generators x1, x2 (enough,
    since ad [a,b] = [ad a, ad b])."""
    free = lyndon_dims(degree)
    # spans[d]: reduced generating rows of the degree-d ideal layer;
    # layer_polys[d]: its inserted polynomials, kept only where a bracket reads them
    spans = {d: gf2.Span() for d in range(1, degree + 1)}
    layer_polys = {d: [] for d in range(1, degree)}

    def insert(p):
        if spans[p.degree].add(p.bits) and p.degree < degree:
            layer_polys[p.degree].append(p)

    for t in relation_trees:
        if tree_degree(t) <= degree:
            insert(tree_poly(t))
    gens = [tree_poly(1), tree_poly(2)]
    for d in range(2, degree + 1):
        for p in layer_polys[d - 1]:
            for x in gens:
                insert(lie_bracket_poly(p, x))
    return {d: free[d] - len(spans[d]) for d in range(1, degree + 1)}


def test_quotient_matches_dense_oracle():
    for relations, top in (
        (RELATION_TREES, 16),
        (shifted_relation_trees(1), 12),
        (shifted_relation_trees(2), 12),
    ):
        dense = quotient_dims_dense(relations, top)
        for d in range(1, top + 1):
            assert quotient_dims(relations, d) == {k: dense[k] for k in range(1, d + 1)}


def test_quotient_matches_dense_oracle_on_random_relators():
    rng = random.Random(20261018)

    def random_tree(d):
        if d == 1:
            return rng.choice((1, 2))
        k = rng.randint(1, d - 1)
        return (random_tree(k), random_tree(d - k))

    # degree-1 relators and relators that vanish in the free algebra included
    for relations in [(1,), ((1, 1),)] + [
        tuple(random_tree(rng.randint(2, 7)) for _ in range(rng.randint(1, 3)))
        for _ in range(30)
    ]:
        assert quotient_dims(relations, 10) == quotient_dims_dense(relations, 10)


class AllTriplesQuotient(_GradedQuotient):
    """Test oracle: the engine with the Jacobi rows of every distinct basis
    triple, not only of those with a degree-1 member."""

    def __init__(self, relation_trees, degree):
        super().__init__(relation_trees, degree)
        self.tables = {}  # every degree's products, not only the last

    def _step(self, c):
        super()._step(c)
        self.tables[c] = self.table

    def _in_basis(self, du, u, dw, w):
        """[u, w] in the basis of degree du + dw."""
        table = self.tables[du + dw]
        return table[dw][w][u] if 2 * dw >= du + dw else table[du][u][w]

    def _jacobi_rows(self, c, products):
        elements = [(d, i) for d in range(1, c - 1) for i in range(self.dims[d])]

        def outer(vec, dz, z):  # [vec, z] as a tail row
            row = 0
            for x in set_bits(vec):
                row ^= products[dz][z][x]
            return row

        for x, (da, a) in enumerate(elements):
            for y in range(x + 1, len(elements)):
                db, b = elements[y]
                for de, e in elements[y + 1 :]:
                    if da + db + de == c:
                        yield (
                            outer(self._in_basis(da, a, db, b), de, e)
                            ^ outer(self._in_basis(db, b, de, e), da, a)
                            ^ outer(self._in_basis(de, e, da, a), db, b)
                        )


def test_generator_jacobi_rows_match_all_triples_oracle():
    for relations, top in (
        ((), 12),
        (RELATION_TREES, 16),
        (shifted_relation_trees(1), 12),
        (shifted_relation_trees(2), 12),
    ):
        assert quotient_dims(relations, top) == AllTriplesQuotient(relations, top).build()


def quotient_dims_all_lyndon(relation_trees, degree):
    """Test oracle: the ideal closed under bracketing each layer with every
    Lyndon basis element of every lower degree."""
    fl = free_lie(degree)
    spans = {d: gf2.Span() for d in range(1, degree + 1)}
    layer_polys = {d: [] for d in range(1, degree + 1)}

    def insert(p, d):
        if p.bits and spans[d].add(p.bits):
            layer_polys[d].append(p)

    for t in relation_trees:
        if tree_degree(t) <= degree:
            insert(tree_poly(t), tree_degree(t))
    for d in range(1, degree + 1):
        for d_low in range(1, d):
            for p in list(layer_polys[d_low]):
                for w in by_degree(fl, d - d_low):
                    insert(lie_bracket_poly(p, fl.polys[w]), d)
    return {d: len(by_degree(fl, d)) - len(spans[d]) for d in range(1, degree + 1)}


def test_generator_closure_matches_all_lyndon_oracle():
    for relations in (RELATION_TREES, shifted_relation_trees(1), shifted_relation_trees(2)):
        assert quotient_dims_dense(relations, 10) == quotient_dims_all_lyndon(relations, 10)


def test_presentation_report_pin_degree_22():
    # the benchmark lattice workload's degree 14 and eight degrees past it
    report = presentation_report(22)
    degrees = range(1, 23)
    assert [report.free[d] for d in degrees] == [
        2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182, 4080,
        7710, 14532, 27594, 52377, 99858, 190557,
    ]
    assert [report.quotient[d] for d in degrees] == [
        2, 1, 2, 2, 2, 2, 4, 5, 8, 11, 18, 25, 40, 58, 90, 135,
        210, 316, 492, 750, 1164, 1791,
    ]
    assert [report.target[d] for d in degrees] == [
        2, 1, 2, 2, 2, 2, 4, 2, 2, 4, 4, 4, 2, 2, 4, 4, 6, 6, 4, 4, 2, 2
    ]


def test_letters_other_than_1_and_2_are_rejected():
    with pytest.raises(InputError):
        tree_poly((1, 3))
    with pytest.raises(InputError):
        quotient_dims(((1, 3),), 4)


def test_word_bit_layout():
    for d in range(1, 7):
        words = sorted(_all_words(d))
        # lexicographic order of words is bit order
        assert [word_bit(w) for w in words] == list(range(1 << d))
        assert [bit_word(b, d) for b in range(1 << d)] == words


def test_express_rejects_a_non_lie_polynomial():
    # x1 x1 leads with a word that is no Lyndon word
    assert express(free_lie(3), Poly(2, 1 << word_bit((1, 1)))) is None


# --- set-of-words oracle --------------------------------------------------------
# Test oracle: a polynomial as the frozenset of its words (tuples of letters),
# multiplied pair by pair.


def _all_words(d):
    if d == 0:
        return [()]
    return [w + (letter,) for w in _all_words(d - 1) for letter in (1, 2)]


def as_words(p):
    return frozenset(bit_word(b, p.degree) for b in range(1 << p.degree) if p.bits >> b & 1)


def set_concat_mul(p, q):
    acc = set()
    for u in p:
        for w in q:
            acc ^= {u + w}
    return frozenset(acc)


def set_lie_bracket(p, q):
    return set_concat_mul(p, q) ^ set_concat_mul(q, p)


def set_tree_poly(t):
    if isinstance(t, int):
        return frozenset({(t,)})
    return set_lie_bracket(set_tree_poly(t[0]), set_tree_poly(t[1]))


def test_lyndon_polys_match_set_of_words_oracle():
    fl = free_lie(12)
    for w, p in fl.polys.items():
        assert as_words(p) == set_tree_poly(fl.trees[w])


def test_shifted_relation_polys_match_set_of_words_oracle():
    trees = [t for t in shifted_relation_trees(2) if tree_degree(t) <= 12]
    assert len(trees) == 7
    for t in trees:
        assert as_words(tree_poly(t)) == set_tree_poly(t)


def test_products_match_set_of_words_oracle_on_random_pairs():
    rng = random.Random(20241011)
    for _ in range(200):
        dp, dq = rng.randint(1, 6), rng.randint(1, 6)
        p, q = Poly(dp, rng.getrandbits(1 << dp)), Poly(dq, rng.getrandbits(1 << dq))
        assert as_words(concat_mul(p, q)) == set_concat_mul(as_words(p), as_words(q))
        assert as_words(lie_bracket_poly(p, q)) == set_lie_bracket(as_words(p), as_words(q))
