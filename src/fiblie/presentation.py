"""The free Lie algebra on two generators over GF(2), and its quotient by
the three defining relations of the algebra.

The quotient is built by a graded nilpotent-quotient engine (Havas, Newman
and Vaughan-Lee, J. Symbolic Comput. 9 (1990); Schneider, DMTCS 1 (1997)):
degree by degree over the quotient's own basis, with rows over the tails
[b, x] of one degree (``_GradedQuotient``).  Its cost follows the quotient
(dimension 316 at degree 18), not the free algebra (14532).  ``free_dims``
counts the free algebra by Witt's formula and holds the tail rows, at most
2 dim F_{d-1} bits, to ``LIMITS.monomial_limit``.

The free algebra itself is realised inside the free associative algebra
on x1, x2, for the Lyndon basis (``free_lie``).  No dimension above reads
it: it is the tests' independent oracle of the quotient engine.  A
homogeneous polynomial of degree d is a ``Poly(d, bits)``: bits is a
packed int over the 2^d words of length d, the word (l_1, ..., l_d) at bit
sum (l_i - 1) 2^(d-i).  Bit order is then lexicographic order, so the
leading (least) word of a polynomial is its lowest set bit.  Lyndon-word
standard bracketings expand triangularly with leading word the Lyndon word
itself, so they stay independent over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import xor
from typing import Iterable, Iterator, NamedTuple

from . import gf2, series
from .core import (
    LIMITS,
    Element,
    FibLieError,
    InputError,
    bracket,
    check_cap,
    power_2k,
    set_bits,
    v,
)

Word = tuple[int, ...]
Tree = int | tuple  # a letter, or a pair of trees


class Poly(NamedTuple):
    """Homogeneous polynomial: the words of length ``degree`` whose bits are set."""

    degree: int
    bits: int


def word_bit(w: Word) -> int:
    """Bit of the word w: its letters minus one, read as a binary number."""
    return sum((letter - 1) << (len(w) - 1 - i) for i, letter in enumerate(w))


def concat_mul(p: Poly, q: Poly) -> Poly:
    """Concatenation product: word u of p times word w of q is at bit u 2^deg(q) + w."""
    acc = 0
    for u in set_bits(p.bits):
        acc ^= q.bits << (u << q.degree)
    return Poly(p.degree + q.degree, acc)


def lie_bracket_poly(p: Poly, q: Poly) -> Poly:
    return Poly(p.degree + q.degree, concat_mul(p, q).bits ^ concat_mul(q, p).bits)


def lyndon_words(alphabet: int, max_len: int) -> list[Word]:
    """Duval's generation, lexicographic order, lengths 1..max_len; a degree-max_len
    polynomial is a row of alphabet^max_len bits, held to ``LIMITS.monomial_limit``."""
    if max_len < 1:
        raise InputError(f"word length cap must be >= 1, got {max_len}")
    # 2^past bits already exceed the cap, so no power past that is formed
    past = LIMITS.monomial_limit.bit_length()
    short = max_len < past
    check_cap(
        alphabet**max_len if short else 1 << past,
        f"{'' if short else 'or more '}bits of a degree-{max_len} row",
    )
    out: list[Word] = []
    w = [0]
    while w:
        out.append(tuple(x + 1 for x in w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet - 1:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(out, key=lambda word: (len(word), word))


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """w = uv with v the longest proper Lyndon suffix."""
    best = None
    for i in range(1, len(w)):
        suffix = w[i:]
        if _is_lyndon(suffix):
            best = i
            break
    if best is None:
        raise InputError(f"{w} has no Lyndon factorization")
    return w[:best], w[best:]


def _is_lyndon(w: Word) -> bool:
    return all(w < w[i:] for i in range(1, len(w)))


def tree_poly(t: Tree) -> Poly:
    if isinstance(t, int):
        if t not in (1, 2):
            raise InputError(f"letters are 1 and 2, got {t}")
        return Poly(1, 1 << (t - 1))
    return lie_bracket_poly(tree_poly(t[0]), tree_poly(t[1]))


def tree_degree(t: Tree) -> int:
    if isinstance(t, int):
        return 1
    return tree_degree(t[0]) + tree_degree(t[1])


def left_normed(letters: list[int]) -> Tree:
    tree: Tree = letters[0]
    for letter in letters[1:]:
        tree = (tree, letter)
    return tree


@dataclass
class FreeLieBasis:
    """The Lyndon words, their standard bracketings and their polynomials."""

    words: list[Word]
    trees: dict[Word, Tree] = field(default_factory=dict)
    polys: dict[Word, Poly] = field(default_factory=dict)


def free_lie(degree: int) -> FreeLieBasis:
    """Lyndon basis and expansion data up to the total degree cap."""
    fl = FreeLieBasis(lyndon_words(2, degree))
    # shorter words come first, so both standard factors are already in the table
    for w in fl.words:
        if len(w) == 1:
            fl.trees[w], fl.polys[w] = w[0], tree_poly(w[0])
            continue
        u, s = standard_factorization(w)
        p = lie_bracket_poly(fl.polys[u], fl.polys[s])
        if p.bits & -p.bits != 1 << word_bit(w):
            raise FibLieError(f"Lyndon bracketing of {w} lost its leading word")
        fl.trees[w], fl.polys[w] = (fl.trees[u], fl.trees[s]), p
    return fl


def _mobius(n: int) -> int:
    """The Mobius function mu(n)."""
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def free_dims(degree: int) -> dict[int, int]:
    """Free Lie algebra dimensions in degrees 1..degree, by Witt's formula
    dim F_d = (1/d) sum_{e | d} mu(e) 2^(d/e).

    A degree-d tail row of the quotient engine has at most 2 dim F_{d-1}
    bits, and that width is held to ``LIMITS.monomial_limit`` degree by
    degree: a huge request stops at the first degree past the cap."""
    if degree < 1:
        raise InputError(f"degree must be >= 1, got {degree}")
    dims: dict[int, int] = {}
    for d in range(1, degree + 1):
        if d > 1:
            check_cap(2 * dims[d - 1], f"possible bits of a degree-{d} tail row")
        dims[d] = sum(_mobius(e) << (d // e) for e in range(1, d + 1) if d % e == 0) // d
    return dims


def evaluate(tree: Tree, assignment: dict[int, Element]) -> Element:
    """Structural evaluation of a bracketing through the monomial engine."""
    if isinstance(tree, int):
        return assignment[tree]
    return bracket(evaluate(tree[0], assignment), evaluate(tree[1], assignment))


# the defining relations, as left-normed Lie words in x1, x2
RELATION_TREES: tuple[Tree, ...] = (
    left_normed([2, 1, 1, 1]),
    left_normed([2, 1, 1, 2, 2]),
    left_normed([1, 2, 2, 2, 2]),
)


def pivot_tree(n: int) -> Tree:
    """v_n as a bracketing of the generators: v_{k+2} = [v_k, v_{k+1}]."""
    if n < 1:
        raise InputError(f"pivot_tree needs n >= 1, got {n}")
    tree, nxt = 1, 2
    for _ in range(n - 1):
        tree, nxt = nxt, (tree, nxt)
    return tree


def _substitute(tree: Tree, images: dict[int, Tree]) -> Tree:
    if isinstance(tree, int):
        return images[tree]
    return (_substitute(tree[0], images), _substitute(tree[1], images))


def shifted_relation_trees(shifts: int) -> tuple[Tree, ...]:
    """The relations together with their first ``shifts`` shift images,
    written in the free generators via the pivot bracketings."""
    if shifts < 0:
        raise InputError("shift count must be >= 0")
    out = list(RELATION_TREES)
    for k in range(1, shifts + 1):
        images = {1: pivot_tree(1 + k), 2: pivot_tree(2 + k)}
        out.extend(_substitute(t, images) for t in RELATION_TREES)
    return tuple(out)


def relations_vanish(shift: int = 0) -> bool:
    """The three relations evaluate to zero under x_i -> v_{i+shift}."""
    assignment = {1: v(1 + shift), 2: v(2 + shift)}
    return all(not evaluate(t, assignment) for t in RELATION_TREES)


def relation_shifts_check(k_max: int) -> bool:
    """Relations and the restricted relation v_1^4 = 0, with all shifts."""
    for k in range(k_max + 1):
        if not relations_vanish(k):
            return False
        if power_2k(v(1 + k), 2):
            return False
    return True


def _tail_images(rows: Iterable[int], width: int) -> tuple[list[int], list[int]]:
    """Eliminate the rows over ``width`` tails.  Returns the tails that are
    no pivot, which become the new basis in this order, and every tail's
    coordinates in that basis."""
    span = gf2.Span()
    for row in rows:
        span.add(row)
    # back-substitution in pivot order leaves each row one pivot, its top bit
    reduced: dict[int, int] = {}
    pivot_mask = 0
    for key in sorted(span.pivots):
        row = span.pivots[key]
        for p in set_bits(row & pivot_mask):
            row ^= reduced[p]
        reduced[key - 1] = row
        pivot_mask |= 1 << (key - 1)
    basis = set_bits(~pivot_mask & ((1 << width) - 1))
    images = [0] * width
    for i, t in enumerate(basis):
        images[t] = 1 << i
    for p, row in reduced.items():
        images[p] = reduce(xor, map(images.__getitem__, set_bits(row ^ (1 << p))), 0)
    return basis, images


class _GradedQuotient:
    """The relation quotient Q, built degree by degree over its own basis.

    Each basis element of degree k >= 2 is defined as [b, g], with b a basis
    element of degree k - 1 and g one of degree 1.  The candidates for
    degree c are the tails [b, g], numbered g dim Q_{c-1} + b, and a
    product of degree c is a row over the tails: expanding the right factor
    by its definition, [u, [w', g]] = [[u, w'], g] + [[u, g], w'], gives a
    tail row from degree c - 1 plus products with a shallower right factor.
    The rows that vanish in Q are the symmetry rows [u, w] + [w, u] and
    [u, u] on basis pairs, the Jacobi rows on distinct basis triples with a
    degree-1 member, and the relators of degree c.  The Jacobi rows with a
    generator suffice: if every ad g is a derivation, so is every
    ad [b, g] = [ad b, ad g].  The tails that are no pivot of these rows
    form the basis of degree c.
    """

    def __init__(self, relation_trees: tuple[Tree, ...], degree: int) -> None:
        self.degree = degree
        self.dims: dict[int, int] = {}
        # defs[c][i] = (b, g): basis element i of degree c is [b, g]
        self.defs: dict[int, list[tuple[int, int]]] = {}
        # table[j][w][u]: [u, w] in the basis of the last degree k built, for
        # right factors w of degree j at least as deep as the left (2j >= k)
        self.table: dict[int, list[list[int]]] = {}
        # gen_bits[k][a][g]: the support of [g, a] = [a, g], a of degree k
        self.gen_bits: dict[int, list[list[list[int]]]] = {}
        # values[t]: a relator subtree in the basis of its degree
        self.values: dict[Tree, int] = {}
        self.subtrees: dict[int, list[Tree]] = {}
        self.relators: dict[int, list[Tree]] = {}
        for t in relation_trees:
            d = tree_degree(t)
            if d <= degree:
                self.relators.setdefault(d, []).append(t)
                self._collect(t)

    def _collect(self, t: Tree) -> int:
        """Group t and its subtrees by degree; returns the degree of t."""
        if isinstance(t, int):
            if t not in (1, 2):
                raise InputError(f"letters are 1 and 2, got {t}")
            return 1
        d = self._collect(t[0]) + self._collect(t[1])
        layer = self.subtrees.setdefault(d, [])
        if t not in layer:
            layer.append(t)
        return d

    def build(self) -> dict[int, int]:
        """The dimensions of Q in degrees 1..degree."""
        for c in range(1, self.degree + 1):
            if c > 1 and not self.dims[c - 1]:
                self.dims[c] = 0  # Q is generated in degree 1
            else:
                self._step(c)
        return self.dims

    def _step(self, c: int) -> None:
        if c == 1:
            width, products, consistency = 2, {}, iter(())
            tail_values = {letter: 1 << (letter - 1) for letter in (1, 2)}
        else:
            width = self.dims[1] * self.dims[c - 1]
            products = self._products(c)
            consistency = chain(self._symmetry_rows(c, products), self._jacobi_rows(c, products))
            tail_values = {t: self._evaluate(t, products) for t in self.subtrees.get(c, ())}
        relators = (tail_values[t] for t in self.relators.get(c, ()))
        basis, images = _tail_images(chain(consistency, relators), width)

        def image(v: int) -> int:
            return reduce(xor, map(images.__getitem__, set_bits(v)), 0)

        self.dims[c] = len(basis)
        self.values.update((t, image(v)) for t, v in tail_values.items())
        # products of degree c in Q, one of each symmetric pair
        self.table = {j: [[image(v) for v in col] for col in products[j]]
                      for j in products if 2 * j >= c}
        if c > 1:
            n = self.dims[c - 1]
            self.defs[c] = [(t % n, t // n) for t in basis]
            self.gen_bits[c - 1] = [[set_bits(v) for v in col] for col in self.table[c - 1]]

    def _products(self, c: int) -> dict[int, list[list[int]]]:
        """products[j][w][u] = [u, w] as a tail row, w of degree j, u of degree c - j."""
        n = self.dims[c - 1]
        products = {1: [[1 << (g * n + u) for u in range(n)] for g in range(self.dims[1])]}
        for j in range(2, c):
            i = c - j
            if 2 * (j - 1) >= c - 1:
                below = self.table[j - 1]  # below[w'][u] = [u, w']
            else:
                below = list(zip(*self.table[i]))
            bits = self.gen_bits[i]  # bits[u][g]: the support of [u, g]
            shallower = products[j - 1]  # shallower[w'][x] = [x, w']
            layer = []
            for w1, g in self.defs[j]:
                col, shift, term = below[w1], g * n, shallower[w1].__getitem__
                layer.append([reduce(xor, map(term, bits[u][g]), col[u] << shift)
                              for u in range(len(col))])
            products[j] = layer
        return products

    def _symmetry_rows(self, c: int, products: dict[int, list[list[int]]]) -> Iterator[int]:
        for j in range((c + 1) // 2, c):
            i = c - j
            for w, col in enumerate(products[j]):
                if i == j:
                    yield col[w]
                    yield from (col[u] ^ products[j][u][w] for u in range(w))
                else:
                    yield from (col[u] ^ products[i][u][w] for u in range(len(col)))

    def _jacobi_rows(self, c: int, products: dict[int, list[list[int]]]) -> Iterator[int]:
        """[[a, b], g] + [[b, g], a] + [[g, a], b] for g < a < b, g of degree 1."""
        n = self.dims[c - 1]
        for g in range(self.dims[1]):
            for da in range(1, (c - 1) // 2 + 1):
                db = c - 1 - da
                for b in range(self.dims[db]):
                    if db == 1 and b <= g:
                        continue
                    ab, bg = self.table[db][b], self.gen_bits[db][b][g]
                    right_b = products[db][b].__getitem__
                    for a in range(b if da == db else self.dims[da]):
                        if da == 1 and a <= g:
                            continue
                        row = reduce(xor, map(products[da][a].__getitem__, bg), ab[a] << (g * n))
                        yield reduce(xor, map(right_b, self.gen_bits[da][a][g]), row)

    def _evaluate(self, t: tuple, products: dict[int, list[list[int]]]) -> int:
        left = set_bits(self.values[t[0]])
        table = products[tree_degree(t[1])]
        row = 0
        for y in set_bits(self.values[t[1]]):
            row = reduce(xor, map(table[y].__getitem__, left), row)
        return row


def quotient_dims(relation_trees: tuple[Tree, ...], degree: int) -> dict[int, int]:
    """Dimensions per total degree of (free Lie algebra)/(ideal generated by
    the relations), built by the graded nilpotent-quotient engine."""
    free_dims(degree)  # holds the tail-row width before any degree is built
    return _GradedQuotient(relation_trees, degree).build()


def target_dims(degree: int) -> dict[int, int]:
    """dim of the algebra per total degree, from basis enumeration."""
    h = series.hilbert_one_var(degree)
    return {d: h[d] for d in range(1, degree + 1)}


@dataclass
class PresentationReport:
    free: dict[int, int]
    quotient: dict[int, int]
    target: dict[int, int]

    def matches_through(self, degree: int) -> bool:
        return all(self.quotient[d] == self.target[d] for d in range(1, degree + 1))


def presentation_report(degree: int = 7) -> PresentationReport:
    return PresentationReport(
        free=free_dims(degree),
        quotient=quotient_dims(RELATION_TREES, degree),
        target=target_dims(degree),
    )
