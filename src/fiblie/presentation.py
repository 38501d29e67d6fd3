"""Degree-truncated free Lie algebra on two generators over GF(2), and the
quotient by the three defining relations of the algebra.

The free Lie algebra is realised inside the free associative algebra on
x1, x2.  A homogeneous polynomial of degree d is a ``Poly(d, bits)``: bits
is a packed int over the 2^d words of length d, the word (l_1, ..., l_d)
at bit sum (l_i - 1) 2^(d-i).  Bit order is then lexicographic order, so
the leading (least) word of a polynomial is its lowest set bit, and bits
is already the polynomial's ``gf2.Span`` row.  Lyndon-word standard
bracketings expand triangularly with leading word the Lyndon word itself,
so they stay independent over GF(2), and the free dimension in degree d is
the number of Lyndon words of length d (``free_dims``).  The relation
ideal is closed degree by degree under bracketing with the two generators,
so the quotient expands no basis table, only relations and generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import gf2, series
from .core import LIMITS, Element, FibLieError, InputError, MonomialLimitError, bracket, power_2k, v

Word = tuple[int, ...]
Tree = int | tuple  # a letter, or a pair of trees


class Poly(NamedTuple):
    """Homogeneous polynomial: the words of length ``degree`` whose bits are set."""

    degree: int
    bits: int


def word_bit(w: Word) -> int:
    """Bit of the word w: its letters minus one, read as a binary number."""
    return sum((letter - 1) << (len(w) - 1 - i) for i, letter in enumerate(w))


def bit_word(bit: int, degree: int) -> Word:
    return tuple(int(c) + 1 for c in format(bit, f"0{degree}b"))


def concat_mul(p: Poly, q: Poly) -> Poly:
    """Concatenation product: word u of p times word w of q is at bit u 2^deg(q) + w."""
    acc, digits = 0, bin(p.bits)[:1:-1]  # digits[u] is bit u of p
    u = digits.find("1")
    while u >= 0:
        acc ^= q.bits << (u << q.degree)
        u = digits.find("1", u + 1)
    return Poly(p.degree + q.degree, acc)


def lie_bracket_poly(p: Poly, q: Poly) -> Poly:
    return Poly(p.degree + q.degree, concat_mul(p, q).bits ^ concat_mul(q, p).bits)


def lyndon_words(alphabet: int, max_len: int) -> list[Word]:
    """Duval's generation, lexicographic order, lengths 1..max_len; a degree-max_len
    polynomial is a row of alphabet^max_len bits, held to ``LIMITS.monomial_limit``."""
    if max_len < 1:
        raise InputError(f"word length cap must be >= 1, got {max_len}")
    cap = LIMITS.monomial_limit  # the length test spares forming a huge power
    if max_len > cap.bit_length() or alphabet**max_len > cap:
        raise MonomialLimitError(f"{alphabet}^{max_len}-bit rows exceed the cap {cap}")
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
    """Lyndon basis through total degree ``degree``."""

    degree: int
    words: list[Word] = field(default_factory=list)
    trees: dict[Word, Tree] = field(default_factory=dict)
    polys: dict[Word, Poly] = field(default_factory=dict)

    def by_degree(self, d: int) -> list[Word]:
        return [w for w in self.words if len(w) == d]

    def bracket_in_basis(self, w1: Word, w2: Word) -> set[Word]:
        """Structure constants: [b(w1), b(w2)] expanded in the Lyndon basis."""
        d = len(w1) + len(w2)
        if d > self.degree:
            raise InputError("bracket degree exceeds the table cap")
        return self.express(lie_bracket_poly(self.polys[w1], self.polys[w2]))

    def express(self, p: Poly) -> set[Word]:
        """Write a Lie polynomial in the basis (triangular reduction on
        leading Lyndon words, the lowest set bits)."""
        support: set[Word] = set()
        rest = p.bits
        while rest:
            lead = bit_word((rest & -rest).bit_length() - 1, p.degree)
            if lead not in self.polys:
                raise FibLieError(f"not in the Lie span: leading word {lead}")
            support.add(lead)
            rest ^= self.polys[lead].bits
        return support


def free_lie(degree: int) -> FreeLieBasis:
    """Lyndon basis and expansion data up to the total degree cap."""
    fl = FreeLieBasis(degree, lyndon_words(2, degree))
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


def free_dims(degree: int) -> dict[int, int]:
    """Free Lie algebra dimensions in degrees 1..degree: Lyndon words per length."""
    words = lyndon_words(2, degree)  # raises before the dict below is made
    dims = dict.fromkeys(range(1, degree + 1), 0)
    for w in words:
        dims[len(w)] += 1
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


def quotient_dims(relation_trees: tuple[Tree, ...], degree: int) -> dict[int, int]:
    """Dimensions per total degree of (free Lie algebra)/(ideal generated by
    the relations), the ideal closed degree by degree under bracketing
    with the generators x1, x2 (enough, since ad [a,b] = [ad a, ad b])."""
    free = free_dims(degree)
    # spans[d]: reduced generating rows of the degree-d ideal layer;
    # layer_polys[d]: its inserted polynomials, kept only where a bracket reads them
    spans: dict[int, gf2.Span] = {d: gf2.Span() for d in range(1, degree + 1)}
    layer_polys: dict[int, list[Poly]] = {d: [] for d in range(1, degree)}

    def insert(p: Poly) -> None:
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


def target_dims(degree: int) -> dict[int, int]:
    """dim of the algebra per total degree, from basis enumeration."""
    h = series.hilbert_one_var(degree)
    return {d: h[d] for d in range(1, degree + 1)}


@dataclass
class PresentationReport:
    degree: int
    free: dict[int, int]
    quotient: dict[int, int]
    target: dict[int, int]

    def matches_through(self, degree: int) -> bool:
        return all(self.quotient[d] == self.target[d] for d in range(1, degree + 1))


def presentation_report(degree: int = 7) -> PresentationReport:
    return PresentationReport(
        degree=degree,
        free=free_dims(degree),
        quotient=quotient_dims(RELATION_TREES, degree),
        target=target_dims(degree),
    )
