"""Lie-word expressions, evaluated as they are parsed.

Grammar (whitespace free between tokens is not required):

    expr     := term { "+" term }
    term     := atom | bracket | atom "^" INT
    bracket  := "[" expr { "," expr } "]"          (>= 2 arguments)
    atom     := { "t" INT "*" } "v" INT

The recursive-descent parser returns each value as soon as its text is
read; no syntax tree is built.  Bracket lists are left-normed.  A
standalone power must be a power of two and means iterated squaring (only
p-th powers exist).  A bracket argument after the first that is exactly
``x^k`` means ``ad(x)^k u`` for any k >= 1, computed as the product of
``ad(x^[2^j])`` over the set bits j of k by the restricted identity
``ad(x)^2 = ad(x^[2])``, so about log2 k brackets.

Brackets nest at most ``MAX_DEPTH`` deep.  Each level costs the parser two
Python frames, so the deepest admitted text stays well inside the default
recursion limit, and a text nested deeper is refused at the same bracket
whatever the caller's stack depth.
"""

from __future__ import annotations

import re

from .core import (
    Element,
    FibLieError,
    Monomial,
    ZERO,
    _check_index,
    bracket,
    power_2k,
    square,
)


class ParseError(FibLieError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


MAX_DEPTH = 300

_TOKEN = re.compile(r"([tv]?\d+|[\[\],+*^])|(\S)")

# a term "x^k" stays (x, k, position of k) until its reading is known
Term = Element | tuple[Element, int, int]


def _number(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-string limit
        raise ParseError(f"number of {len(digits)} digits is too long", pos) from None


def _value(term: Term) -> Element:
    """A term as an element: a power x^k needs k = 2^j and is x squared j times."""
    if isinstance(term, Element):
        return term
    x, k, pos = term
    if k < 1 or k & (k - 1):
        raise ParseError(f"only powers of two exist; {k} is not one", pos)
    return power_2k(x, k.bit_length() - 1)


def _ad(u: Element, term: Term) -> Element:
    """[u, term]; a bare power x^k gives ad(x)^k u, the product of
    ad(x^[2^j]) over the set bits j of k applied to u."""
    if isinstance(term, Element):
        return bracket(u, term)
    x, k, pos = term
    if k < 1:
        raise ParseError("bracket power must be >= 1", pos)
    while u and k:
        if k & 1:
            u = bracket(u, x)
        k >>= 1
        if k:
            x = square(x)
    return u


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens: list[tuple[str, int]] = []
        for m in _TOKEN.finditer(text):
            if m.group(2):
                raise ParseError(f"unexpected character {m.group(2)!r}", m.start())
            self.tokens.append((m.group(1), m.start()))
        self.tokens.append(("", len(text)))  # end of input
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self) -> tuple[str, int]:
        tok = self.tokens[self.i]
        if not tok[0]:
            raise ParseError("unexpected end of input", tok[1])
        self.i += 1
        return tok

    def expect(self, symbol: str) -> None:
        tok, pos = self.take()
        if tok != symbol:
            raise ParseError(f"expected {symbol!r}, found {tok!r}", pos)

    def expr(self) -> Term:
        # a term is read here, not in a method of its own, so that one level
        # of brackets costs two frames: expr and bracket
        term = self.bracket() if self.peek() == "[" else self.power()
        while self.peek() == "+":
            self.take()
            nxt = self.bracket() if self.peek() == "[" else self.power()
            term = _value(term) + _value(nxt)
        return term

    def power(self) -> Term:
        """atom, or atom "^" INT."""
        x = self.atom()
        if self.peek() != "^":
            return x
        self.take()
        num, pos = self.take()
        if not num.isdigit():
            raise ParseError(f"expected an exponent, found {num!r}", pos)
        return x, _number(num, pos), pos

    def bracket(self) -> Element:
        _, start = self.take()  # "["
        if self.depth == MAX_DEPTH:
            raise ParseError(f"brackets nested more than {MAX_DEPTH} deep", start)
        self.depth += 1
        acc = self.expr()
        args = 1
        while self.peek() == ",":
            self.take()
            acc = _ad(_value(acc), self.expr())
            args += 1
        self.expect("]")
        self.depth -= 1
        if args < 2:
            raise ParseError("bracket needs at least two arguments", start)
        return acc

    def atom(self) -> Element:
        start = self.tokens[self.i][1]
        tails: list[int] = []
        tok, pos = self.take()
        while tok.startswith("t"):
            tails.append(_number(tok[1:], pos))
            self.expect("*")
            tok, pos = self.take()
        if not tok.startswith("v"):
            raise ParseError(f"expected a monomial, found {tok!r}", pos)
        pivot = _number(tok[1:], pos)
        if pivot < 1:
            raise ParseError("pivot index must be >= 1", start)
        for i in tails:
            _check_index(i)
        if len(set(tails)) < len(tails):
            return ZERO  # t_i^2 = 0
        return Element({Monomial(pivot, sum(1 << i for i in tails))})


def eval_text(text: str) -> Element:
    if text.strip() == "0":
        return ZERO
    parser = _Parser(text)
    term = parser.expr()
    tok, pos = parser.tokens[parser.i]
    if tok:
        raise ParseError(f"trailing input {tok!r}", pos)
    return _value(term)
