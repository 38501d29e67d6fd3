"""Parser and evaluator for Lie-word expressions.

Grammar (whitespace free between tokens is not required):

    expr     := term { "+" term }
    term     := atom | bracket | atom "^" INT
    bracket  := "[" expr { "," expr } "]"          (>= 2 arguments)
    atom     := { "t" INT "*" } "v" INT

Bracket lists are left-normed.  A standalone power must be a power of
two and means iterated squaring (only p-th powers exist).  Inside a
bracket, a trailing-argument power ``[u, x^k]`` abbreviates k repeated
bracketings by x, for any k >= 1; for powers of two the two readings
agree by the restricted identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    Element,
    FibLieError,
    Monomial,
    ZERO,
    _check_index,
    bracket,
    power_2k,
)


class ParseError(FibLieError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Atom:
    tails: tuple[int, ...]
    pivot: int
    pos: int


@dataclass(frozen=True)
class Pow:
    base: Atom
    exponent: int
    pos: int


@dataclass(frozen=True)
class Brack:
    args: tuple["Node", ...]
    pos: int


@dataclass(frozen=True)
class Sum:
    terms: tuple["Node", ...]
    pos: int


Node = Atom | Pow | Brack | Sum

_TOKEN = re.compile(r"\s*(?:(t\d+)|(v\d+)|(\d+)|([\[\],+*^]))")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {text[at]!r}", at)
            token = next(g for g in m.groups() if g is not None)
            self.tokens.append((token, m.end() - len(token)))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text)

    def take(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, symbol: str) -> None:
        tok, pos = self.take()
        if tok != symbol:
            raise ParseError(f"expected {symbol!r}, found {tok!r}", pos)

    def parse(self) -> Node:
        node = self.parse_expr()
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError(f"trailing input {tok!r}", pos)
        return node

    def parse_expr(self) -> Node:
        start = self.pos()
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.take()
            terms.append(self.parse_term())
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms), start)

    def parse_term(self) -> Node:
        tok = self.peek()
        if tok == "[":
            return self.parse_bracket()
        atom = self.parse_atom()
        if self.peek() == "^":
            self.take()
            num, pos = self.take()
            if not num.isdigit():
                raise ParseError(f"expected an exponent, found {num!r}", pos)
            return Pow(atom, int(num), pos)
        return atom

    def parse_bracket(self) -> Brack:
        _, start = self.take()  # "["
        args = [self.parse_expr()]
        while self.peek() == ",":
            self.take()
            args.append(self.parse_expr())
        self.expect("]")
        if len(args) < 2:
            raise ParseError("bracket needs at least two arguments", start)
        return Brack(tuple(args), start)

    def parse_atom(self) -> Atom:
        tails: list[int] = []
        start = self.pos()
        while True:
            tok, pos = self.take()
            if tok.startswith("t"):
                tails.append(int(tok[1:]))
                self.expect("*")
                continue
            if tok.startswith("v"):
                return Atom(tuple(tails), int(tok[1:]), start)
            raise ParseError(f"expected a monomial, found {tok!r}", pos)


def parse(text: str) -> Node:
    if text.strip() == "0":
        return Sum((), 0)
    return _Parser(text).parse()


def _eval_atom(node: Atom) -> Element:
    for i in node.tails:
        _check_index(i)
    mask = 0
    for i in node.tails:
        bit = 1 << i
        if mask & bit:
            return ZERO  # t_i^2 = 0
        mask |= bit
    if node.pivot < 1:
        raise ParseError("pivot index must be >= 1", node.pos)
    return Element(frozenset({Monomial(node.pivot, mask)}))


def _eval_power(node: Pow) -> Element:
    k = node.exponent
    if k < 1 or k & (k - 1):
        raise ParseError(
            f"only powers of two exist; {k} is not one", node.pos
        )
    return power_2k(_eval_atom(node.base), k.bit_length() - 1)


def evaluate(node: Node) -> Element:
    if isinstance(node, Atom):
        return _eval_atom(node)
    if isinstance(node, Pow):
        return _eval_power(node)
    if isinstance(node, Sum):
        acc = ZERO
        for term in node.terms:
            acc = acc + evaluate(term)
        return acc
    if isinstance(node, Brack):
        acc = evaluate(node.args[0])
        for arg in node.args[1:]:
            if isinstance(arg, Pow):
                # [u, x^k] = [u, x, ..., x] with k repetitions
                if arg.exponent < 1:
                    raise ParseError("bracket power must be >= 1", arg.pos)
                rep = _eval_atom(arg.base)
                for _ in range(arg.exponent):
                    acc = bracket(acc, rep)
            else:
                acc = bracket(acc, evaluate(arg))
        return acc
    raise TypeError(f"unknown node {node!r}")


def eval_text(text: str) -> Element:
    return evaluate(parse(text))
