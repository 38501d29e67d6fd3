"""Unit tests for the Lie-word expression grammar."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiblie.basis import enumerate_W_upto
from fiblie.core import (
    ZERO,
    FibLieError,
    bracket,
    element,
    format_element,
    monomial,
    square,
    v,
)
from fiblie.expr import MAX_DEPTH, ParseError, eval_text


def test_examples():
    assert eval_text("[v2,v1,v1,v1]") == ZERO
    assert format_element(eval_text("t0*t1*v5")) == "t0*t1*v5"
    assert eval_text("v1^4") == ZERO
    assert format_element(eval_text("[v1,v2]")) == "v3"
    assert format_element(eval_text("[v1,v4]")) == "t0*t1*v5"
    assert eval_text("v1^2 + v1^2") == ZERO
    assert eval_text("0") == ZERO


def test_power_sugar_in_brackets():
    assert eval_text("[v2,v1^3]") == ZERO
    assert eval_text("[v2,v1^2,v2^2]") == ZERO
    assert eval_text("[v1,v2^4]") == ZERO
    # powers of two agree with the repeated-bracket reading
    assert eval_text("[v2,v1^2]") == eval_text("[v2,v1,v1]")
    # a first-argument power is the formal p-th power
    assert eval_text("[v1^2,v2]") == eval_text("[v1,[v1,v2]]")


def test_whitespace_and_nesting():
    assert eval_text(" [ v1 , [ v2 , v3 ] ] ") == eval_text("[v1,[v2,v3]]")
    assert format_element(eval_text("[[v1,v2],v3]")) == format_element(
        eval_text("[v1,v2,v3]")
    )


def test_errors_have_positions():
    cases = {
        "v1^3": 3,
        "[v1]": 0,
        "v1 +": 4,
        "[v1,v2": 6,
        "v0": 0,
        "t0*t0*v0": 0,  # the pivot is checked before t_0^2 = 0
    }
    for text, pos in cases.items():
        with pytest.raises(ParseError) as err:
            eval_text(text)
        assert err.value.pos == pos
    for text in ("q9", "t0t1*v5"):
        with pytest.raises(ParseError):
            eval_text(text)


def test_duplicate_tail_factor_is_zero():
    # R = GF(2)[t_0, t_1, ...]/(t_i^2), so a repeated factor is 0, not an error
    assert eval_text("t0*t0*v4") == ZERO
    assert eval_text("t1*t0*t1*v5 + v3") == v(3)


W7 = [m for level in enumerate_W_upto(7, "restricted") for m in level]
elements = st.lists(st.sampled_from(W7), min_size=0, max_size=4).map(element)


@settings(max_examples=250, deadline=None)
@given(elements)
def test_eval_of_canonical_print_is_identity(e):
    assert eval_text(format_element(e)) == e


@settings(max_examples=250, deadline=None)
@given(elements)
def test_print_eval_idempotent(e):
    text = format_element(e)
    assert format_element(eval_text(text)) == text


def _random_atom(rng: random.Random):
    """An atom's text and value; a repeated tail factor makes it 0."""
    tails = rng.sample(range(7), rng.choice((0, 0, 1, 2)))
    if tails and rng.random() < 0.1:
        tails.append(tails[0])
    pivot = rng.randint(1, 8)
    text = "".join(f"t{i}*" for i in tails) + f"v{pivot}"
    if len(set(tails)) < len(tails):
        return text, ZERO
    return text, element([monomial(pivot, tails)])


def _random_expression(rng: random.Random, depth: int):
    """A random text with its value, built through core.bracket, core.square
    and + rather than the parser: a power of two is iterated squaring, and a
    trailing bracket argument x^k is the k-fold bracket by x."""
    terms = []
    for _ in range(rng.choice((1, 1, 1, 2))):
        kind = rng.random()
        if depth and kind < 0.4:
            text, value = _random_expression(rng, depth - 1)
            texts = [text]
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.4:
                    x_text, x = _random_atom(rng)
                    k = rng.randint(1, 9)
                    texts.append(f"{x_text}^{k}")
                    for _ in range(k):
                        value = bracket(value, x)
                else:
                    arg_text, arg = _random_expression(rng, depth - 1)
                    texts.append(arg_text)
                    value = bracket(value, arg)
            terms.append((f"[{', '.join(texts)}]", value))
        elif kind < 0.6:
            text, value = _random_atom(rng)
            j = rng.randint(0, 3)
            for _ in range(j):
                value = square(value)
            terms.append((f"{text}^{2**j}", value))
        else:
            terms.append(_random_atom(rng))
    value = ZERO
    for _, term_value in terms:
        value = value + term_value
    return " + ".join(text for text, _ in terms), value


def test_random_expressions_match_their_built_values():
    rng = random.Random(20240915)
    for _ in range(2500):
        text, value = _random_expression(rng, rng.randint(0, 3))
        assert eval_text(text) == value, text


@pytest.mark.parametrize(
    "x", ["v1", "v2", "v7", "t0*v4", "t2*v3", "t1*t3*v6", "t5*v2"]
)
@pytest.mark.parametrize("u", ["v1", "v3", "t0*v5", "[v1,v2]", "v2+t1*v5"])
def test_bracket_power_is_the_k_fold_bracket(u, x):
    acc, atom = eval_text(u), eval_text(x)
    for k in range(1, 41):
        acc = bracket(acc, atom)
        assert eval_text(f"[{u},{x}^{k}]") == acc, k


def test_bracket_power_takes_log_k_brackets():
    start = time.perf_counter()
    assert eval_text("[v1,v2^1000000000]") == ZERO
    assert time.perf_counter() - start < 1.0


def test_long_numbers_and_deep_nesting_are_parse_errors():
    for text, pos in (("v" + "1" * 5000, 0), ("v1^" + "1" * 5000, 3)):
        with pytest.raises(ParseError) as err:
            eval_text(text)
        assert err.value.pos == pos
    with pytest.raises(ParseError):
        eval_text("[v1," * 400 + "v2" + "]" * 400)
    text, value = "v2", v(2)
    for _ in range(300):
        text = f"[v1,{text}+v2]"
        value = bracket(v(1), value + v(2))
    assert eval_text(text) == value != ZERO


def test_deep_nesting_is_refused_at_the_same_bracket_from_any_stack_depth():
    deepest = "[v1," * MAX_DEPTH + "v2" + "]" * MAX_DEPTH
    deeper = "[v1," * 400 + "v2" + "]" * 400

    def at_depth(frames):
        if frames:
            return at_depth(frames - 1)
        with pytest.raises(ParseError) as err:
            eval_text(deeper)
        return eval_text(deepest), err.value.pos, str(err.value)

    refused = (ZERO, 4 * MAX_DEPTH, f"brackets nested more than {MAX_DEPTH} deep (at position 1200)")
    assert at_depth(0) == at_depth(200) == refused


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="tv0123456789[],+*^ ", max_size=30))
def test_grammar_fuzz_evaluates_or_raises_fiblie_error(text):
    try:
        eval_text(text)
    except FibLieError:
        pass
