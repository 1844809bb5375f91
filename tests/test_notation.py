"""The text notation: emitted vectors, forms, endomorphisms and bracket
tables parse back to the same objects, and malformed input of every atom
kind is a ParseError."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from pk4lie.linalg import Mat4
from pk4lie.notation import (
    emit_brackets, emit_endo, emit_sym_form, emit_two_form, emit_vector,
    parse_brackets, parse_endo, parse_sym_form, parse_two_form, parse_vector,
)
from pk4lie.scalars import ParseError, Scalar, ZERO


def _entries():
    """Zero-weighted Scalars: constants, parameters and quotients (a*b+c)/d,
    so emitted coefficients need signs and parentheses."""
    consts = st.fractions(-4, 4, max_denominator=3).map(Scalar.const)
    base = st.one_of(consts, st.sampled_from(["x", "y", "mu"]).map(Scalar.var))
    quotients = st.tuples(base, base, base, base).filter(
        lambda t: not t[3].is_zero).map(lambda t: (t[0] * t[1] + t[2]) / t[3])
    return st.one_of(st.just(ZERO), base, quotients)


entries = _entries()
vectors = st.lists(entries, min_size=4, max_size=4)


@st.composite
def matrices(draw, shape):
    rows = [[ZERO] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if shape == "endo":
                rows[i][j] = draw(entries)
            elif i < j:
                rows[i][j] = draw(entries)
                rows[j][i] = -rows[i][j] if shape == "wedge" else rows[i][j]
            elif i == j and shape == "sym":
                rows[i][i] = draw(entries)
    return Mat4(rows)


@st.composite
def bracket_tables(draw):
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    table = {k: draw(vectors) for k in keys}
    return {k: v for k, v in table.items() if not all(c.is_zero for c in v)}


@settings(max_examples=40, deadline=None)
@given(vectors, matrices("wedge"), matrices("sym"), matrices("endo"),
       bracket_tables())
def test_emitted_objects_parse_back(v, omega, h, K, brackets):
    assert parse_vector(emit_vector(v)) == v
    assert parse_two_form(emit_two_form(omega)) == omega
    assert parse_sym_form(emit_sym_form(h)) == h
    assert parse_endo(emit_endo(K)) == K
    assert parse_brackets(emit_brackets(brackets)) == brackets


KINDS = [
    (parse_vector, "e1", "e2", "vector expression"),
    (parse_two_form, "e12", "e34", "two-form"),
    (parse_sym_form, "eps11", "eps23", "symmetric form"),
    (parse_endo, "E12", "E21", "endomorphism"),
]
SHAPES = [                    # and a message the error must contain
    ("{a}*{b}", ""),          # an atom times an atom
    ("x*{a}/{b}", ""),        # division by an atom
    ("{a}+1", "{what} has a scalar part: "),
    ("(x*{a}+{b}", ""),       # an unbalanced parenthesis
    ("{a}/(x-x)", ""),        # division by zero
]


@pytest.mark.parametrize("parse, text, message", [
    pytest.param(parse, shape.format(a=a, b=b), message.format(what=what),
                 id=f"{shape}-{parse.__name__}-{a}-{b}")
    for shape, message in SHAPES for parse, a, b, what in KINDS
] + [
    pytest.param(parse_two_form, "e11", "e11 wedge is zero",
                 id="e11-parse_two_form"),
])
def test_malformed_expressions_are_parse_errors(parse, text, message):
    with pytest.raises(ParseError, match=re.escape(message) or None):
        parse(text)


@pytest.mark.parametrize("parse, a", [
    (parse_vector, "e1"), (parse_two_form, "e12"), (parse_sym_form, "eps11"),
    (parse_endo, "E12"),
])
def test_unary_signs_inside_a_term(parse, a):
    assert parse(f"x*-{a}") == parse(f"-(x*{a})") == parse(f"-x*+{a}")
    assert parse(f"--{a}/-2") == parse(f"-{a}/2")


def test_malformed_bracket_vector_is_a_parse_error():
    for text in ("[e1,e2]=e3*e4", "[e1,e2]=e3+2", "[e1,e2]=(e3"):
        with pytest.raises(ParseError):
            parse_brackets(text)
