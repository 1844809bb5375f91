"""The text notation: emitted vectors, forms, endomorphisms, bracket and
product tables parse back to the same objects, malformed input of every
atom kind and every table is a ParseError, and the per-text parse cache
hands out fresh containers and canonical forms."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from pk4lie.catalog import _map_matrix, _parse_subst
from pk4lie.linalg import Mat4
from pk4lie.notation import (
    _parse_lin, emit_brackets, emit_endo, emit_sym_form, emit_two_form, emit_vector,
    parse_brackets, parse_endo, parse_sym_form, parse_tuple4, parse_two_form,
    parse_vector,
)
from pk4lie.phase_space import emit_products, parse_products
from pk4lie.scalars import (
    Param, ParseError, Scalar, ZERO, _parse, _scalar_leaf, emit_scalar, parse_scalar,
)


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


@st.composite
def product_tables(draw):
    pairs = [(a, b) for a in range(2) for b in range(2)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True))
    table = {k: draw(st.lists(entries, min_size=2, max_size=2)) for k in keys}
    return {k: v for k, v in table.items() if not all(c.is_zero for c in v)}


@pytest.mark.parametrize("offset", [0, 2])
@settings(max_examples=40, deadline=None)
@given(products=product_tables())
def test_emitted_products_parse_back(offset, products):
    assert parse_products(emit_products(products, offset), offset) == products


# Each table reader's error for a piece that is not "lhs = rhs", for a
# duplicate left-hand side, and for its own rule on the left-hand side.
TABLE_ERRORS = [
    (parse_brackets, "[e1,e2]=e3; [e1,e2]", "bad bracket equation '[e1,e2]'"),
    (parse_brackets, "[e1,e2]=e3; [e2,e1]=e4", "duplicate bracket for (e1,e2)"),
    (parse_brackets, "[e3,e3]=e1", "bracket [e3,e3] must vanish"),
    (lambda t: parse_products(t, 2), "e3 e3=e4", "bad product equation 'e3 e3=e4'"),
    (lambda t: parse_products(t, 2), " e3.e3=e4; e3.e3=e3 ",
     "duplicate product in 'e3.e3=e4; e3.e3=e3'"),
    (lambda t: parse_products(t, 2), "e1.e3=e4",
     "product 'e1.e3=e4' outside basis ('e3', 'e4')"),
    (lambda t: parse_products(t, 2), "e3.e3=e1+e4", "vector 'e1+e4' leaves the 2D basis"),
    (_map_matrix, "f1=e1; f2=e2; f3=e3; g4=e4", "bad map column 'g4=e4'"),
    (_map_matrix, "f1=e1; f2=e2; f2=e3; f4=e4", "duplicate f2"),
    (_map_matrix, "f1=e1; f2=e2; f4=e4", "map must define f1..f4"),
    (_parse_subst, "x=1, y", "bad substitution 'y'"),
    (_parse_subst, "x=1, x = 2", "duplicate substitution for x"),
    (_parse_subst, "2x=1", "bad parameter name '2x'"),
    (parse_tuple4, "(1,2,3)", "expected 4 components in '(1,2,3)'"),
    (parse_tuple4, "1,2,3,4", "expected a 4-tuple, got '1,2,3,4'"),
    # the scalar grammar has no comma
    (parse_tuple4, "(1,(2,3),4)", "expected ), got ''"),
]


@pytest.mark.parametrize("read, text, message", TABLE_ERRORS)
def test_table_reader_errors(read, text, message):
    with pytest.raises(ParseError) as e:
        read(text)
    assert str(e.value) == message


@pytest.mark.parametrize("read, text, plain", [
    (parse_brackets, "; [e1,e2]=e3;; ", "[e1,e2]=e3"),
    (lambda t: parse_products(t, 2), "e3.e3=e4;;", "e3.e3=e4"),
    (_map_matrix, "f1=e1;; f2=e2; f3=e3; f4=e4;", "f1=e1; f2=e2; f3=e3; f4=e4"),
    (_parse_subst, ", x=1,, y=2,", "x=1, y=2"),
])
def test_blank_pieces_are_skipped(read, text, plain):
    assert read(text) == read(plain)


def test_an_empty_table_is_blank_or_its_word():
    assert parse_brackets("abelian") == parse_brackets(" ") == {}
    assert parse_products("trivial", 2) == parse_products("", 2) == {}
    # a zero vector is not written
    assert emit_brackets({(0, 1): [ZERO] * 4}) == "abelian"
    assert emit_products({(0, 0): [ZERO] * 2}, 2) == "trivial"


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


def test_a_cached_parse_hands_out_fresh_containers():
    # each text is parsed once; the readers build their own containers from
    # the cached, read-only coefficients
    text = "x*e1-(1/2)*e3"
    a, b = parse_vector(text), parse_vector(text)
    assert a == b and a is not b
    a[0] = ZERO
    assert parse_vector(text) == b != a
    m = parse_endo("E12+y*E34")
    m.rows[0][1] = ZERO
    assert parse_endo("E12+y*E34").rows[0][1] == Scalar.const(1)
    with pytest.raises(TypeError):
        _parse_lin(text, "vec")[(0,)] = ZERO


@pytest.mark.parametrize("parse, text", [
    (parse_vector, "(x*e1+e2"), (parse_vector, "e1+E12"), (parse_endo, "E12+1"),
    (parse_scalar, "x+*2"), (parse_scalar, "1/(x-x)"),
])
def test_a_malformed_text_fails_on_every_call(parse, text):
    for _ in range(3):
        with pytest.raises(ParseError):
            parse(text)


def test_a_cached_scalar_stays_canonical_when_a_parameter_registers():
    # the lex-leading term of q_b - q_c sets the sign of the denominator; a
    # later name that ranks before both keeps their relative order
    text = "1/(q_c-q_b)"
    cached = parse_scalar(text)
    assert "q_a" not in Param._registry
    Param("q_a")
    assert parse_scalar(text) is cached
    fresh = _parse(text, _scalar_leaf)
    assert fresh == cached and emit_scalar(fresh) == emit_scalar(cached)
