import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pk4lie.linalg import split_at_root
from pk4lie.scalars import (
    Constraint, DenominatorVanishes, DomainUnsatisfiable, EMPTY_DOMAIN,
    MissingParam, Param, ParamDomain, ParseError, Poly, Radical, Scalar,
    ScalarError, ZERO, ONE, _mono_lex_key, emit_scalar, identity_test,
    nonvanishing, parse_scalar, poly_divexact, poly_gcd,
)
import pk4lie

X = Param("x")
Y = Param("y")
MU = Param("mu")


def S(text):
    return parse_scalar(text)


# ---------------------------------------------------------------------------
# scalar_eval


def test_eval_direct_substitution():
    s = S("3*x/2")
    assert s.eval({X: Fraction(1)}) == Fraction(3, 2)


def test_eval_pole():
    s = S("1/x")
    with pytest.raises(DenominatorVanishes):
        s.eval({X: Fraction(0)})


def test_eval_missing_param():
    with pytest.raises(MissingParam):
        S("x+y").eval({X: Fraction(1)})


def test_gcd_reduction_at_construction():
    # (x^2-1)/(x-1) reduces to x+1, so x=1 is no longer a pole.
    s = S("(x*x-1)/(x-1)")
    assert s == S("x+1")
    assert s.eval({X: Fraction(1)}) == 2
    # Oracle: the unreduced fraction, evaluated with plain Fractions at two
    # sample points approaching 1, agrees with the reduced form there.
    for eps in (Fraction(1, 1000), Fraction(-1, 2000)):
        v = Fraction(1) + eps
        unreduced = (v * v - 1) / (v - 1)
        assert unreduced == s.eval({X: v})


# ---------------------------------------------------------------------------
# identity_test


def test_identity_zero_literal():
    assert identity_test(ZERO).kind == "ZeroExact"


def test_identity_collapses_canonically():
    assert identity_test(S("x-x")).kind == "ZeroExact"
    assert identity_test(S("x*x-1") - S("(x-1)*(x+1)")).kind == "ZeroExact"


def test_identity_nonzero_witness_respects_domain():
    dom = ParamDomain.parse("mu > 0")
    for seed in range(5):
        v = identity_test(S("mu"), dom, trials=8, seed=seed)
        assert v.kind == "NonZero"
        assert v.witness[MU] > 0


def test_domain_unsatisfiable():
    dom = ParamDomain.parse("x > 0, x < 0")
    with pytest.raises(DomainUnsatisfiable):
        identity_test(S("x"), dom, trials=2, seed=1)


# ---------------------------------------------------------------------------
# field axioms on random scalars (hypothesis)


def scalars():
    consts = st.integers(-6, 6).map(Scalar.const)
    vars_ = st.sampled_from([S("x"), S("y"), S("mu")])
    base = st.one_of(consts, vars_)

    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
        )

    return st.recursive(base, combine, max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert identity_test((a + b) + c - (a + (b + c))).kind == "ZeroExact"
    assert identity_test(a * (b + c) - (a * b + a * c)).kind == "ZeroExact"
    assert identity_test(a * b - b * a).kind == "ZeroExact"
    if not a.is_zero:
        assert identity_test(a * a.inv() - ONE).kind == "ZeroExact"


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), st.integers(0, 10 ** 6))
def test_eval_is_ring_homomorphism(a, b, seed):
    import random
    rng = random.Random(seed)
    asg = EMPTY_DOMAIN.sample(rng, a.params() | b.params())
    try:
        va, vb = a.eval(asg), b.eval(asg)
        assert (a + b).eval(asg) == va + vb
        assert (a * b).eval(asg) == va * vb
    except DenominatorVanishes:
        pass


# ---------------------------------------------------------------------------
# canonical text grammar


@pytest.mark.parametrize("text", ["(3*x)/2", "x", "0", "-1", "x*x-1", "(x+1)/(x*x+2)"])
def test_grammar_round_trip_bit_identical(text):
    s = parse_scalar(text)
    out = emit_scalar(s)
    assert out == text
    assert emit_scalar(parse_scalar(out)) == out


def test_emission_is_canonical():
    assert emit_scalar(S("3*x/2")) == "(3*x)/2"
    assert emit_scalar(S("x/(2*y)")) == "x/(2*y)"
    assert emit_scalar(S("(x*x-1)/(x-1)")) == "x+1"
    assert emit_scalar(S("1/2") * S("x") - S("x/2")) == "0"


def test_division_by_zero_scalar_rejected():
    with pytest.raises(ZeroDivisionError):
        S("x") / ZERO


def test_division_by_zero_in_text_is_a_parse_error():
    for text in ("1/0", "x/(y-y)", "(x+1)/0*y"):
        with pytest.raises(ParseError):
            parse_scalar(text)


# ---------------------------------------------------------------------------
# domains: nonvanishing certificates, radicals, substitution


def test_known_nonzero():
    dom = ParamDomain.parse("x != 0, y > 0")
    assert dom.known_nonzero(S("x").num)
    assert dom.known_nonzero(S("x*x*y").num)
    assert dom.known_nonzero(S("-2*x").num)
    assert not dom.known_nonzero(S("x+1").num)
    assert not dom.known_nonzero(S("0").num)


def test_nonvanishing_verdicts():
    dom = ParamDomain.parse("x != 0")
    assert nonvanishing(S("x-x"), dom).kind == "ZeroExact"
    const = nonvanishing(S("3"), dom)
    assert (const.kind, const.trials) == ("NonZero", 0)
    cert = nonvanishing(S("x*x"), dom)
    assert (cert.kind, cert.trials, cert.witness) == ("NonZero", 0, None)
    # no certificate: identity_test samples a witness
    sampled = nonvanishing(S("x+1"), dom, seed=3)
    assert sampled.kind == "NonZero" and sampled.witness is not None


def test_split_at_root():
    dom = ParamDomain.parse("y > 0")
    var, root, off = split_at_root(S("x"), dom)
    assert (var, root) == (X, ZERO)
    assert [repr(c) for c in off.constraints] == ["y > 0", "x != 0"]
    var, root, off = split_at_root(S("2*x-1"), EMPTY_DOMAIN)
    assert (var, root) == (X, S("1/2"))
    assert [repr(c) for c in off.constraints] == ["2*x-1 != 0"]
    assert split_at_root(S("x*x+1"), EMPTY_DOMAIN) is None
    assert split_at_root(S("x*y+1"), EMPTY_DOMAIN) is None


def test_radical_sampling_and_reduction():
    # w^2 = y*z with w > 0, y != 0: sampler solves z, reducer kills w^2-y*z.
    w, z = Param("w"), Param("z")
    dom = ParamDomain(
        [Constraint(Poly.var(w), ">"), Constraint(Poly.var(Y), "!=")],
        [Radical(w, (Scalar.var("y") * Scalar.var("z")).num, z)],
    )
    import random
    rng = random.Random(7)
    for _ in range(5):
        asg = dom.sample(rng, {w, Y, z})
        assert asg[w] ** 2 == asg[Y] * asg[z]
        assert asg[w] > 0
    residual = S("w*w - y*z")
    assert identity_test(residual, dom, trials=4, seed=3).kind == "ZeroExact"
    assert identity_test(S("w*w*w - y*z*w"), dom, trials=4, seed=3).kind == "ZeroExact"
    assert identity_test(S("w - y*z"), dom, trials=4, seed=3).kind == "NonZero"


def test_domain_substitution():
    dom = ParamDomain.parse("beta >= -1, beta < 1")
    sub = dom.substituted({Param("beta"): S("-alpha")})
    import random
    asg = sub.sample(random.Random(0), {Param("alpha")})
    a = asg[Param("alpha")]
    assert -a >= -1 and -a < 1


def test_scalar_substitution_exact():
    s = S("(x+y)/(x-y)")
    out = s.substitute({X: S("2*y")})
    assert out == S("3")  # (2y+y)/(2y-y) = 3


# ---------------------------------------------------------------------------
# zero and constant shortcuts in the arithmetic agree with the general path


def operands():
    """Scalars weighted towards zero and constants, with rational functions."""
    consts = st.fractions(-3, 3, max_denominator=4).map(Scalar.const)
    quotients = st.tuples(st.one_of(consts, scalars()), scalars()).filter(
        lambda ab: not ab[1].is_zero).map(lambda ab: ab[0] / ab[1])
    return st.one_of(st.just(ZERO), consts, scalars(), quotients)


def _same(fast, general):
    assert emit_scalar(fast) == emit_scalar(general)
    assert (fast.num, fast.den) == (general.num, general.den)


@settings(max_examples=200, deadline=None)
@given(operands(), operands())
def test_arithmetic_shortcuts_match_general_path(a, b):
    _same(a + b, Scalar(a.num * b.den + b.num * a.den, a.den * b.den))
    _same(a - b, Scalar(a.num * b.den - b.num * a.den, a.den * b.den))
    _same(-a, Scalar(-a.num, a.den))
    _same(a * b, Scalar(a.num * b.num, a.den * b.den))
    _same(a + 0, a)
    _same(0 * a, Scalar(Poly(), a.den))


# ---------------------------------------------------------------------------
# multivariate gcd and exact division against sympy


GCD_PARAMS = ("lam", "mu", "x", "y", "z")


def _poly(params, exps_coeffs):
    return Poly({tuple(sorted((Param(n).index, e) for n, e in zip(params, exps) if e)): c
                 for exps, c in exps_coeffs.items()})


@st.composite
def gcd_cases(draw):
    """(g, a, b): a = g*p and b = g*q with rational coefficients over 2-4
    parameters; one parameter, `only`, occurs in a and not in b."""
    params = draw(st.lists(st.sampled_from(GCD_PARAMS), min_size=2, max_size=4,
                           unique=True))
    only = draw(st.sampled_from(params))
    coeff = st.fractions(-5, 5, max_denominator=3).filter(bool)

    def poly(names, max_size):
        return _poly(names, draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * len(names)), coeff,
            min_size=1, max_size=max_size)))

    shared = [n for n in params if n != only]
    # random exponents stay below 3, so no random term cancels the added
    # ones: g is a multivariate non-monomial and p involves `only`
    g = poly(params, 3) + _poly(params[:2], {(1, 3): draw(coeff)})
    p = poly(params, 3) + _poly([only], {(3,): draw(coeff)})
    q = poly(shared, 3)
    return g, g * p, g * q


def _poly_of_sympy(expr, syms):
    import sympy
    out = {}
    for exps, c in sympy.Poly(expr, *syms).terms():
        mono = tuple(sorted((Param(str(s)).index, e) for s, e in zip(syms, exps) if e))
        out[mono] = Fraction(int(c.p), int(c.q))
    return Poly(out)


@settings(max_examples=60, deadline=None)
@given(gcd_cases())
def test_gcd_and_division_match_sympy(case):
    import sympy
    g, a, b = case
    syms = [sympy.Symbol(n) for n in GCD_PARAMS]

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {tuple(dict(m).get(Param(n).index, 0) for n in GCD_PARAMS):
             sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
            *syms, domain="QQ").as_expr()

    ours = poly_gcd(a, b)
    theirs = _poly_of_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), syms)
    assert set(ours.terms) == set(theirs.terms)
    assert len({theirs.terms[m] / c for m, c in ours.terms.items()}) == 1
    for p in (a, b):
        assert poly_divexact(p, ours) * ours == p
        assert poly_divexact(p, g) * g == p
    with pytest.raises(ScalarError):
        poly_divexact(a * g + Poly.const(1), g)


def test_no_command_imports_sympy():
    code = ("import sys, pk4lie.cli\n"
            "from pk4lie.scalars import parse_scalar\n"
            "s = parse_scalar('(x*y+1)*(x+y)/((x*y+1)*(x-y))')\n"
            "assert str(s) == '(x+y)/(x-y)', s\n"
            "assert 'sympy' not in sys.modules\n")
    src = str(Path(pk4lie.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _padded_lex_key(m):
    # The registry-sized key _mono_lex_key replaced, kept as its oracle.
    vec = [0] * len(Param._order)
    for i, e in m:
        vec[i] = e
    return tuple(-v for v in vec)


monomials = st.dictionaries(st.integers(0, len(Param._order) - 1),
                            st.integers(1, 4), max_size=4).map(
    lambda d: tuple(sorted(d.items())))


@settings(max_examples=200, deadline=None)
@given(st.lists(monomials, min_size=2, max_size=12))
def test_mono_lex_key_orders_as_the_padded_key(ms):
    assert sorted(ms, key=_mono_lex_key) == sorted(ms, key=_padded_lex_key)
