import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from pk4lie.linalg import split_at_root
from pk4lie.scalars import (
    DenominatorVanishes, DomainUnsatisfiable, EMPTY_DOMAIN,
    MissingParam, Param, ParamDomain, ParseError, Poly, Scalar,
    ScalarError, ZERO, ONE, _mono_lex_key, _subst_poly, emit_scalar, identity_test,
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
    assert not dom.satisfiable()


def test_a_satisfied_domain_is_not_searched_again():
    dom = ParamDomain.parse("x > 0, x - 1 < 0")
    assert dom.satisfiable()

    def no_search(*args, **kwargs):
        raise AssertionError("searched a domain already satisfied")

    dom.sample = no_search
    assert dom.satisfiable({Y})


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
        assert identity_test(a * (ONE / a) - ONE).kind == "ZeroExact"


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


# Strict linear constraints, some with an interior that few draws reach.
strict_constraints = st.tuples(
    st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from(["x", "y", "mu"]),
    st.integers(-6, 6), st.sampled_from(["!=", ">", "<"]),
).map(lambda t: f"{t[0]}*{t[1]} + {t[2]} {t[3]} 0")


@settings(max_examples=60, deadline=None)
@given(scalars(), st.lists(strict_constraints, max_size=3), st.integers(0, 10 ** 6))
def test_a_nonzero_scalar_on_a_domain_without_radicals_is_nonzero(s, cons, seed):
    # strict constraints leave an open set, on which a nonzero polynomial
    # does not vanish identically; where the draws miss a thin set, `sample`
    # falls back on satisfiable()'s point, and only a root of s there that
    # no later draw avoids could give ZeroSampled
    dom = ParamDomain.parse(", ".join(cons))
    assume(not s.is_zero and dom.satisfiable(s.params()))
    assert identity_test(s, dom, seed=seed).kind == "NonZero"


def test_sample_falls_back_on_the_point_satisfiable_found():
    import random
    # 400 draws at seed 5 miss this domain; the 4000 of satisfiable() do not
    thin = ParamDomain.parse("x - 2 > 0, mu - 3 > 0, -y > 0")
    assert identity_test(ONE, thin, seed=5).kind == "NonZero"
    z = Param("z")
    asg = thin.sample(random.Random(5), {z}, attempts=1)
    assert {p: asg[p] for p in (X, Y, MU)} == thin._point and z in asg


def test_zero_sampled_needs_points_on_a_zero_set_the_reduction_misses():
    # weak inequalities pin x to 0, the root of s
    pinned = ParamDomain.parse("x >= 0, x <= 0")
    for seed in range(6):
        assert identity_test(S("x"), pinned, seed=seed).kind == "ZeroSampled"


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
    # sums over denominators equal up to an integer factor
    assert emit_scalar(S("1/(2*y)") + S("1/(3*y)")) == "5/(6*y)"
    assert emit_scalar(S("x/(2*y+2)") - S("1/(3*y+3)")) == "(3*x-2)/(6*y+6)"
    assert emit_scalar(S("x/(4*y)") + S("x/(-6*y)")) == "x/(12*y)"


factors = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
nonzero_factors = factors.filter(any)


def _expand(affine):
    """Integer coefficients {(i, j): c} of the product of a*x + b*y + c."""
    poly = {(0, 0): 1}
    for a, b, c in affine:
        out = {}
        for (i, j), k in poly.items():
            for (di, dj), f in (((1, 0), a), ((0, 1), b), ((0, 0), c)):
                out[(i + di, j + dj)] = out.get((i + di, j + dj), 0) + k * f
        poly = {m: k for m, k in out.items() if k}
    return poly


def _horner(poly):
    """Horner form in x with Horner-form coefficients in y."""
    out = ZERO
    for i in range(max((i for i, _ in poly), default=0), -1, -1):
        coeff = ZERO
        for j in range(max((j for ii, j in poly if ii == i), default=0), -1, -1):
            coeff = coeff * S("y") + poly.get((i, j), 0)
        out = out * S("x") + coeff
    return out


def _text(poly):
    return "".join(f"{k:+d}" + "*x" * i + "*y" * j for (i, j), k in poly.items()) or "0"


def _product(affine):
    out = ONE
    for a, b, c in affine:
        out = out * (a * S("x") + b * S("y") + c)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(factors, max_size=3), st.lists(nonzero_factors, max_size=2),
       st.lists(nonzero_factors, max_size=2))
def test_one_rational_function_three_ways_one_emission(num, den, shared):
    # (num * shared) / (den * shared): built by Horner, parsed from the
    # expanded text, and multiplied out factor by factor
    top, bottom = _expand(num + shared), _expand(den + shared)
    horner = _horner(top) / _horner(bottom)
    parsed = parse_scalar(f"({_text(top)})/({_text(bottom)})")
    product = _product(num + shared) / _product(den + shared)
    assert emit_scalar(horner) == emit_scalar(parsed) == emit_scalar(product)
    # one canonical form, so equal functions are equal structurally: the
    # premise of Mat4's exact ==
    assert horner == parsed == product


def test_division_by_zero_scalar_rejected():
    with pytest.raises(ZeroDivisionError):
        S("x") / ZERO


def test_division_by_zero_in_text_is_a_parse_error():
    for text in ("1/0", "x/(y-y)", "(x+1)/0*y"):
        with pytest.raises(ParseError):
            parse_scalar(text)


# ---------------------------------------------------------------------------
# domains: nonvanishing certificates, substitution


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


@pytest.mark.parametrize("text, root", [("2*x-1", Fraction(1, 2)),
                                        ("3*x+2", Fraction(-2, 3))])
def test_split_at_root_is_exact(text, root):
    var, value, off = split_at_root(S(text), EMPTY_DOMAIN)
    assert var == X
    assert type(value.const_value()) is Fraction and value.const_value() == root
    assert value == Scalar.const(root)
    assert [repr(c) for c in off.constraints] == [f"{text} != 0"]


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
    # a denominator -2 times a's, unless b's numerator shares a factor with it
    c = Scalar(b.num, a.den * Poly.const(-2))
    _same(a + c, Scalar(a.num * c.den + c.num * a.den, a.den * c.den))
    _same(a + 0, a)
    _same(0 * a, Scalar(Poly(), a.den))
    # a substitution that names none of a's parameters (a has no z)
    unrelated = {Param("z"): b}
    _same(a.substitute(unrelated),
          _subst_poly(a.num, unrelated) / _subst_poly(a.den, unrelated))


# ---------------------------------------------------------------------------
# the canonical form over Z[params]


def _emit_reference(s):
    """The emitter of rational-coefficient numerators: den made primitive
    with a positive lex-leading coefficient, num over Q, and both scaled by
    the lcm of num's coefficient denominators."""
    lead = min(s.den.terms, key=_mono_lex_key)
    content = math.gcd(*s.den.terms.values()) * (1 if s.den.terms[lead] > 0 else -1)
    num = {m: Fraction(c, content) for m, c in s.num.terms.items()}
    den = {m: Fraction(c, content) for m, c in s.den.terms.items()}
    l = math.lcm(*(c.denominator for c in num.values()))
    num = {m: c * l for m, c in num.items()}
    den = {m: c * l for m, c in den.items()}
    ns, ds = _emit_terms_reference(num), _emit_terms_reference(den)
    if den == {(): 1}:
        return ns
    if len(num) > 1 or "*" in ns:
        ns = f"({ns})"
    if len(den) > 1 or "*" in ds or ds.startswith("-"):
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _emit_terms_reference(terms):
    out = ""
    for m, c in sorted(terms.items(), key=lambda kv: _mono_lex_key(kv[0])):
        factors = [Param._order[i].name for i, e in m for _ in range(e)]
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        out += ("-" if c < 0 else "+" if out else "") + "*".join(factors)
    return out or "0"


def _assert_canonical(s):
    num, den = s.num.terms, s.den.terms
    assert all(type(c) is int for c in (*num.values(), *den.values()))
    assert math.gcd(*num.values(), *den.values()) == 1
    assert poly_gcd(s.num, s.den).is_const
    assert den[min(den, key=_mono_lex_key)] > 0
    if not num:
        assert den == {(): 1}
    assert emit_scalar(s) == _emit_reference(s)


@settings(max_examples=150, deadline=None)
@given(operands(), operands(), st.integers(-2, 3))
def test_results_are_in_the_integer_canonical_form(a, b, n):
    results = [a + b, a - b, -a, a * b]
    try:
        results.append(a.substitute({X: b}))
    except ZeroDivisionError:
        pass     # b is a root of a's denominator
    if not b.is_zero:
        results.append(a / b)
    if n >= 0 or not a.is_zero:
        results.append(a ** n)
    for s in results:
        _assert_canonical(s)


def test_deep_nesting_is_a_parse_error():
    nested = "(" * 1200 + "x" + ")" * 1200
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_scalar(nested)
    with pytest.raises(ParseError, match="nested too deeply"):
        ParamDomain.parse(nested + " > 0")
    # a flat sum is read by a loop, whatever its length
    assert parse_scalar("+".join(["x"] * 10000)) == parse_scalar("10000*x")


def test_poly_coefficients_are_integers():
    assert (S("x/2") + S("1/3")).num == S("3*x+2").num
    assert (S("x/2") + S("1/3")).den == Poly.const(6)
    assert emit_scalar(S("x/2") + S("1/3")) == "(3*x+2)/6"


# ---------------------------------------------------------------------------
# multivariate gcd and exact division against sympy


GCD_PARAMS = ("lam", "mu", "x", "y", "z")


def _poly(params, exps_coeffs):
    return Poly({tuple(sorted((Param(n).index, e) for n, e in zip(params, exps) if e)): c
                 for exps, c in exps_coeffs.items()})


@st.composite
def gcd_cases(draw):
    """(g, a, b): a = g*p and b = g*q with integer coefficients over 2-4
    parameters; one parameter, `only`, occurs in a and not in b."""
    params = draw(st.lists(st.sampled_from(GCD_PARAMS), min_size=2, max_size=4,
                           unique=True))
    only = draw(st.sampled_from(params))
    coeff = st.integers(-5, 5).filter(bool)

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
    """sympy's polynomial scaled to poly_gcd's normal form: integer
    coefficients without common factor, positive lex-leading coefficient."""
    import sympy
    out = {}
    for exps, c in sympy.Poly(expr, *syms).terms():
        mono = tuple(sorted((Param(str(s)).index, e) for s, e in zip(syms, exps) if e))
        out[mono] = Fraction(int(c.p), int(c.q))
    scale = math.lcm(*(c.denominator for c in out.values()))
    p = Poly({m: int(c * scale) for m, c in out.items()})
    k = math.gcd(*p.terms.values()) * (1 if p.lead_coeff() > 0 else -1)
    return Poly({m: c // k for m, c in p.terms.items()})


@settings(max_examples=60, deadline=None)
@given(gcd_cases())
def test_gcd_and_division_match_sympy(case):
    import sympy
    g, a, b = case
    syms = [sympy.Symbol(n) for n in GCD_PARAMS]

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {tuple(dict(m).get(Param(n).index, 0) for n in GCD_PARAMS):
             c for m, c in p.terms.items()},
            *syms, domain="ZZ").as_expr()

    ours = poly_gcd(a, b)
    assert ours == _poly_of_sympy(sympy.gcd(to_sympy(a), to_sympy(b)), syms)
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
