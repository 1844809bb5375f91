"""Exact rational-function arithmetic over named parameters.

Every quantity in this package is a Scalar: a reduced fraction num/den of
polynomials over Z in a registry of named parameters, in one canonical
form (see Scalar), so a constant is a reduced pair of integers.  Identities
are decided exactly (numerator identically zero), and so is nonvanishing on
a domain: certified, or not.  No verdict samples; seeded draws only find a
point of a domain (`ParamDomain.satisfiable`).  `identity_test`, which
samples, is the tests' oracle and no check's.

Canonical forms need polynomial gcds and exact divisions over Z (Geddes,
Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 2).  Both are
native: the multivariate gcd recurses on the lowest-index parameter and
runs a primitive pseudo-remainder sequence over the other parameters, and
exact division is long division by lex-leading terms.  A sum or product of
two fractions takes its gcds with the factors that can cancel (Henrici's
algorithms), and a sum or product of two polynomials takes none.  The
package has no runtime dependency; the tests use sympy as an independent
gcd oracle.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence, Union


class ScalarError(Exception):
    pass


class MissingParam(ScalarError):
    pass


class DenominatorVanishes(ScalarError):
    pass


class DomainUnsatisfiable(ScalarError):
    pass


class ParseError(ScalarError):
    pass


# ---------------------------------------------------------------------------
# Parameter registry


# The names the catalog uses, ranked first in this order; any other name
# ranks after them, by name, so that canonical forms do not depend on the
# order in which a process first meets its parameters.
LISTED_NAMES = ("alpha", "beta", "delta", "lam", "mu", "w", "x", "y", "z",
                "x1", "x2", "x3", "x4", "t1", "t2", "t3", "t4", "t5",
                "a21", "a22", "a31", "a33", "a34", "a41", "a43", "a44",
                "b33", "b34", "b43", "b44")


class Param:
    """A named parameter; identity is by registration index, ordering by
    rank.  `_rank[index]` is the rank of the parameter `_order[index]`."""

    __slots__ = ("name", "index")
    _registry: dict = {}
    _order: list = []
    _rank: list = []

    def __new__(cls, name: str):
        existing = cls._registry.get(name)
        if existing is not None:
            return existing
        if not name or not (name[0].isalpha() and name.replace("_", "").isalnum()):
            raise ParseError(f"bad parameter name {name!r}")
        p = object.__new__(cls)
        p.name = name
        p.index = len(cls._order)
        cls._registry[name] = p
        cls._order.append(p)
        cls._rank.append(p.index)
        unlisted = sorted(cls._order[len(LISTED_NAMES):], key=lambda q: q.name)
        for rank, q in enumerate(unlisted, len(LISTED_NAMES)):
            cls._rank[q.index] = rank
        return p

    def __repr__(self):
        return f"Param({self.name})"

    def __lt__(self, other):
        return Param._rank[self.index] < Param._rank[other.index]


for _n in LISTED_NAMES:
    Param(_n)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over Z
#
# A monomial is a tuple of (param_index, exponent) pairs, sorted by index,
# exponents > 0.  () is the constant monomial.

Mono = tuple

_ZERO = Fraction(0)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:     # the common case: one parameter each
        (i, e), (j, f) = a[0], b[0]
        if i == j:
            return ((i, e + f),)
        return (a[0], b[0]) if i < j else (b[0], a[0])
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


_LEX_END = (float("inf"),)


def _mono_lex_key(m: Mono) -> tuple:
    # Lex over rank order: the lex-leading monomial has the smallest key, so
    # an ascending sort emits terms lex-descending.  Comparing the sorted
    # (rank, -exponent) pairs finds the first parameter where the exponent
    # vectors differ; the end marker sorts after every pair, so a monomial
    # that stops there has the smaller exponent.
    return (*sorted([(Param._rank[i], -e) for i, e in m]), _LEX_END)


class Poly:
    """Multivariate polynomial over Z, dict of monomial -> nonzero int; never
    mutated."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = terms or {}

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({(): c} if c else {})

    @staticmethod
    def var(p: Union[Param, str]) -> "Poly":
        if isinstance(p, str):
            p = Param(p)
        return Poly({((p.index, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> int:
        if not self.is_const:
            raise ScalarError("not a constant polynomial")
        return self.terms.get((), 0)

    def params(self) -> set:
        out = set()
        for m in self.terms:
            for i, _ in m:
                out.add(Param._order[i])
        return out

    def univariate_linear(self) -> Optional[tuple]:
        """(v, c1, c0) when this is c1*v + c0 with c1 != 0 for a single
        parameter v; None otherwise."""
        c0 = self.terms.get((), 0)
        if len(self.terms) != 1 + (c0 != 0):
            return None
        mono = next(m for m in self.terms if m)
        if len(mono) != 1 or mono[0][1] != 1:
            return None
        return Param._order[mono[0][0]], self.terms[mono], c0

    def degree_in(self, p: Param) -> int:
        d = 0
        for m in self.terms:
            for i, e in m:
                if i == p.index:
                    d = max(d, e)
        return d

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        return Poly(t)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly()
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = t.get(m, 0) + c1 * c2
                if s:
                    t[m] = s
                else:
                    t.pop(m, None)
        return Poly(t)

    def __pow__(self, n: int) -> "Poly":
        out = _P_ONE
        for _ in range(n):
            out = out * self
        return out

    def eval(self, assignment: Mapping[Param, Fraction]) -> Fraction:
        total = _ZERO
        for m, c in self.terms.items():
            v = c
            for i, e in m:
                p = Param._order[i]
                if p not in assignment:
                    raise MissingParam(p.name)
                v *= Fraction(assignment[p]) ** e
            total += v
        return total

    def lead_coeff(self) -> int:
        """The coefficient of the lex-leading monomial; 0 for zero."""
        return self.terms[min(self.terms, key=_mono_lex_key)] if self.terms else 0

    def __repr__(self):
        return f"Poly({emit_poly(self)})"


_P_ONE = Poly({(): 1})
_P_ZERO = Poly()
_ONE_TERMS = _P_ONE.terms


def poly_combination(terms) -> list:
    """The sum of a * row over the pairs (a, row) of a polynomial and a row
    of four polynomials, accumulated entrywise in one term dict per entry:
    no intermediate product or partial sum is built, and no product with a
    zero entry is formed.  A zero entry is one shared zero polynomial."""
    acc = [{}, {}, {}, {}]
    for a, row in terms:
        at = a.terms.items()
        for t, y in zip(acc, row):
            if y.terms:
                yt = y.terms.items()
                for m1, c1 in at:
                    if m1:
                        for m2, c2 in yt:
                            m = _mono_mul(m1, m2) if m2 else m1
                            t[m] = t.get(m, 0) + c1 * c2
                    else:
                        for m2, c2 in yt:
                            t[m2] = t.get(m2, 0) + c1 * c2
    out = [{m: c for m, c in t.items() if c} for t in acc]
    return [Poly(t) if t else _P_ZERO for t in out]


def _divide_content(p: Poly, k: int) -> Poly:
    """p / k for an integer k that divides every coefficient."""
    return p if k == 1 else Poly({m: c // k for m, c in p.terms.items()})


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    da, db = dict(a), dict(b)
    out = []
    for i in da:
        if i in db:
            out.append((i, min(da[i], db[i])))
    return tuple(sorted(out))


def _mono_div(m: Mono, by: Mono) -> Mono:
    if not by:
        return m
    d = dict(m)
    for i, e in by:
        r = d.get(i, 0) - e
        if r < 0:
            raise ScalarError("not divisible")
        if r:
            d[i] = r
        else:
            del d[i]
    return tuple(sorted(d.items()))


def _gcd_with_monomial(mono_poly: Poly, other: Poly) -> Poly:
    return _monomial_gcd((*mono_poly.terms, *other.terms))


def _monomial_gcd(monos) -> Poly:
    g = None
    for m in monos:
        g = m if g is None else _mono_gcd(g, m)
        if not g:
            break
    return Poly({g: 1})


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd over Z[params] with positive lex-leading coefficient."""
    if a.is_zero:
        return _make_primitive(b)
    if b.is_zero:
        return _make_primitive(a)
    if a.is_const or b.is_const:
        return _P_ONE
    if len(a.terms) == 1:
        return _gcd_with_monomial(a, b)
    if len(b.terms) == 1:
        return _gcd_with_monomial(b, a)
    va, vb = a.params(), b.params()
    if len(va) == 1 and va == vb:
        return _univariate_gcd(a, b)
    return _multivariate_gcd(a, b)


def _make_primitive(p: Poly) -> Poly:
    """p over its integer content, with a positive lex-leading coefficient."""
    k = gcd(*p.terms.values())
    return _divide_content(p, -k if p.lead_coeff() < 0 else k)


# poly_gcd's univariate and multivariate branches run the same _gcd; they are
# two functions so that a profile can count each branch.
def _univariate_gcd(a: Poly, b: Poly) -> Poly:
    return _make_primitive(_gcd(a, b))


def _multivariate_gcd(a: Poly, b: Poly) -> Poly:
    return _make_primitive(_gcd(a, b))


# The benchmark tracer's hook: it marks the multivariate branch by this name.
_from_sympy = _multivariate_gcd


def _gcd(a: Poly, b: Poly) -> Poly:
    """A gcd of a and b over Z[params], up to an integer factor.

    Let v be the lowest-index parameter of a and b.  Over Z[other params]
    each operand splits into its content in v (the gcd of its coefficients)
    and a primitive part; the gcd is the gcd of the contents times the
    last nonzero remainder of the primitive pseudo-remainder sequence of
    the primitive parts.  The recursion calls only itself, never poly_gcd,
    so poly_gcd's branch counts stay one per call.
    """
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.is_const or b.is_const:
        return _P_ONE
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _monomial_gcd((*a.terms, *b.terms))
    ia = {i for m in a.terms for i, _ in m}
    ib = {i for m in b.terms for i, _ in m}
    if ia != ib:
        # A parameter of one operand only: every common divisor is free of
        # it, so it divides each coefficient of that operand in it.
        v = min(ia ^ ib)
        if v in ia:
            return _gcd(_content(_split(a, v)), b)
        return _gcd(a, _content(_split(b, v)))
    v = min(ia)
    sa, sb = _split(a, v), _split(b, v)
    ca, cb = _content(sa), _content(sb)
    c = _gcd(ca, cb)
    pa, pb = _primitive(a, ca, v), _primitive(b, cb, v)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb)
        if not r:
            return c * _join(pb, v)
        if max(r) == 0:
            return c     # the primitive parts are coprime
        pa, pb = pb, _primitive(_join(r, v), _content(r), v)


def _primitive(p: Poly, content: Poly, v: int) -> dict:
    """p / content with coprime integer coefficients, split in v.  The
    content is made primitive first, so the division stays over Z."""
    return _split(_make_primitive(poly_divexact(p, _make_primitive(content))), v)


def _split(p: Poly, v: int) -> dict:
    """{e: coefficient of v**e}, for the parameter index v."""
    out: dict = {}
    for m, c in p.terms.items():
        for k, (i, e) in enumerate(m):
            if i == v:
                out.setdefault(e, {})[m[:k] + m[k + 1:]] = c
                break
        else:
            out.setdefault(0, {})[m] = c
    return {e: Poly(t) for e, t in out.items()}


def _join(coeffs: dict, v: int) -> Poly:
    """Inverse of _split, for v below every parameter index of the
    coefficients."""
    t = {}
    for e, q in coeffs.items():
        for m, c in q.terms.items():
            t[((v, e),) + m if e else m] = c
    return Poly(t)


def _content(coeffs: dict) -> Poly:
    """gcd of the coefficients, smallest first, stopping at a constant."""
    g = Poly()
    for q in sorted(coeffs.values(), key=lambda q: len(q.terms)):
        g = _gcd(g, q)
        if g.is_const:
            break
    return g


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of a by b, both {e: coefficient of v**e}: the part
    of lc(b)**k * a of lower degree than b after subtracting multiples of b."""
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        la = a[da]
        out = {e: q * lb for e, q in a.items() if e != da}
        for e, q in b.items():
            if e != db:
                k = e + da - db
                s = out.get(k, Poly()) - la * q
                if s.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = s
        a = out
    return a


def poly_divexact(a: Poly, by: Poly) -> Poly:
    """Exact division over Z[params] by a primitive `by`; raises if not
    divisible.  The quotient has integer coefficients by Gauss's lemma."""
    if len(by.terms) == 1:
        (m0, c0), = by.terms.items()     # c0 is 1 or -1
        q = {_mono_div(m, m0): c * c0 for m, c in a.terms.items()}
    else:
        # Long division by lex-leading terms: if by divides a, the leading
        # monomial of every remainder is a multiple of by's.
        lead = min(by.terms, key=_mono_lex_key)
        lc = by.terms[lead]
        rest = [(m, c) for m, c in by.terms.items() if m != lead]
        r = dict(a.terms)
        q = {}
        while r:
            m = min(r, key=_mono_lex_key)
            qm = _mono_div(m, lead)
            qc, rem = divmod(r.pop(m), lc)
            if rem:
                raise ScalarError("not divisible")
            q[qm] = qc
            for mb, cb in rest:
                mm = _mono_mul(qm, mb)
                s = r.get(mm, 0) - qc * cb
                if s:
                    r[mm] = s
                else:
                    r.pop(mm, None)
    return Poly(q)


# ---------------------------------------------------------------------------
# Scalar = reduced fraction of integer polynomials


class Scalar:
    """num/den over Z[params]; equality is structural on the canonical form:
    num and den have no common factor, integer content included, and den's
    lex-leading coefficient is positive, so a constant den is a positive
    integer.  x/2 + 1/3 is (3*x+2, 6), printed (3*x+2)/6; zero is (0, 1)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None, _canonical: bool = False):
        if den is None:
            den = _P_ONE
        if not _canonical:
            if den.is_zero:
                raise ZeroDivisionError("scalar with zero denominator")
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den

    # -- constructors
    @staticmethod
    def const(c: Union[int, Fraction]) -> "Scalar":
        return _const(c.numerator, c.denominator)

    @staticmethod
    def var(name: Union[str, Param]) -> "Scalar":
        return Scalar(Poly.var(name), _P_ONE, _canonical=True)

    @staticmethod
    def of(v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return Scalar.const(v)
        if isinstance(v, str):
            return parse_scalar(v)
        raise TypeError(f"cannot coerce {v!r} to Scalar")

    # -- structure
    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value(), self.den.const_value())

    def params(self) -> set:
        return self.num.params() | self.den.params()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.const(other)
        return isinstance(other, Scalar) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.terms.items()), frozenset(self.den.terms.items())))

    # -- arithmetic
    #
    # Scalars are never mutated, so an operation whose result is one of its
    # canonical operands returns that operand, and one on two constants works
    # on their four integers (_ints) and builds its canonical result directly.
    # A sum or product of two polynomials (both denominators the constant 1)
    # is a polynomial, already canonical: no gcd and no content scan.
    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return Scalar(self.num + other.num, _P_ONE, _canonical=True)
        a = _ints(self)
        b = a and _ints(other)
        if b:
            return _const(a[0] * b[1] + b[0] * a[1], a[1] * b[1])
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        # Henrici's sum (Knuth, TAOCP vol. 2, 4.5.1), the one sum of two
        # distinct denominators: with g = gcd(den1, den2) and den_k = g e_k,
        # every common factor of positive degree of t = n1 e2 + n2 e1 and
        # e1 den2 divides g, so the gcd is taken with g.  A constant
        # denominator gives g = 1 with no gcd taken.
        d1, d2 = self.den, other.den
        g = _P_ONE if d1.is_const or d2.is_const else poly_gcd(d1, d2)
        if not g.is_const:
            d1, d2 = poly_divexact(d1, g), poly_divexact(d2, g)
        return Scalar(*_canonicalize(self.num * d2 + other.num * d1, d1 * other.den, g),
                      _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        if not self.num.terms:
            return self
        return Scalar(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if not other.num.terms:
            return self
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar.of(other)
        if not self.num.terms or not other.num.terms:
            return ZERO
        if self.den.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return Scalar(self.num * other.num, _P_ONE, _canonical=True)
        a = _ints(self)
        b = a and _ints(other)
        if b:
            return _const(a[0] * b[0], a[1] * b[1])
        # Henrici's product: each numerator shares factors only with the
        # other's denominator, so two gcds of the factors replace one of the
        # products, and the result needs only its integer content removed.
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not d2.is_const:
            g = poly_gcd(n1, d2)
            if not g.is_const:
                n1, d2 = poly_divexact(n1, g), poly_divexact(d2, g)
        if not d1.is_const:
            g = poly_gcd(n2, d1)
            if not g.is_const:
                n2, d1 = poly_divexact(n2, g), poly_divexact(d1, g)
        return Scalar(*_canonicalize(n1 * n2, d1 * d2, _P_ONE), _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        if not self.num.terms:
            return self
        # the reciprocal of a canonical n/d is d/n, negated in both when n's
        # lex-leading coefficient is negative: canonical as it stands
        n, d = other.num, other.den
        if n.lead_coeff() < 0:
            n, d = -n, -d
        return self * Scalar(d, n, _canonical=True)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return Scalar.const(1) / self ** (-n)
        # powers of coprime polynomials are coprime, their integer contents
        # stay coprime and den's lead coefficient stays positive
        return Scalar(self.num ** n, self.den ** n, _canonical=True)

    def substitute(self, mapping: Mapping[Param, "Scalar"]) -> "Scalar":
        """Substitute scalars for parameters (exact); self when the mapping
        names none of its parameters."""
        if not any(p in mapping for p in self.params()):
            return self
        num = _subst_poly(self.num, mapping)
        den = _subst_poly(self.den, mapping)
        return num / den

    def eval(self, assignment: Mapping[Param, Fraction]) -> Fraction:
        d = self.den.eval(assignment)
        if d == 0:
            raise DenominatorVanishes(emit_scalar(self))
        return self.num.eval(assignment) / d

    def __repr__(self):
        return f"Scalar({emit_scalar(self)})"

    def __str__(self):
        return emit_scalar(self)


def _ints(s: Scalar) -> Optional[tuple]:
    """(n, d) when s is the constant n/d, else None; s is nonzero."""
    n, d = s.num.terms, s.den.terms
    if len(n) == 1 and len(d) == 1 and () in n and () in d:
        return n[()], d[()]


def _const(n: int, d: int) -> Scalar:
    """The canonical constant n/d for integers n and d != 0: one gcd."""
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    n, d = n // g, d // g
    return Scalar(Poly({(): n}) if n else Poly(), _P_ONE if d == 1 else Poly({(): d}),
                  _canonical=True)


def _canonicalize(num: Poly, den: Poly, within: Optional[Poly] = None):
    """The canonical pair for num/den: the gcd of num and `within` (den when
    None) divided out, then the integer content of both, with a positive
    lex-leading coefficient in den.  A caller passes `within` when every
    common factor of num and den of positive degree divides it."""
    if num.is_zero:
        return Poly(), _P_ONE
    within = den if within is None else within
    if not within.is_const:
        g = poly_gcd(num, within)
        if not g.is_const:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
    k = gcd(*num.terms.values(), *den.terms.values())
    if den.lead_coeff() < 0:
        k = -k
    return _divide_content(num, k), _divide_content(den, k)


def ratio(num: Poly, den: Poly) -> Scalar:
    """num/den in canonical form, and the shared ZERO when num is zero."""
    return Scalar(num, den) if num.terms else ZERO


def common_denominator(values: Iterable[Scalar]) -> Poly:
    """The lcm over Z[params] of the denominators of `values`, with a
    positive lex-leading coefficient.  lcm(a, b) = a * (b / gcd(a, b)), and
    b / gcd(a, b), integer content included, is the denominator of the
    reduced a/b."""
    out = _P_ONE
    for v in values:
        d = v.den
        if d.terms != _ONE_TERMS and d != out:
            out = out * Scalar(out, d).den
    return out


def numerator_over(v: Scalar, d: Poly) -> Poly:
    """v * d as a polynomial, for a multiple d of v's denominator: v's
    numerator times the exact quotient d / den, with no gcd.  The divisor
    is made primitive first, so the division stays over Z."""
    den = v.den
    if den.terms == _ONE_TERMS:
        return v.num if d.terms == _ONE_TERMS else v.num * d
    k = gcd(*den.terms.values())
    return v.num * _divide_content(poly_divexact(d, _divide_content(den, k)), k)


def _subst_poly(p: Poly, mapping: Mapping[Param, Scalar]) -> Scalar:
    out = Scalar.const(0)
    for m, c in p.terms.items():
        term = Scalar.const(c)
        for i, e in m:
            prm = Param._order[i]
            rep = mapping.get(prm)
            if rep is None:
                rep = Scalar.var(prm)
            else:
                rep = Scalar.of(rep)
            term = term * rep ** e
        out = out + term
    return out


ZERO = Scalar.const(0)
ONE = Scalar.const(1)


# ---------------------------------------------------------------------------
# Text grammar: integers, parameter names, + - * / ( ).  Canonical emission
# round-trips bit-identically.


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/()":
            toks.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    toks.append(("end", ""))
    return toks


class _P:
    """Recursive descent over `_tokenize` tokens.  `leaf(kind, text)` builds
    the value of an `int` or `name` token; values combine with + - * / and
    unary minus, and expose `is_zero` for the division-by-zero check."""

    def __init__(self, toks, leaf):
        self.toks = toks
        self.i = 0
        self.leaf = leaf

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind}, got {t[1]!r}")
        return t

    def negates(self) -> bool:
        """Consume unary signs; True when they amount to a minus."""
        neg = False
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                neg = not neg
        return neg

    def expr(self):
        neg = self.negates()
        out = self.term()
        if neg:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self):
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            f = self.factor()
            if op == "/" and f.is_zero:
                raise ParseError("division by zero")
            out = out * f if op == "*" else out / f
        return out

    def factor(self):
        neg = self.negates()
        kind, val = self.next()
        if kind in ("int", "name"):
            out = self.leaf(kind, val)
        elif kind == "(":
            out = self.expr()
            self.expect(")")
        else:
            raise ParseError(f"unexpected token {val!r}")
        return -out if neg else out


def _parse(text: str, leaf):
    """Parse the whole of `text` with the scalar grammar over `leaf` values."""
    p = _P(_tokenize(text), leaf)
    try:
        out = p.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if p.peek() != "end":
        raise ParseError(f"trailing input in {text!r}")
    return out


def _scalar_leaf(kind: str, text: str) -> Scalar:
    return Scalar.const(int(text)) if kind == "int" else Scalar.var(text)


@cache
def parse_scalar(text: str) -> Scalar:
    """The Scalar `text` denotes, parsed once per text.  A Scalar is never
    mutated, and a canonical form stays canonical when a later parameter
    registers: ranks keep their relative order, the listed names fixed and
    the others sorted by name.  A ParseError is not cached."""
    return _parse(text, _scalar_leaf)


def emit_poly(p: Poly, den: int = 1) -> str:
    """p/den for an integer den > 0, with reduced fractions as coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for m, c in sorted(p.terms.items(), key=lambda kv: _mono_lex_key(kv[0])):
        factors = []
        for prm, e in sorted((Param._order[i], e) for i, e in m):
            factors.extend([prm.name] * e)
        mag = abs(c) if den == 1 else Fraction(abs(c), den)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts)


def emit_scalar(s: Scalar) -> str:
    num, den = s.num, s.den
    ns = emit_poly(num)
    if len(den.terms) == 1 and den.terms.get(()) == 1:
        return ns
    ds = emit_poly(den)
    if len(num.terms) > 1 or "*" in ns:
        ns = f"({ns})"
    if len(den.terms) > 1 or "*" in ds or ds.startswith("-"):
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ---------------------------------------------------------------------------
# Parameter domains and randomized identity testing


# Each relation and its test against 0, in the order `ParamDomain.parse`
# searches a constraint for them (">=" before ">").
_RELS = {"!=": operator.ne, ">=": operator.ge, "<=": operator.le,
         ">": operator.gt, "<": operator.lt}
# `ParamDomain.sample` draws each parameter as n/d, |n| <= SAMPLE_HEIGHT and
# 1 <= d <= SAMPLE_HEIGHT.
SAMPLE_HEIGHT = 100


class Constraint:
    """`poly/den rel 0` for poly over Z and an integer den > 0, which only
    keeps the printed form of a rational constraint such as `lam-1/2 >= 0`."""

    __slots__ = ("poly", "rel", "den")

    def __init__(self, poly: Poly, rel: str, den: int = 1):
        if rel not in _RELS:
            raise ParseError(f"bad relation {rel!r}")
        self.poly = poly
        self.rel = rel
        self.den = den

    def holds(self, value: Fraction) -> bool:
        return _RELS[self.rel](value, 0)

    def __repr__(self):
        return f"{emit_poly(self.poly, self.den)} {self.rel} 0"


class ParamDomain:
    """Conjunction of polynomial sign constraints."""

    def __init__(self, constraints: Sequence[Constraint] = ()):
        self.constraints = list(constraints)
        self._point = None

    @staticmethod
    def parse(text: str) -> "ParamDomain":
        """e.g. "x != 0, mu > 0, lam >= 1/2"; empty string = no constraints."""
        cons = []
        text = text.strip()
        if text:
            for piece in text.split(","):
                piece = piece.strip()
                if "==" in piece:
                    # Random rationals almost never satisfy an equation.
                    raise ParseError(f"equality constraint {piece!r} is not supported; "
                                     "substitute the value with --set instead")
                for rel in _RELS:
                    if rel in piece:
                        lhs, rhs = piece.split(rel, 1)
                        s = parse_scalar(lhs) - parse_scalar(rhs)
                        if not s.den.is_const:
                            raise ParseError(f"constraint not polynomial: {piece}")
                        cons.append(Constraint(s.num, rel, s.den.const_value()))
                        break
                else:
                    raise ParseError(f"no relation in constraint {piece!r}")
        return ParamDomain(cons)

    def params(self) -> set:
        out = set()
        for c in self.constraints:
            out |= c.poly.params()
        return out

    def merged(self, other: "ParamDomain") -> "ParamDomain":
        return ParamDomain(self.constraints + other.constraints)

    def substituted(self, mapping) -> tuple:
        """(domain, violated): the domain under `mapping`, and the
        constraints that the substitution makes false constants, which the
        domain leaves out.  ScalarError when a constraint becomes
        non-polynomial."""
        cons, violated = [], []
        for c in self.constraints:
            s = _subst_poly(c.poly, mapping)
            if s.is_const:
                if not c.holds(s.const_value()):
                    violated.append(c)
                continue
            if not s.den.is_const:
                raise ScalarError("substituted constraint not polynomial")
            cons.append(Constraint(s.num, c.rel, s.den.const_value()))
        return ParamDomain(cons), violated

    # -- nonvanishing certificates
    def nonvanishing_basis(self) -> list:
        out = []
        for c in self.constraints:
            if c.rel in ("!=", ">", "<"):
                out.append(_make_primitive(c.poly))
        return out

    def known_nonzero(self, p: Poly) -> bool:
        """True if p provably has no zero on the domain (sufficient test):
        p has a definite sign, or what is left once the nonvanishing basis's
        factors are stripped is a constant or has its root excluded."""
        if p.is_zero:
            return False
        if self._definite_sign(p):
            return True
        p = _make_primitive(p)
        for q in self.nonvanishing_basis():
            # Any common factor g divides q, and q has no zero on the
            # domain, so neither does g; stripping it is sound.  Once p is
            # coprime to q, dividing p further keeps it so: one pass strips
            # every factor that the basis certifies.
            g = poly_gcd(p, q)
            while not g.is_const:
                p = _make_primitive(poly_divexact(p, g))
                g = poly_gcd(p, q)
        return p.is_const or self._root_excluded(p) is not None

    def _root_excluded(self, p: Poly, half_line: bool = False) -> Optional[Constraint]:
        """Univariate-linear p whose only root violates a univariate
        constraint on the same parameter: the first such constraint, or
        None.  With `half_line`, only a strict or weak inequality linear in
        the parameter counts, one that confines it to a half-line."""
        lin = p.univariate_linear()
        if lin is None:
            return None
        v, c1, c0 = lin
        root = Fraction(-c0, c1)
        for c in self.constraints:
            if c.poly.params() == {v} and not (half_line and (
                    c.rel == "!=" or c.poly.univariate_linear() is None)):
                if not c.holds(c.poly.eval({v: root})):
                    return c
        return None

    def _definite_sign(self, p: Poly) -> bool:
        """All terms share a sign and have even exponents, and some term is
        a product of nonvanishing parameters (or a constant): p never
        vanishes on the domain."""
        signs = {c > 0 for c in p.terms.values()}
        if len(signs) != 1:
            return False
        nonvan = {q for q in self.nonvanishing_basis()
                  if len(q.terms) == 1 and len(next(iter(q.terms))) == 1}
        nonvan_idx = {next(iter(q.terms))[0][0] for q in nonvan}
        witness = False
        for mono in p.terms:
            if any(e % 2 for _, e in mono):
                return False
            if all(i in nonvan_idx for i, _ in mono):
                witness = True
        return witness

    def sign(self, p: Poly) -> int:
        """1 or -1 when p has that sign at every point of the domain, else 0:
        p is a nonzero constant, has a `_definite_sign`, or is c1*v + c0 with
        its root r outside a half-line q = a1*v + a0 > 0 (>=, <, <=) of the
        domain, where p = (c1/a1)*(q - q(r)) and q - q(r) has q's sign."""
        if p.is_const:
            return (p.const_value() > 0) - (p.const_value() < 0)
        if self._definite_sign(p):
            return 1 if next(iter(p.terms.values())) > 0 else -1
        c = self._root_excluded(p, half_line=True)
        if c is None:
            return 0
        k = p.univariate_linear()[1] * c.poly.univariate_linear()[1]
        return (1 if k > 0 else -1) * (1 if c.rel in (">", ">=") else -1)

    # -- sampling
    def sample(self, rng: random.Random, params: Iterable[Param],
               attempts: int = 400) -> dict:
        params = sorted(set(params) | self.params())
        for _ in range(attempts):
            asg = {}
            for p in params:
                num = rng.randint(-SAMPLE_HEIGHT, SAMPLE_HEIGHT)
                den = rng.randint(1, SAMPLE_HEIGHT)
                asg[p] = Fraction(num, den)
            if all(c.holds(c.poly.eval(asg)) for c in self.constraints):
                return asg
        if attempts < 4000 and self.satisfiable():
            # a thin domain: satisfiable()'s point, this draw for other params
            return {**asg, **self._point}
        raise DomainUnsatisfiable(f"no sample found after {attempts} attempts")

    def satisfiable(self) -> bool:
        """Whether a seeded search of 4000 draws of the domain's own
        parameters finds a point of the domain.  The point once found is
        remembered, for `sample` to fall back on, and the search runs until
        it first succeeds (a domain is never changed)."""
        if self._point is None:
            try:
                self._point = self.sample(random.Random(0xC0FFEE), (), attempts=4000)
            except DomainUnsatisfiable:
                return False
        return True

    def sampled_values(self, params: Iterable[Param], evaluate, trials: int,
                       seed: int):
        """Yield up to `trials` pairs (point, evaluate(point)) at seeded
        random points of the domain, skipping points where a denominator
        vanishes, within a budget of 20 * trials draws: the loop of
        `identity_test`, for the tests, and of no check.

        A nonzero polynomial of total degree d vanishes at a uniform point
        of S^n with probability at most d / |S| (Schwartz, "Fast
        probabilistic algorithms for verification of polynomial
        identities", J. ACM 27(4), 1980).  The draws here are rationals of
        bounded height, not uniform on a fixed S, so a nonzero value is
        exact while sampled zeros are evidence, not proof.
        """
        rng = random.Random(seed)
        budget = trials * 20
        done = 0
        while done < trials and budget > 0:
            budget -= 1
            asg = self.sample(rng, params)
            try:
                value = evaluate(asg)
            except DenominatorVanishes:
                continue
            done += 1
            yield asg, value

    def __repr__(self):
        return "ParamDomain(" + ", ".join(map(repr, self.constraints)) + ")"


EMPTY_DOMAIN = ParamDomain()


# ---------------------------------------------------------------------------
# Verdicts


class Verdict:
    """Outcome of `nonvanishing` (ZeroExact, NonZero or GenericNonZero) or of
    the sampling oracle identity_test (ZeroExact, ZeroSampled or NonZero)."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def __str__(self):
        return self.kind


def identity_test(s: Scalar, domain: ParamDomain = EMPTY_DOMAIN,
                  trials: int = 32, seed: int = 0) -> Verdict:
    """Decide whether s vanishes identically on the domain, by samples: an
    oracle for the tests, which no check calls.

    ZeroExact and NonZero are exact.  ZeroSampled (flagged for review) needs
    every sample on a zero set of the nonzero numerator: a parameter pinned
    to a root by weak inequalities (x >= 0, x <= 0), or a root at the point
    that `sample` falls back on.
    """
    if trials < 1:
        raise ScalarError("trials must be >= 1")
    if s.is_zero:
        return Verdict("ZeroExact")
    for _, v in domain.sampled_values(s.params(), s.eval, trials, seed):
        if v != 0:
            return Verdict("NonZero")
    return Verdict("ZeroSampled")


def nonvanishing(s: Scalar, domain: ParamDomain = EMPTY_DOMAIN) -> Verdict:
    """Whether s is nonzero on the domain, with no sample.  ZeroExact: s is
    identically zero.  NonZero is certified: s is a constant, or
    `known_nonzero` certifies its numerator.  Any other s is GenericNonZero,
    nonzero as a function but with no certificate, which certifies nothing:
    x*x - 5 on 2 < x < 3 vanishes at sqrt(5)."""
    if s.is_zero:
        return Verdict("ZeroExact")
    if s.is_const or domain.known_nonzero(s.num):
        return Verdict("NonZero")
    return Verdict("GenericNonZero")
