"""Exact rational-function arithmetic over named parameters.

Every quantity in this package is a Scalar: a reduced fraction of
multivariate polynomials with rational coefficients in a registry of named
parameters.  Identities are decided exactly (numerator identically zero);
random sampling is only used for sign conditions and witness production.

Canonical forms need polynomial gcds and exact divisions.  Both are native:
the multivariate gcd recurses on the lowest-index parameter and runs a
primitive pseudo-remainder sequence over the other parameters, and exact
division is long division by lex-leading terms.  The package has no runtime
dependency; the tests use sympy as an independent gcd oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
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


class Param:
    """A named parameter; identity and ordering are by registration index."""

    __slots__ = ("name", "index")
    _registry: dict = {}
    _order: list = []

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
        return p

    def __repr__(self):
        return f"Param({self.name})"

    def __lt__(self, other):
        return self.index < other.index


# Stable registration order for the names the catalog uses, so canonical
# forms do not depend on load order.
for _n in ("alpha", "beta", "delta", "lam", "mu", "w", "x", "y", "z",
           "x1", "x2", "x3", "x4", "t1", "t2", "t3", "t4", "t5",
           "a21", "a22", "a31", "a33", "a34", "a41", "a43", "a44",
           "b33", "b34", "b43", "b44"):
    Param(_n)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over Fraction
#
# A monomial is a tuple of (param_index, exponent) pairs, sorted by index,
# exponents > 0.  () is the constant monomial.

Mono = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


_LEX_END = (float("inf"),)


def _mono_lex_key(m: Mono) -> tuple:
    # Lex over registration order: the lex-leading monomial has the smallest
    # key, so an ascending sort emits terms lex-descending.  Comparing the
    # (index, -exponent) pairs finds the first parameter where the exponent
    # vectors differ; the end marker sorts after every pair, so a monomial
    # that stops there has the smaller exponent.
    return (*[(i, -e) for i, e in m], _LEX_END)


class Poly:
    """Multivariate polynomial, dict of monomial -> nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = terms or {}

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly({(): c} if c else {})

    @staticmethod
    def var(p: Union[Param, str]) -> "Poly":
        if isinstance(p, str):
            p = Param(p)
        return Poly({((p.index, 1),): _ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const:
            raise ScalarError("not a constant polynomial")
        return self.terms.get((), _ZERO)

    def params(self) -> set:
        out = set()
        for m in self.terms:
            for i, _ in m:
                out.add(Param._order[i])
        return out

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
            s = t.get(m, _ZERO) + c
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
                s = t.get(m, _ZERO) + c1 * c2
                if s:
                    t[m] = s
                else:
                    t.pop(m, None)
        return Poly(t)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly()
        return Poly({m: cc * c for m, cc in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        out = Poly.const(1)
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

    def substitute(self, mapping: Mapping[Param, "Poly"]) -> "Poly":
        """Substitute polynomials for parameters."""
        out = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for i, e in m:
                p = Param._order[i]
                rep = mapping.get(p)
                if rep is None:
                    rep = Poly.var(p)
                term = term * rep ** e
            out = out + term
        return out

    def reduce_square(self, p: Param, replacement: "Poly") -> "Poly":
        """Rewrite p**2 -> replacement until degree in p is at most 1."""
        cur = self
        while cur.degree_in(p) >= 2:
            t: dict = {}
            extra = Poly()
            for m, c in cur.terms.items():
                e = dict(m).get(p.index, 0)
                if e >= 2:
                    rest = tuple((i, ee) for i, ee in m if i != p.index)
                    if e % 2:
                        rest = _mono_mul(rest, ((p.index, 1),))
                    extra = extra + Poly({rest: c}) * replacement ** (e // 2)
                else:
                    s = t.get(m, _ZERO) + c
                    if s:
                        t[m] = s
                    else:
                        t.pop(m, None)
            cur = Poly(t) + extra
        return cur

    def content_sign(self) -> Fraction:
        """Positive rational content, signed by the lex-leading coefficient."""
        if not self.terms:
            return _ONE
        nums = [c.numerator for c in self.terms.values()]
        dens = [c.denominator for c in self.terms.values()]
        from math import gcd, lcm
        g = 0
        for n in nums:
            g = gcd(g, abs(n))
        l = 1
        for d in dens:
            l = lcm(l, d)
        content = Fraction(g, l)
        lead = min(self.terms, key=_mono_lex_key)
        if self.terms[lead] < 0:
            content = -content
        return content

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_lex_key(kv[0]))

    def __repr__(self):
        return f"Poly({emit_poly(self)})"


def _poly_is_monomial(p: Poly) -> bool:
    return len(p.terms) == 1


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    da, db = dict(a), dict(b)
    out = []
    for i in da:
        if i in db:
            out.append((i, min(da[i], db[i])))
    return tuple(sorted(out))


def _mono_div(m: Mono, by: Mono) -> Mono:
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
    return Poly({g: _ONE})


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive positive gcd over Q[params]."""
    if a.is_zero:
        return _make_primitive(b)
    if b.is_zero:
        return _make_primitive(a)
    if a.is_const or b.is_const:
        return Poly.const(1)
    if _poly_is_monomial(a):
        return _gcd_with_monomial(a, b)
    if _poly_is_monomial(b):
        return _gcd_with_monomial(b, a)
    va, vb = a.params(), b.params()
    if len(va) == 1 and va == vb:
        return _univariate_gcd(a, b)
    return _multivariate_gcd(a, b)


def _make_primitive(p: Poly) -> Poly:
    if p.is_zero:
        return p
    c = p.content_sign()
    return p.scale(1 / c)


# poly_gcd's univariate and multivariate branches run the same _gcd; they are
# two functions so that a profile can count each branch.
def _univariate_gcd(a: Poly, b: Poly) -> Poly:
    return _make_primitive(_gcd(a, b))


def _multivariate_gcd(a: Poly, b: Poly) -> Poly:
    return _make_primitive(_gcd(a, b))


# The benchmark tracer's hook: it marks the multivariate branch by this name.
_from_sympy = _multivariate_gcd


def _gcd(a: Poly, b: Poly) -> Poly:
    """A gcd of a and b over Q[params], up to a rational factor.

    Let v be the lowest-index parameter of a and b.  Over Q[other params]
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
        return Poly({(): _ONE})
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _monomial_gcd((*a.terms, *b.terms))
    v = min(m[0][0] for m in (*a.terms, *b.terms) if m)
    sa, sb = _split(a, v), _split(b, v)
    ca, cb = _content(sa), _content(sb)
    c = _gcd(ca, cb)
    if max(sa) == 0 or max(sb) == 0:
        return c     # one operand is free of v: it is its own content
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
    """p / content with coprime integer coefficients, split in v."""
    return _split(_make_primitive(poly_divexact(p, content)), v)


def _split(p: Poly, v: int) -> dict:
    """{e: coefficient of v**e}, for v the lowest parameter index of p."""
    out: dict = {}
    for m, c in p.terms.items():
        if m and m[0][0] == v:
            out.setdefault(m[0][1], {})[m[1:]] = c
        else:
            out.setdefault(0, {})[m] = c
    return {e: Poly(t) for e, t in out.items()}


def _join(coeffs: dict, v: int) -> Poly:
    """Inverse of _split."""
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
    """Exact division; raises if not divisible."""
    if by.is_const:
        return a.scale(1 / by.const_value())
    if _poly_is_monomial(by):
        (m0, c0), = by.terms.items()
        return Poly({_mono_div(m, m0): c / c0 for m, c in a.terms.items()})
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
        qc = r.pop(m) / lc
        q[qm] = qc
        for mb, cb in rest:
            mm = _mono_mul(qm, mb)
            s = r.get(mm, _ZERO) - qc * cb
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return Poly(q)


# ---------------------------------------------------------------------------
# Scalar = reduced fraction of polynomials


class Scalar:
    """Reduced num/den pair; equality is structural on the canonical form.

    Canonical form: gcd(num, den) is a unit, den has integer coefficients
    with content 1 and positive lex-leading coefficient; constant dens are
    absorbed into num (den = 1).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None, _canonical: bool = False):
        if den is None:
            den = Poly.const(1)
        if den.is_zero:
            raise ZeroDivisionError("scalar with zero denominator")
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den

    # -- constructors
    @staticmethod
    def const(c) -> "Scalar":
        return Scalar(Poly.const(c))

    @staticmethod
    def var(name: Union[str, Param]) -> "Scalar":
        return Scalar(Poly.var(name))

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
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

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
    # canonical operands returns that operand, and one on two constants
    # (den = 1 in canonical form) builds its canonical result directly.
    def __add__(self, other):
        other = Scalar.of(other)
        if other.num.is_zero:
            return self
        if self.num.is_zero:
            return other
        if self.is_const and other.is_const:
            return Scalar(self.num + other.num, self.den, _canonical=True)
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        if self.num.is_zero:
            return self
        return Scalar(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = Scalar.of(other)
        if other.num.is_zero:
            return self
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        if self.num.is_zero or other.num.is_zero:
            return ZERO
        if self.is_const and other.is_const:
            return Scalar(self.num * other.num, self.den, _canonical=True)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return Scalar.const(1) / self ** (-n)
        return Scalar(self.num ** n, self.den ** n)

    def inv(self) -> "Scalar":
        return Scalar.const(1) / self

    def substitute(self, mapping: Mapping[Param, "Scalar"]) -> "Scalar":
        """Substitute scalars for parameters (exact)."""
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


def _canonicalize(num: Poly, den: Poly):
    if num.is_zero:
        return Poly(), Poly.const(1)
    if den.is_const:
        return num.scale(1 / den.const_value()), Poly.const(1)
    g = poly_gcd(num, den)
    if not g.is_const:
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
        if den.is_const:
            return num.scale(1 / den.const_value()), Poly.const(1)
    c = den.content_sign()
    return num.scale(1 / c), den.scale(1 / c)


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
HALF = Scalar.const(Fraction(1, 2))


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

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

    def expr(self) -> Scalar:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        out = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self) -> Scalar:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            f = self.factor()
            if op == "/" and f.is_zero:
                raise ParseError("division by zero")
            out = out * f if op == "*" else out / f
        return out

    def factor(self) -> Scalar:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        kind, val = self.next()
        if kind == "int":
            return Scalar.const(int(val)) * sign
        if kind == "name":
            return Scalar.var(val) * sign
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner * sign
        raise ParseError(f"unexpected token {val!r}")


def parse_scalar(text: str) -> Scalar:
    p = _P(_tokenize(text))
    out = p.expr()
    if p.peek() != "end":
        raise ParseError(f"trailing input in {text!r}")
    return out


def emit_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for i, e in m:
            factors.extend([Param._order[i].name] * e)
        mag = abs(c)
        if not factors or mag != 1:
            cs = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            factors.insert(0, cs)
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts)


def emit_scalar(s: Scalar) -> str:
    from math import lcm
    l = 1
    for c in s.num.terms.values():
        l = lcm(l, c.denominator)
    num = s.num.scale(l)
    den = s.den.scale(l)
    ns = emit_poly(num)
    if den.is_const and den.const_value() == 1:
        return ns
    ds = emit_poly(den)
    if len(num.terms) > 1 or "*" in ns:
        ns = f"({ns})"
    if len(den.terms) > 1 or "*" in ds or ds.startswith("-"):
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ---------------------------------------------------------------------------
# Parameter domains and randomized identity testing


_RELS = ("!=", ">=", "<=", ">", "<")


class Constraint:
    __slots__ = ("poly", "rel")

    def __init__(self, poly: Poly, rel: str):
        if rel not in _RELS:
            raise ParseError(f"bad relation {rel!r}")
        self.poly = poly
        self.rel = rel

    def holds(self, value: Fraction) -> bool:
        if self.rel == "!=":
            return value != 0
        if self.rel == ">":
            return value > 0
        if self.rel == "<":
            return value < 0
        if self.rel == ">=":
            return value >= 0
        return value <= 0

    def __repr__(self):
        return f"{emit_poly(self.poly)} {self.rel} 0"


class Radical:
    """Relation w**2 = radicand, with one parameter solved during sampling.

    The radicand must be linear in `solve_for`; sampling picks the free
    parameters plus w, then solves for `solve_for` so the relation holds
    exactly over the rationals.
    """

    __slots__ = ("w", "radicand", "solve_for")

    def __init__(self, w: Param, radicand: Poly, solve_for: Param):
        if radicand.degree_in(solve_for) != 1:
            raise ScalarError("radicand must be linear in the solved parameter")
        if radicand.degree_in(w) != 0:
            raise ScalarError("radicand must not involve the radical parameter")
        self.w = w
        self.radicand = radicand
        self.solve_for = solve_for


class ParamDomain:
    """Conjunction of polynomial sign constraints plus radical relations."""

    def __init__(self, constraints: Sequence[Constraint] = (),
                 radicals: Sequence[Radical] = ()):
        self.constraints = list(constraints)
        self.radicals = list(radicals)

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
                        cons.append(Constraint(s.num, rel))
                        break
                else:
                    raise ParseError(f"no relation in constraint {piece!r}")
        return ParamDomain(cons)

    def params(self) -> set:
        out = set()
        for c in self.constraints:
            out |= c.poly.params()
        for r in self.radicals:
            out |= r.radicand.params() | {r.w, r.solve_for}
        return out

    def merged(self, other: "ParamDomain") -> "ParamDomain":
        return ParamDomain(self.constraints + other.constraints,
                           self.radicals + other.radicals)

    def substituted(self, mapping) -> "ParamDomain":
        if self.radicals:
            raise ScalarError("cannot substitute into a domain with radicals")
        cons = []
        for c in self.constraints:
            s = _subst_poly(c.poly, mapping)
            if s.is_const:
                if not c.holds(s.const_value()):
                    raise ScalarError(f"substitution violates constraint {c!r}")
                continue
            if not s.den.is_const:
                raise ScalarError("substituted constraint not polynomial")
            cons.append(Constraint(s.num, c.rel))
        return ParamDomain(cons)

    # -- exact reduction modulo radical relations
    def reduce(self, p: Poly) -> Poly:
        for r in self.radicals:
            p = p.reduce_square(r.w, r.radicand)
        return p

    def is_zero_poly(self, p: Poly) -> bool:
        return self.reduce(p).is_zero

    def is_zero(self, s: Scalar) -> bool:
        return self.is_zero_poly(s.num)

    # -- nonvanishing certificates
    def nonvanishing_basis(self) -> list:
        out = []
        for c in self.constraints:
            if c.rel in ("!=", ">", "<"):
                out.append(_make_primitive(c.poly))
        for r in self.radicals:
            out.append(_make_primitive(Poly.var(r.w)))
        return out

    def known_nonzero(self, p: Poly) -> bool:
        """True if p provably has no zero on the domain (sufficient test)."""
        p = self.reduce(p)
        if p.is_zero:
            return False
        if self._root_excluded(p) or self._definite_sign(p):
            return True
        p = _make_primitive(p)
        basis = self.nonvanishing_basis()
        progress = True
        while not p.is_const and progress:
            progress = False
            for q in basis:
                # Any common factor g divides q, and q has no zero on the
                # domain, so neither does g; stripping it is sound.
                g = poly_gcd(p, q)
                while not g.is_const:
                    p = _make_primitive(poly_divexact(p, g))
                    progress = True
                    if p.is_const:
                        break
                    g = poly_gcd(p, q)
                if p.is_const:
                    break
        return p.is_const

    def _root_excluded(self, p: Poly) -> bool:
        """Univariate-linear p whose only root violates a univariate
        constraint on the same parameter."""
        params = p.params()
        if len(params) != 1:
            return False
        v = next(iter(params))
        if p.degree_in(v) != 1 or len(p.terms) > 2:
            return False
        c1 = p.terms.get(((v.index, 1),))
        c0 = p.terms.get((), _ZERO)
        if c1 is None:
            return False
        root = -c0 / c1
        for c in self.constraints:
            if c.poly.params() == {v}:
                try:
                    if not c.holds(c.poly.eval({v: root})):
                        return True
                except MissingParam:
                    continue
        return False

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

    # -- sampling
    def sample(self, rng: random.Random, params: Iterable[Param],
               height: int = 100, attempts: int = 400) -> dict:
        params = set(params) | self.params()
        solved = {r.solve_for for r in self.radicals}
        free = sorted(params - solved, key=lambda p: p.index)
        for _ in range(attempts):
            asg = {}
            for p in free:
                num = rng.randint(-height, height)
                den = rng.randint(1, height)
                asg[p] = Fraction(num, den)
            ok = True
            for r in self.radicals:
                # radicand = A*solve_for + B; solve A*s + B = w**2
                s = r.solve_for
                a_poly = Poly()
                b_poly = Poly()
                for m, c in r.radicand.terms.items():
                    e = dict(m).get(s.index, 0)
                    if e:
                        a_poly = a_poly + Poly({_mono_div(m, ((s.index, 1),)): c})
                    else:
                        b_poly = b_poly + Poly({m: c})
                try:
                    a = a_poly.eval(asg)
                    b = b_poly.eval(asg)
                except MissingParam:
                    ok = False
                    break
                if a == 0:
                    ok = False
                    break
                asg[s] = (asg[r.w] ** 2 - b) / a
            if not ok:
                continue
            try:
                if all(c.holds(c.poly.eval(asg)) for c in self.constraints):
                    return asg
            except MissingParam:
                # constraint mentions a param not requested: sample it too
                missing = self.params() - set(asg)
                for p in missing:
                    asg[p] = Fraction(rng.randint(-height, height), rng.randint(1, height))
                if all(c.holds(c.poly.eval(asg)) for c in self.constraints):
                    return asg
        raise DomainUnsatisfiable(f"no sample found after {attempts} attempts")

    def __repr__(self):
        return "ParamDomain(" + ", ".join(map(repr, self.constraints)) + ")"


EMPTY_DOMAIN = ParamDomain()


# ---------------------------------------------------------------------------
# Verdicts


class Verdict:
    """Outcome of identity testing: ZeroExact, ZeroSampled or NonZero."""

    __slots__ = ("kind", "witness", "trials")

    def __init__(self, kind: str, witness: Optional[dict] = None, trials: int = 0):
        self.kind = kind
        self.witness = witness
        self.trials = trials

    @property
    def is_zero(self) -> bool:
        return self.kind in ("ZeroExact", "ZeroSampled")

    def __repr__(self):
        if self.kind == "NonZero":
            w = {p.name: str(v) for p, v in (self.witness or {}).items()}
            return f"NonZero({w})"
        if self.kind == "ZeroSampled":
            return f"ZeroSampled({self.trials})"
        return self.kind

    def __eq__(self, other):
        return isinstance(other, Verdict) and self.kind == other.kind


def identity_test(s: Scalar, domain: ParamDomain = EMPTY_DOMAIN,
                  trials: int = 32, seed: int = 0) -> Verdict:
    """Decide whether s vanishes identically on the domain.

    Exact arithmetic makes the polynomial case decidable without sampling;
    ZeroSampled is only reachable through the radical-relation escape hatch
    and is flagged for review rather than trusted.
    """
    if trials < 1:
        raise ScalarError("trials must be >= 1")
    num = domain.reduce(s.num)
    if num.is_zero:
        return Verdict("ZeroExact")
    rng = random.Random(seed)
    params = s.params() | domain.params()
    done = 0
    budget = trials * 20
    while done < trials and budget > 0:
        budget -= 1
        asg = domain.sample(rng, params)
        try:
            v = s.eval(asg)
        except DenominatorVanishes:
            continue
        if v != 0:
            return Verdict("NonZero", witness=asg, trials=done + 1)
        done += 1
    return Verdict("ZeroSampled", trials=done)


def nonvanishing(s: Scalar, domain: ParamDomain = EMPTY_DOMAIN,
                 trials: int = 32, seed: int = 0) -> Verdict:
    """Whether s is nonzero on the domain: ZeroExact when it vanishes there,
    NonZero for a constant or a certified numerator (known_nonzero), and
    otherwise the sampled verdict of identity_test."""
    if domain.is_zero(s):
        return Verdict("ZeroExact")
    if s.is_const or domain.known_nonzero(domain.reduce(s.num)):
        return Verdict("NonZero", witness=None, trials=0)
    return identity_test(s, domain, trials=trials, seed=seed)
