"""Line-oriented text notation for the catalog and serializers.

Atoms: e1..e4 (basis vectors), e12 (wedge two-form e^1^e^2), eps12
(symmetric two-form), E12 (endomorphism sending e2 to e1); everything else
follows the scalar grammar.  The sign tokens `+-` (plus-over-minus) and
`-+` (minus-over-plus) expand into two co-varying concrete variants:
variant "a" takes every top sign, variant "b" every bottom sign.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .linalg import Mat4, Vec4, vzero
from .scalars import ParseError, Scalar, ZERO, ONE, _tokenize, emit_scalar

SIGN_RE = re.compile(r"\+-|-\+")


def has_sign_tokens(text: str) -> bool:
    return SIGN_RE.search(text) is not None


def expand_signs(text: str, variant: str) -> str:
    """Resolve every sign token: variant 'a' = top signs, 'b' = bottom."""
    if variant == "a":
        return SIGN_RE.sub(lambda m: "+" if m.group() == "+-" else "-", text)
    if variant == "b":
        return SIGN_RE.sub(lambda m: "-" if m.group() == "+-" else "+", text)
    raise ParseError(f"unknown sign variant {variant!r}")


# ---------------------------------------------------------------------------
# Generic linear-combination parser over structured atoms

_ATOM_RES = {
    "vec": re.compile(r"^e([1-4])$"),
    "wedge": re.compile(r"^e([1-4])([1-4])$"),
    "sym": re.compile(r"^eps([1-4])([1-4])$"),
    "endo": re.compile(r"^E([1-4])([1-4])$"),
}


class _Lin:
    """Scalar multiple of structured atoms plus a pure scalar part."""

    def __init__(self, coeffs: Optional[dict] = None, scalar: Scalar = ZERO):
        self.coeffs = coeffs or {}
        self.scalar = scalar

    @staticmethod
    def of_scalar(s: Scalar) -> "_Lin":
        return _Lin({}, s)

    @staticmethod
    def of_atom(key) -> "_Lin":
        return _Lin({key: ONE}, ZERO)

    @property
    def is_scalar(self):
        return not self.coeffs

    def __add__(self, other):
        c = dict(self.coeffs)
        for k, v in other.coeffs.items():
            c[k] = c.get(k, ZERO) + v
        return _Lin({k: v for k, v in c.items() if not v.is_zero},
                    self.scalar + other.scalar)

    def __neg__(self):
        return _Lin({k: -v for k, v in self.coeffs.items()}, -self.scalar)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_scalar:
            return _Lin({k: self.scalar * v for k, v in other.coeffs.items()},
                        self.scalar * other.scalar)
        if other.is_scalar:
            return _Lin({k: v * other.scalar for k, v in self.coeffs.items()},
                        self.scalar * other.scalar)
        raise ParseError("cannot multiply two atom-valued expressions")

    def __truediv__(self, other):
        if not other.is_scalar:
            raise ParseError("cannot divide by an atom-valued expression")
        return _Lin({k: v / other.scalar for k, v in self.coeffs.items()},
                    self.scalar / other.scalar)


class _LinParser:
    def __init__(self, toks, kinds: Tuple[str, ...]):
        self.toks = toks
        self.i = 0
        self.kinds = kinds

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def atom_of(self, name: str):
        for kind in self.kinds:
            m = _ATOM_RES[kind].match(name)
            if m:
                idx = tuple(int(g) - 1 for g in m.groups())
                return (kind,) + idx
        return None

    def expr(self) -> _Lin:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        out = self.term()
        if sign < 0:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self) -> _Lin:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            f = self.factor()
            if op == "/" and f.is_scalar and f.scalar.is_zero:
                raise ParseError("division by zero")
            out = out * f if op == "*" else out / f
        return out

    def factor(self) -> _Lin:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        kind, val = self.next()
        if kind == "int":
            out = _Lin.of_scalar(Scalar.const(int(val)))
        elif kind == "name":
            atom = self.atom_of(val)
            out = _Lin.of_atom(atom) if atom else _Lin.of_scalar(Scalar.var(val))
        elif kind == "(":
            out = self.expr()
            if self.next()[0] != ")":
                raise ParseError("expected )")
        else:
            raise ParseError(f"unexpected token {val!r}")
        return -out if sign < 0 else out


def _parse_lin(text: str, kinds: Tuple[str, ...]) -> _Lin:
    p = _LinParser(_tokenize(text), kinds)
    out = p.expr()
    if p.peek() != "end":
        raise ParseError(f"trailing input in {text!r}")
    return out


# ---------------------------------------------------------------------------
# Concrete object parsers


def parse_vector(text: str) -> Vec4:
    lin = _parse_lin(text, ("vec",))
    if not lin.scalar.is_zero:
        raise ParseError(f"vector expression has a scalar part: {text!r}")
    v = vzero()
    for (_, i), c in lin.coeffs.items():
        v[i] = v[i] + c
    return v


def emit_vector(v: Vec4) -> str:
    parts = []
    for i, c in enumerate(v):
        if c.is_zero:
            continue
        cs = emit_scalar(c)
        if cs == "1":
            term = f"e{i+1}"
        elif cs == "-1":
            term = f"-e{i+1}"
        elif ("+" in cs[1:]) or ("-" in cs[1:]) or "/" in cs:
            term = f"({cs})*e{i+1}"
        else:
            term = f"{cs}*e{i+1}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


def parse_two_form(text: str) -> Mat4:
    """Antisymmetric two-form from wedge atoms e.g. "e14+e23"."""
    lin = _parse_lin(text, ("wedge",))
    if not lin.scalar.is_zero:
        raise ParseError(f"two-form has a scalar part: {text!r}")
    m = Mat4.zeros("bilinear-form")
    for (_, i, j), c in lin.coeffs.items():
        if i == j:
            raise ParseError(f"e{i+1}{j+1} wedge is zero")
        m.rows[i][j] = m.rows[i][j] + c
        m.rows[j][i] = m.rows[j][i] - c
    return m


def emit_two_form(m: Mat4) -> str:
    parts = []
    for i in range(4):
        for j in range(i + 1, 4):
            c = m.rows[i][j]
            if c.is_zero:
                continue
            parts.append((f"e{i+1}{j+1}", c))
    return _emit_terms(parts)


def parse_sym_form(text: str) -> Mat4:
    """Symmetric two-form from eps atoms; eps_ij = e^i (.) e^j.

    For i != j the atom eps_ij sets both (i,j) and (j,i) matrix entries to
    its coefficient; eps_ii sets the diagonal entry.
    """
    lin = _parse_lin(text, ("sym",))
    if not lin.scalar.is_zero:
        raise ParseError(f"symmetric form has a scalar part: {text!r}")
    m = Mat4.zeros("bilinear-form")
    for (_, i, j), c in lin.coeffs.items():
        if i == j:
            m.rows[i][i] = m.rows[i][i] + c
        else:
            m.rows[i][j] = m.rows[i][j] + c
            m.rows[j][i] = m.rows[j][i] + c
    return m


def emit_sym_form(m: Mat4) -> str:
    parts = []
    for i in range(4):
        for j in range(i, 4):
            c = m.rows[i][j]
            if c.is_zero:
                continue
            parts.append((f"eps{i+1}{j+1}", c))
    return _emit_terms(parts)


def parse_endo(text: str) -> Mat4:
    lin = _parse_lin(text, ("endo",))
    if not lin.scalar.is_zero:
        raise ParseError(f"endomorphism has a scalar part: {text!r}")
    m = Mat4.zeros("endomorphism")
    for (_, i, j), c in lin.coeffs.items():
        m.rows[i][j] = m.rows[i][j] + c
    return m


def emit_endo(m: Mat4) -> str:
    parts = []
    for i in range(4):
        for j in range(4):
            c = m.rows[i][j]
            if c.is_zero:
                continue
            parts.append((f"E{i+1}{j+1}", c))
    return _emit_terms(parts)


def _emit_terms(parts: List[tuple]) -> str:
    if not parts:
        return "0"
    out = []
    for name, c in parts:
        cs = emit_scalar(c)
        if cs == "1":
            term = name
        elif cs == "-1":
            term = "-" + name
        elif ("+" in cs[1:]) or ("-" in cs[1:]) or "/" in cs:
            term = f"({cs})*{name}"
        else:
            term = f"{cs}*{name}"
        if out and not term.startswith("-"):
            out.append("+" + term)
        else:
            out.append(term)
    return "".join(out)


_BRACKET_RE = re.compile(r"\[\s*e([1-4])\s*,\s*e([1-4])\s*\]\s*=\s*(.+)$")


def parse_brackets(text: str) -> Dict[tuple, Vec4]:
    """Bracket table "[e1,e2]=e3; [e4,e3]=e3" -> {(i,j): vector}, i<j."""
    out: Dict[tuple, Vec4] = {}
    text = text.strip()
    if not text or text == "abelian":
        return out
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        m = _BRACKET_RE.match(piece)
        if not m:
            raise ParseError(f"bad bracket equation {piece!r}")
        i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
        v = parse_vector(m.group(3))
        if i == j:
            raise ParseError(f"bracket [e{i+1},e{i+1}] must vanish")
        if i > j:
            i, j = j, i
            v = [-c for c in v]
        if (i, j) in out:
            raise ParseError(f"duplicate bracket for (e{i+1},e{j+1})")
        out[(i, j)] = v
    return out


def emit_brackets(brackets: Dict[tuple, Vec4]) -> str:
    parts = []
    for (i, j) in sorted(brackets):
        v = brackets[(i, j)]
        if all(c.is_zero for c in v):
            continue
        parts.append(f"[e{i+1},e{j+1}]={emit_vector(v)}")
    return "; ".join(parts) if parts else "abelian"


def parse_tuple4(text: str) -> List[Scalar]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"expected a 4-tuple, got {text!r}")
    parts = _split_top(text[1:-1])
    if len(parts) != 4:
        raise ParseError(f"expected 4 components in {text!r}")
    from .scalars import parse_scalar
    return [parse_scalar(p) for p in parts]


def _split_top(text: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts
