"""Line-oriented text notation for the catalog and serializers.

Atoms: e1..e4 (basis vectors), e12 (wedge two-form e^1^e^2), eps12
(symmetric two-form), E12 (endomorphism sending e2 to e1); everything else
follows the scalar grammar.  The sign tokens `+-` (plus-over-minus) and
`-+` (minus-over-plus) expand into two co-varying concrete variants:
variant "a" takes every top sign, variant "b" every bottom sign.
"""

from __future__ import annotations

import operator
import re
from typing import Dict, List, Optional

from .linalg import Mat4, Vec4, vzero
from .scalars import ParseError, Scalar, ZERO, ONE, _parse, _scalar_leaf, emit_scalar

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
# Linear combinations of structured atoms, read by the scalar grammar

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

    @property
    def is_zero(self):
        return self.is_scalar and self.scalar.is_zero

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


def _parse_lin(text: str, kind: str) -> _Lin:
    """Parse `text` as a combination of `kind` atoms, keyed by their 0-based
    index tuples.  An atom of another kind is a ParseError; any other name
    is a parameter."""
    atom_re = _ATOM_RES[kind]
    others = [(k, r) for k, r in _ATOM_RES.items() if k != kind]

    def leaf(tok: str, val: str) -> _Lin:
        m = atom_re.match(val)
        if m is not None:
            return _Lin.of_atom(tuple(int(g) - 1 for g in m.groups()))
        for other, other_re in others:
            if other_re.match(val):
                raise ParseError(f"{other} atom {val} in a {kind} "
                                 f"expression: {text!r}")
        return _Lin.of_scalar(_scalar_leaf(tok, val))

    return _parse(text, leaf)


# ---------------------------------------------------------------------------
# Concrete object parsers


def _parse_terms(text: str, kind: str, what: str) -> dict:
    """The atom coefficients of `text`; a ParseError if it has a scalar part."""
    lin = _parse_lin(text, kind)
    if not lin.scalar.is_zero:
        raise ParseError(f"{what} has a scalar part: {text!r}")
    return lin.coeffs


def _parse_matrix(text: str, kind: str, what: str, mirror=None) -> Mat4:
    """Coefficient c of atom (i, j) at entry (i, j) and, for i != j,
    mirror(entry (j, i), c) at (j, i): operator.sub for a two-form (where
    a diagonal atom is zero), operator.add for a symmetric form, None for
    an endomorphism."""
    m = Mat4.zeros()
    for (i, j), c in _parse_terms(text, kind, what).items():
        if i == j and mirror is operator.sub:
            raise ParseError(f"e{i+1}{j+1} wedge is zero")
        m.rows[i][j] = m.rows[i][j] + c
        if i != j and mirror is not None:
            m.rows[j][i] = mirror(m.rows[j][i], c)
    return m


def _emit_matrix(m: Mat4, prefix: str, keep) -> str:
    """The entries (i, j) with keep(i, j), as prefix-ij atoms."""
    return _emit_terms([(f"{prefix}{i+1}{j+1}", m.rows[i][j])
                        for i in range(4) for j in range(4)
                        if keep(i, j) and not m.rows[i][j].is_zero])


def parse_vector(text: str) -> Vec4:
    v = vzero()
    for (i,), c in _parse_terms(text, "vec", "vector expression").items():
        v[i] = v[i] + c
    return v


def emit_vector(v: Vec4) -> str:
    return _emit_terms([(f"e{i+1}", c) for i, c in enumerate(v) if not c.is_zero])


def parse_two_form(text: str) -> Mat4:
    """Antisymmetric two-form from wedge atoms e.g. "e14+e23"."""
    return _parse_matrix(text, "wedge", "two-form", operator.sub)


def emit_two_form(m: Mat4) -> str:
    return _emit_matrix(m, "e", operator.lt)


def parse_sym_form(text: str) -> Mat4:
    """Symmetric two-form from eps atoms; eps_ij = e^i (.) e^j.

    For i != j the atom eps_ij sets both (i,j) and (j,i) matrix entries to
    its coefficient; eps_ii sets the diagonal entry.
    """
    return _parse_matrix(text, "sym", "symmetric form", operator.add)


def emit_sym_form(m: Mat4) -> str:
    return _emit_matrix(m, "eps", operator.le)


def parse_endo(text: str) -> Mat4:
    return _parse_matrix(text, "endo", "endomorphism")


def emit_endo(m: Mat4) -> str:
    return _emit_matrix(m, "E", lambda i, j: True)


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


def read_table(text: str, lhs: str, what: str, empty: str = "",
               sep: str = ";") -> List[tuple]:
    """The `sep`-separated pieces "lhs = rhs" of a table, as (the groups of
    the `lhs` pattern, the rhs text); none for a blank text or `empty`.
    Blank pieces are skipped; any other piece must match."""
    text = text.strip()
    if text == empty:
        return []
    piece_re = re.compile(rf"{lhs}\s*=\s*(.+)")
    out = []
    for piece in text.split(sep):
        piece = piece.strip()
        if not piece:
            continue
        m = piece_re.fullmatch(piece)
        if m is None:
            raise ParseError(f"bad {what} {piece!r}")
        *groups, rhs = m.groups()
        out.append((groups, rhs))
    return out


def write_table(items, empty: str) -> str:
    """The pieces "lhs=vector" of the (lhs, Vec4) items whose vector is
    nonzero, joined by "; "; `empty` when there are none."""
    return "; ".join(f"{lhs}={emit_vector(v)}" for lhs, v in items
                     if not all(c.is_zero for c in v)) or empty


def parse_brackets(text: str) -> Dict[tuple, Vec4]:
    """Bracket table "[e1,e2]=e3; [e4,e3]=e3" -> {(i,j): vector}, i<j."""
    out: Dict[tuple, Vec4] = {}
    for (i, j), rhs in read_table(text, r"\[\s*e([1-4])\s*,\s*e([1-4])\s*\]",
                                  "bracket equation", "abelian"):
        i, j = int(i) - 1, int(j) - 1
        v = parse_vector(rhs)
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
    return write_table(((f"[e{i+1},e{j+1}]", brackets[(i, j)])
                        for (i, j) in sorted(brackets)), "abelian")


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
