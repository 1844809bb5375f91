"""Two-dimensional left-symmetric algebras and the phase-space extension.

U = span(e1, e2) and its dual U* = span(e3, e4) with e3 = e1*, e4 = e2*.
Both sides carry a left-symmetric product; the combined product on U + U*
is

    (X + a).(Y + b) = X.Y - Lt_a Y - Lt_X b + a.b

with Lt the transpose of left multiplication through the dual pairing.
The pair is Lie-extendible when the commutator of this product satisfies
the Jacobi identity; the resulting bracket tables are what the catalog's
phase-space rows list.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .liealg import LieAlgebra4
from .linalg import Mat4, Vec4, vis_zero
from .notation import parse_endo, parse_two_form, parse_vector, read_table, write_table
from .scalars import EMPTY_DOMAIN, ParamDomain, ParseError, Scalar, ZERO, ONE

Vec2 = List[Scalar]


class LSA2:
    """Left-symmetric product on a 2-dimensional space.

    products[(a, b)] is the coefficient vector of basis_a . basis_b; only
    nonzero products are stored.  Left-symmetry ass(u,v,w) = ass(v,u,w) is
    a checked property.
    """

    def __init__(self, products: Dict[tuple, Vec2]):
        self.products = {k: list(v) for k, v in products.items()
                         if not all(c.is_zero for c in v)}

    def product_basis(self, a: int, b: int) -> Vec2:
        v = self.products.get((a, b))
        return list(v) if v else [ZERO, ZERO]

    def product(self, u: Vec2, v: Vec2) -> Vec2:
        out = [ZERO, ZERO]
        for a in range(2):
            for b in range(2):
                c = u[a] * v[b]
                if c.is_zero:
                    continue
                p = self.product_basis(a, b)
                out = [o + c * pc for o, pc in zip(out, p)]
        return out

    @staticmethod
    def parse(text: str, offset: int = 0) -> "LSA2":
        return LSA2(parse_products(text, offset))

    def serialize(self, offset: int = 0) -> str:
        return emit_products(self.products, offset)


def parse_products(text: str, offset: int = 0) -> Dict[tuple, Vec2]:
    """Product table "e2.e1=e1; e2.e2=alpha*e2" over a 2D basis.

    `offset` 0 reads the e1,e2 basis; 2 reads the dual basis e3,e4.
    """
    out: Dict[tuple, Vec2] = {}
    names = (f"e{offset+1}", f"e{offset+2}")
    for (i, j), rhs in read_table(text, r"e([1-4])\s*\.\s*e([1-4])",
                                  "product equation", "trivial"):
        a, b = int(i) - 1 - offset, int(j) - 1 - offset
        if not (0 <= a < 2 and 0 <= b < 2):
            raise ParseError(f"product {f'e{i}.e{j}={rhs}'!r} outside basis {names}")
        v4 = parse_vector(rhs)
        if any(not c.is_zero for c in v4[:offset] + v4[offset + 2:]):
            raise ParseError(f"vector {rhs!r} leaves the 2D basis")
        if (a, b) in out:
            raise ParseError(f"duplicate product in {text.strip()!r}")
        out[(a, b)] = v4[offset:offset + 2]
    return out


def emit_products(products: Dict[tuple, Vec2], offset: int = 0) -> str:
    return write_table(((f"e{offset+a+1}.e{offset+b+1}",
                         [ZERO] * offset + products[(a, b)] + [ZERO] * (2 - offset))
                        for (a, b) in sorted(products)), "trivial")


class LSAPair:
    """A product on U and one on U*, over the family's domain: the only
    domain of a phase-space pair."""

    __slots__ = ("on_U", "on_Ustar", "domain")

    def __init__(self, on_U: LSA2, on_Ustar: LSA2,
                 domain: ParamDomain = EMPTY_DOMAIN):
        self.on_U, self.on_Ustar, self.domain = on_U, on_Ustar, domain


def phase_product(pair: LSAPair, p: Vec4, q: Vec4) -> Vec4:
    """The extension product on U + U* evaluated on coordinate vectors."""
    X, alpha = p[:2], p[2:]
    Y, beta = q[:2], q[2:]
    U, Us = pair.on_U, pair.on_Ustar

    out_u = U.product(X, Y)
    out_s = Us.product(alpha, beta)

    # - Lt_X beta, a U* element: (Lt_X b)(v) = b(X.v)
    for j in range(2):  # component on e_{3+j} = dual of e_{1+j}
        val = ZERO
        for b in range(2):
            if beta[b].is_zero:
                continue
            # b-th dual basis vector applied to X.e_{1+j}
            val = val + beta[b] * U.product(X, _basis2(j))[b]
        out_s[j] = out_s[j] - val

    # - Lt_alpha Y, a U element: its e_{1+j} component is (alpha . e_{3+j})(Y)
    for j in range(2):
        val = ZERO
        for a in range(2):
            if alpha[a].is_zero:
                continue
            prod = Us.product(_basis2(a), _basis2(j))
            val = val + alpha[a] * sum((prod[b] * Y[b] for b in range(2)), ZERO)
        out_u[j] = out_u[j] - val

    return [out_u[0], out_u[1], out_s[0], out_s[1]]


def _basis2(i: int) -> Vec2:
    return [ONE, ZERO] if i == 0 else [ZERO, ONE]


def assembled_brackets(pair: LSAPair) -> LieAlgebra4:
    """Lie algebra candidate from commutators of the extension product."""
    basis = [
        [ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE],
    ]
    br = {}
    for i in range(4):
        for j in range(i + 1, 4):
            pq = phase_product(pair, basis[i], basis[j])
            qp = phase_product(pair, basis[j], basis[i])
            br[(i, j)] = [a - b for a, b in zip(pq, qp)]
    return LieAlgebra4(br)


def is_lie_extendible(L: LieAlgebra4) -> Tuple[bool, Dict[tuple, Vec4]]:
    """Jacobi verdict for L = assembled_brackets(pair), with residuals."""
    defects = L.jacobi_defect()
    ok = all(vis_zero(v) for v in defects.values())
    return ok, defects


# ---------------------------------------------------------------------------
# The ten cataloged families of 2-dimensional left-symmetric algebras.
#
# Transcription notes: the printed list garbles three products; the values
# below are the ones that are actually left-symmetric and reproduce the
# phase-space bracket tables (b4: e2.e2 = e1+e2; b5+/-: e2.e2 = -2 e2 with
# e1.e1 = +-e2; c5-: e1.e1 = -e2).

LSA_CATALOG_TEXT = {
    "b1_alpha": ("e2.e1=e1; e2.e2=alpha*e2", ""),
    "b2": ("e2.e1=e1; e2.e2=e1+e2", ""),
    "b3_alpha": ("e1.e2=e1; e2.e1=(1-1/alpha)*e1; e2.e2=e2", "alpha != 0"),
    "b4": ("e1.e2=e1; e2.e2=e1+e2", ""),
    "b5_plus": ("e1.e1=e2; e2.e1=-e1; e2.e2=-2*e2", ""),
    "b5_minus": ("e1.e1=-e2; e2.e1=-e1; e2.e2=-2*e2", ""),
    "c1": ("trivial", ""),
    "c2": ("e2.e2=e2", ""),
    "c3": ("e2.e2=e1", ""),
    "c4": ("e2.e2=e2; e2.e1=e1; e1.e2=e1", ""),
    "c5_plus": ("e2.e2=e2; e2.e1=e1; e1.e2=e1; e1.e1=e2", ""),
    "c5_minus": ("e2.e2=e2; e2.e1=e1; e1.e2=e1; e1.e1=-e2", ""),
}


def lsa_pair(name: str, dual: str) -> LSAPair:
    """The cataloged algebra `name` on U with the product table `dual` on U*
    (empty for the trivial one), over the family's domain."""
    if name not in LSA_CATALOG_TEXT:
        raise ParseError(f"unknown left-symmetric algebra {name!r}; "
                         f"choices: {', '.join(sorted(LSA_CATALOG_TEXT))}")
    text, domain = LSA_CATALOG_TEXT[name]
    return LSAPair(LSA2.parse(text), LSA2.parse(dual or "trivial", offset=2),
                   ParamDomain.parse(domain))


# The normal form that every phase-space pair carries: omega pairs U with
# U*, and K is +1 on U and -1 on U*.
NF_OMEGA_TEXT = "e13+e24"
NF_K_TEXT = "E11+E22-E33-E44"


def normal_form() -> Tuple[Mat4, Mat4]:
    """The phase-space normal form (omega, K) = (e13+e24, diag(1,1,-1,-1))."""
    return parse_two_form(NF_OMEGA_TEXT), parse_endo(NF_K_TEXT)
