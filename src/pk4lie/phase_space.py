"""Two-dimensional left-symmetric algebras and the phase-space extension.

U = span(e1, e2) and its dual U* = span(e3, e4) with e3 = e1*, e4 = e2*.
Both sides carry a left-symmetric product, each given by its product
table: the dict {(a, b): coefficients of e_a.e_b} that `parse_products`
returns.  The combined product on U + U* is

    (X + a).(Y + b) = X.Y - Lt_a Y - Lt_X b + a.b

with Lt the transpose of left multiplication through the dual pairing.  So
left multiplication by X + a is block-diagonal on U + U*,

    diag(l_X - m_a^T, m_a - l_X^T),

for l_X the matrix of Y -> X.Y and m_a that of b -> a.b (the dual
representation form of the phase space; C. Bai, Rev. Math. Phys. 18
(2006)).  The pair is Lie-extendible when the commutator of this product
satisfies the Jacobi identity; the resulting bracket tables are what the
catalog's phase-space rows list.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .liealg import LieAlgebra4
from .linalg import PAIRS, Mat4, Vec4
from .notation import parse_endo, parse_two_form, parse_vector, read_table, write_table
from .scalars import ParseError, Scalar, ZERO
from .structures import validate_para_kahler

Vec2 = List[Scalar]
Products = Dict[Tuple[int, int], Vec2]


def parse_products(text: str, offset: int = 0) -> Products:
    """Product table "e2.e1=e1; e2.e2=alpha*e2" over a 2D basis.

    `offset` 0 reads the e1,e2 basis; 2 reads the dual basis e3,e4.
    """
    out: Products = {}
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


def emit_products(products: Products, offset: int = 0) -> str:
    return write_table(((f"e{offset+a+1}.e{offset+b+1}",
                         [ZERO] * offset + products[(a, b)] + [ZERO] * (2 - offset))
                        for (a, b) in sorted(products)), "trivial")


class LSAPair:
    """The product tables on U and on U*."""

    __slots__ = ("on_U", "on_Ustar")

    def __init__(self, on_U: Products, on_Ustar: Products):
        self.on_U, self.on_Ustar = on_U, on_Ustar


def assembled_brackets(pair: LSAPair) -> LieAlgebra4:
    """[e_i, e_j] = Lam_i e_j - Lam_j e_i for the left multiplications

        Lam(e_a) = diag(l_a, -l_a^T),   Lam(e*_b) = diag(-m_b^T, m_b),

    of the basis vectors, l_a the matrix of Y -> e_a.Y on U and m_b that of
    beta -> e*_b.beta on U*: the extension product with its two Lt terms
    written as transposes."""
    lam = []
    for table, on_U in ((pair.on_U, True), (pair.on_Ustar, False)):
        for a in range(2):
            # column b of the left multiplication by the a-th basis vector
            # is its product with the b-th
            m = [[table.get((a, b), (ZERO, ZERO))[r] for b in range(2)]
                 for r in range(2)]
            mt = [[-m[b][r] for b in range(2)] for r in range(2)]
            upper, lower = (m, mt) if on_U else (mt, m)
            lam.append([row + [ZERO, ZERO] for row in upper]
                       + [[ZERO, ZERO] + row for row in lower])
    return LieAlgebra4({(i, j): [lam[i][r][j] - lam[j][r][i] for r in range(4)]
                        for i, j in PAIRS})


def is_lie_extendible(L: LieAlgebra4) -> Tuple[bool, Dict[tuple, Vec4]]:
    """Jacobi verdict for L = assembled_brackets(pair), with residuals."""
    return L.is_lie_algebra(), L.defects


# ---------------------------------------------------------------------------
# The ten cataloged families of 2-dimensional left-symmetric algebras.
#
# Transcription notes: the printed list garbles three products; the values
# below are the ones that are actually left-symmetric and reproduce the
# phase-space bracket tables (b4: e2.e2 = e1+e2; b5+/-: e2.e2 = -2 e2 with
# e1.e1 = +-e2; c5-: e1.e1 = -e2).
#
# Each entry is (products, the family's parameter range as printed).  The
# range is a record of the paper's statement, which nothing parses: the
# Jacobi identity of an assembled pair and the normal form's checks are
# identities in the parameters, and read no domain.

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
    (empty for the trivial one)."""
    if name not in LSA_CATALOG_TEXT:
        raise ParseError(f"unknown left-symmetric algebra {name!r}; "
                         f"choices: {', '.join(sorted(LSA_CATALOG_TEXT))}")
    return LSAPair(parse_products(LSA_CATALOG_TEXT[name][0]),
                   parse_products(dual or "trivial", 2))


# The normal form that every phase-space pair carries: omega pairs U with
# U*, and K is +1 on U and -1 on U*.
NF_OMEGA_TEXT = "e13+e24"
NF_K_TEXT = "E11+E22-E33-E44"


def normal_form() -> Tuple[Mat4, Mat4]:
    """The phase-space normal form (omega, K) = (e13+e24, diag(1,1,-1,-1))."""
    return parse_two_form(NF_OMEGA_TEXT), parse_endo(NF_K_TEXT)


def normal_form_failures(L: LieAlgebra4) -> List[str]:
    """The checks of `validate_para_kahler` that the normal form fails on L.
    omega and K are constant, so `neutral_certified` holds and no check
    reads a domain: each is an identity in L's brackets."""
    return validate_para_kahler(L, *normal_form()).failing()
