"""Linear maps between fixed-basis Lie algebras and structure transport."""

from __future__ import annotations

from typing import Dict, Tuple

from .liealg import LieAlgebra4
from .linalg import Mat4, Vec4, vbasis, vis_zero, vsub
from .scalars import ParamDomain, ScalarError, Verdict, nonvanishing


class NotAutomorphism(ScalarError):
    pass


class LinMap:
    """matrix columns are the images of the source basis in target coordinates."""

    __slots__ = ("matrix", "source", "target")

    def __init__(self, matrix: Mat4, source: LieAlgebra4, target: LieAlgebra4):
        self.matrix, self.source, self.target = matrix, source, target

    def invertible(self, domain: ParamDomain, trials: int = 32,
                   seed: int = 0) -> Verdict:
        """Whether det P is nonzero on the domain (see `nonvanishing`)."""
        return nonvanishing(self.matrix.det(), domain, trials, seed)


def iso_residuals(m: LinMap) -> Dict[tuple, Vec4]:
    """P[e_i,e_j]_source - [P e_i, P e_j]_target for all basis pairs."""
    p = m.matrix
    cols = [p.apply(vbasis(c)) for c in range(4)]
    out = {}
    for i in range(4):
        for j in range(i + 1, 4):
            lhs = p.apply(m.source.bracket_basis(i, j))
            rhs = m.target.bracket(cols[i], cols[j])
            out[(i, j)] = vsub(lhs, rhs)
    return out


def check_lie_isomorphism(m: LinMap) -> Tuple[bool, Dict[tuple, Vec4]]:
    res = iso_residuals(m)
    ok = all(vis_zero(v) for v in res.values())
    return ok, res


def transport(m: LinMap, omega: Mat4, K: Mat4) -> Tuple[Mat4, Mat4]:
    """Pull a structure on the map's target back to its source basis:

        (P^t omega P,  P^{-1} K P).
    """
    p = m.matrix
    w = p.transpose() @ omega @ p
    k = p.inverse() @ K @ p
    return w, k


def check_equivalence(T: LinMap, s1: Tuple[Mat4, Mat4],
                      s2: Tuple[Mat4, Mat4]) -> Tuple[bool, Dict[str, Mat4]]:
    """Equivalence of structures through an automorphism T: T pulls s2 back
    to s1, transport(T, *s2) = s1, that is

        T^t omega2 T = omega1   and   T^{-1} K2 T = K1.

    Raises NotAutomorphism unless T is a Lie isomorphism of its (single)
    algebra.
    """
    if T.source is not T.target and T.source.serialize() != T.target.serialize():
        raise NotAutomorphism("map endpoints differ")
    ok, _ = check_lie_isomorphism(T)
    if not ok:
        raise NotAutomorphism("map is not a Lie algebra automorphism")
    omega, k = transport(T, *s2)
    d_omega, d_k = omega - s1[0], k - s1[1]
    good = d_omega.is_zero() and d_k.is_zero()
    return good, {"omega": d_omega, "K": d_k}
