"""Linear maps between fixed-basis Lie algebras and structure transport."""

from __future__ import annotations

from typing import Dict, Tuple

from .liealg import LieAlgebra4
from .linalg import Mat4, Vec4, vis_zero, vsub
from .scalars import ParamDomain, Verdict, nonvanishing


class LinMap:
    """matrix columns are the images of the source basis in target coordinates."""

    __slots__ = ("matrix", "source", "target")

    def __init__(self, matrix: Mat4, source: LieAlgebra4, target: LieAlgebra4):
        self.matrix, self.source, self.target = matrix, source, target

    def invertible(self, domain: ParamDomain) -> Verdict:
        """Whether det P is nonzero on the domain (see `nonvanishing`)."""
        return nonvanishing(self.matrix.det(), domain)


def iso_residuals(m: LinMap) -> Dict[tuple, Vec4]:
    """P[e_i,e_j]_source - [P e_i, P e_j]_target for all basis pairs."""
    p = m.matrix
    cols = p.transpose().rows
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
    """(P^t omega P, P^{-1} K P): a structure on the map's target pulled
    back to its source basis.  Through an automorphism T, (omega', K') is
    equivalent to (omega, K) exactly when this gives (omega, K)."""
    p = m.matrix
    w = p.transpose() @ omega @ p
    k = p.inverse() @ K @ p
    return w, k
