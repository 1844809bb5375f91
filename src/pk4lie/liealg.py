"""Four-dimensional Lie algebras over Scalar and para-complex checks."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .linalg import (
    Mat4, RankAmbiguous, ThreeForm4, Vec4, rank_on_domain, vadd, vbasis,
    vis_zero, vsub, vzero,
)
from .notation import emit_brackets, parse_brackets
from .scalars import (
    EMPTY_DOMAIN, ParamDomain, Scalar, ScalarError, Verdict, ZERO,
    nonvanishing,
)


class NotSymmetric(ScalarError):
    pass


def form_apply(form: Mat4, u: Vec4, v: Vec4) -> Scalar:
    """form(u, v).  No kernel here calls it: the dense reference loops of
    tests/oracles.py do, and perfbench/tracer.py counts its calls."""
    out = ZERO
    for i in range(4):
        if u[i].is_zero:
            continue
        for j in range(4):
            if v[j].is_zero or form.rows[i][j].is_zero:
                continue
            out = out + u[i] * form.rows[i][j] * v[j]
    return out


def lowered_brackets(L: "LieAlgebra4", h: Mat4) -> List[List[Vec4]]:
    """c[i][j][k] = h([e_i, e_j], e_k) for a bilinear form h, from the stored
    brackets only: a row per bracket i < j, its negative at [j][i], and zero
    rows elsewhere."""
    c = [[vzero() for _ in range(4)] for _ in range(4)]
    for (i, j), b in L.brackets.items():
        row = [sum((x * hm[k] for x, hm in zip(b, h.rows) if not x.is_zero), ZERO)
               for k in range(4)]
        c[i][j], c[j][i] = row, [-r for r in row]
    return c


class LieAlgebra4:
    """Structure constants on a fixed 4-dimensional basis.

    Only the nonzero brackets [e_i, e_j] with i < j are stored; antisymmetry
    is structural.  The Jacobi identity is a checked property, not an
    assumption.  A family's parameter range is its catalog row's domain.
    """

    def __init__(self, brackets: Dict[tuple, Vec4], name: str = ""):
        self.brackets = {k: list(v) for k, v in brackets.items()
                         if not all(c.is_zero for c in v)}
        self.name = name

    @staticmethod
    def parse(text: str, name: str = ""):
        return LieAlgebra4(parse_brackets(text), name)

    def serialize(self) -> str:
        return emit_brackets(self.brackets)

    def bracket_basis(self, i: int, j: int) -> Vec4:
        if i == j:
            return vzero()
        if i < j:
            v = self.brackets.get((i, j))
            return list(v) if v else vzero()
        v = self.brackets.get((j, i))
        return [-c for c in v] if v else vzero()

    def bracket(self, u: Vec4, v: Vec4) -> Vec4:
        """[u, v] = sum of (u_i v_j - u_j v_i) [e_i, e_j] over stored brackets."""
        out = vzero()
        for (i, j), b in self.brackets.items():
            c = u[i] * v[j] - u[j] * v[i]
            if not c.is_zero:
                out = [o + c * x for o, x in zip(out, b)]
        return out

    def jacobi_defect(self) -> Dict[tuple, Vec4]:
        """Cyclic sums [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
        out = {}
        for (i, j, k) in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            s = self.bracket(self.bracket_basis(i, j), vbasis(k))
            s = vadd(s, self.bracket(self.bracket_basis(j, k), vbasis(i)))
            s = vadd(s, self.bracket(self.bracket_basis(k, i), vbasis(j)))
            out[(i, j, k)] = s
        return out

    def is_lie_algebra(self) -> bool:
        return all(vis_zero(v) for v in self.jacobi_defect().values())

    def params(self) -> set:
        out = set()
        for v in self.brackets.values():
            for s in v:
                out |= s.params()
        return out

    def substitute(self, mapping: Mapping) -> "LieAlgebra4":
        if not mapping:
            return self
        mapping = {k: Scalar.of(v) for k, v in mapping.items()}
        br = {k: [c.substitute(mapping) for c in v] for k, v in self.brackets.items()}
        return LieAlgebra4(br, self.name)


def ce_d(L: LieAlgebra4, omega: Mat4) -> ThreeForm4:
    """Chevalley-Eilenberg differential of an antisymmetric two-form,
    d(omega)(X,Y,Z) = -omega([X,Y],Z) + omega([X,Z],Y) - omega([Y,Z],X),
    read off the lowered brackets c(i,j,k) = omega([e_i,e_j],e_k)."""
    c = lowered_brackets(L, omega)
    return ThreeForm4({(i, j, k): -c[i][j][k] + c[i][k][j] - c[j][k][i]
                       for (i, j, k) in ThreeForm4.TRIPLES})


def pfaffian_nondegenerate(omega: Mat4, domain: ParamDomain = EMPTY_DOMAIN,
                           trials: int = 32, seed: int = 0) -> Verdict:
    """Nondegeneracy verdict for an antisymmetric form: NonZero det on domain."""
    return nonvanishing(omega.det(), domain, trials, seed)


def nijenhuis(L: LieAlgebra4, K: Mat4) -> Dict[tuple, Vec4]:
    """N_K(e_i,e_j) = [e_i,e_j] + [Ke_i,Ke_j] - K[Ke_i,e_j] - K[e_i,Ke_j]."""
    kcols = [K.apply(vbasis(i)) for i in range(4)]
    out = {}
    for i in range(4):
        for j in range(i + 1, 4):
            n = L.bracket_basis(i, j)
            n = vadd(n, L.bracket(kcols[i], kcols[j]))
            n = vsub(n, K.apply(L.bracket(kcols[i], vbasis(j))))
            n = vsub(n, K.apply(L.bracket(vbasis(i), kcols[j])))
            out[(i, j)] = n
    return out


class ParacomplexReport:
    __slots__ = ("squares_to_id", "eigenrank_plus", "eigenrank_minus",
                 "nijenhuis_zero", "rank_constraint")

    def __init__(self, squares_to_id: bool, eigenrank_plus: Optional[int],
                 eigenrank_minus: Optional[int], nijenhuis_zero: bool,
                 rank_constraint: Optional[str] = None):
        self.squares_to_id = squares_to_id
        self.eigenrank_plus, self.eigenrank_minus = eigenrank_plus, eigenrank_minus
        self.nijenhuis_zero, self.rank_constraint = nijenhuis_zero, rank_constraint


def paracomplex_check(L: LieAlgebra4, K: Mat4,
                      domain: ParamDomain = EMPTY_DOMAIN) -> ParacomplexReport:
    from .linalg import generic_rank
    ident = Mat4.identity()
    squares = K @ K == ident
    rp = rm = constraint = None
    if squares:
        # With K*K = Id the two eigenspaces span pointwise, so the ranks of
        # K -+ Id cannot drop below their generic values anywhere: the
        # generic rank is the rank on the whole domain.
        rp = 4 - generic_rank(K - ident)
        rm = 4 - generic_rank(K + ident)
    else:
        try:
            rp = 4 - rank_on_domain(K - ident, domain)
            rm = 4 - rank_on_domain(K + ident, domain)
        except RankAmbiguous as e:
            constraint = repr(e.poly)
    nz = all(vis_zero(v) for v in nijenhuis(L, K).values())
    return ParacomplexReport(squares, rp, rm, nz, constraint)
