"""Curvature, Ricci data and the exact Ricci-soliton linear solver.

Sign convention (pinned by the worked d4,1/2 matrices used as golden
tests): R(X,Y) = nabla_{[X,Y]} - [nabla_X, nabla_Y], ric(X,Y) =
tr(Z -> R(X,Z)Y), Ric = h^{-1} ric, s = tr(Ric).  A soliton is a solution
of  L_X h + ric = lambda h  with X left-invariant and lambda constant.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .liealg import LieAlgebra4, NotSymmetric, lowered_brackets
from .linalg import Mat4, RankAmbiguous, Vec4, _eliminate, _pick_pivot, solve_affine
from .scalars import EMPTY_DOMAIN, ParamDomain, Scalar, ZERO
from .structures import Connection4, levi_civita

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SolitonSystem = Tuple[List[List[Scalar]], List[Tuple[int, int]]]


class CurvatureTensor:
    """One matrix per basis pair i<j; R(e_j,e_i) = -R(e_i,e_j) structurally."""

    def __init__(self, matrices: Dict[tuple, Mat4]):
        self.matrices = matrices

    def __getitem__(self, pair) -> Mat4:
        i, j = pair
        if i == j:
            return Mat4.zeros()
        if i < j:
            return self.matrices[(i, j)]
        return -self.matrices[(j, i)]

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.matrices.values())


def curvature(L: LieAlgebra4, conn: Connection4) -> CurvatureTensor:
    """R(e_i,e_j) = sum_m b_m nabla_m - nabla_i nabla_j + nabla_j nabla_i for
    [e_i,e_j] = sum_m b_m e_m, summed row by row into one matrix per pair
    over the nonzero brackets and connection entries."""
    nabla = [m.rows for m in conn.nabla]
    out = {}
    for (i, j) in PAIRS:
        ni, nj = nabla[i], nabla[j]
        bracket = [(b, nabla[m]) for m, b in enumerate(L.brackets.get((i, j), ()))
                   if not b.is_zero]
        rows = []
        for r in range(4):
            # row r of R is a combination of rows of the nabla matrices
            terms = [(b, n[r]) for b, n in bracket]
            terms += [(-a, nj[t]) for t, a in enumerate(ni[r]) if not a.is_zero]
            terms += [(a, ni[t]) for t, a in enumerate(nj[r]) if not a.is_zero]
            row = [ZERO] * 4
            for a, n_row in terms:
                row = [x + a * y for x, y in zip(row, n_row)]
            rows.append(row)
        out[(i, j)] = Mat4._of(rows)
    return CurvatureTensor(out)


def ricci(L: LieAlgebra4, conn: Connection4) -> Mat4:
    """ric(e_i, e_j) = tr(Z -> R(e_i, Z) e_j); symmetry is asserted."""
    r = curvature(L, conn)
    ric = Mat4.zeros()
    for i in range(4):
        ms = [(k, r[(i, k)].rows) for k in range(4) if k != i]
        ric.rows[i] = [sum((m[k][j] for k, m in ms), ZERO) for j in range(4)]
    if not ric.is_symmetric():
        raise NotSymmetric("computed Ricci tensor is not symmetric")
    return ric


def ricci_operator(h: Mat4, ric: Mat4) -> Mat4:
    """Ric with h(Ric(X), Y) = ric(X, Y), i.e. Ric = h^{-1} ric."""
    return h.inverse() @ ric


def scalar_curvature(ric_op: Mat4) -> Scalar:
    return ric_op.trace()


class SolitonSolutionSet:
    """Affine solutions (X, lambda) of L_X h + ric = lambda h.

    Components are affine Scalar expressions in free parameters t1..tm;
    every specialization satisfies the equation exactly.
    """

    __slots__ = ("x", "lam", "free_count")

    def __init__(self, x: List[Scalar], lam: Scalar, free_count: int):
        self.x, self.lam, self.free_count = x, lam, free_count

    def type_tag(self, domain: ParamDomain = EMPTY_DOMAIN) -> str:
        """shrinking/steady/expanding when decidable on the whole domain."""
        if self.lam.is_zero:
            return "steady"
        sign = domain.sign(self.lam.num) * domain.sign(self.lam.den)
        if sign:
            return "shrinking" if sign > 0 else "expanding"
        return "sign depends on parameters"


def soliton_system(L: LieAlgebra4, h: Mat4) -> SolitonSystem:
    """(rows, cells): the ten equations of L_X h + ric = lambda h in
    (x1..x4, lambda), one per cell i <= j.  Column m is L_{e_m} h, with
    (L_X h)(e_i,e_j) = -h([X,e_i],e_j) - h(e_i,[X,e_j]) for left-invariant
    data and a symmetric h; on the basis, -(c(m,i,j) + c(m,j,i)) for the
    lowered brackets c(i,j,k) = h([e_i,e_j],e_k).  Column 4 is -h."""
    c = lowered_brackets(L, h)
    cells = [(i, j) for i in range(4) for j in range(i, 4)]
    rows = [[-(c[m][i][j] + c[m][j][i]) for m in range(4)] + [-h.rows[i][j]]
            for i, j in cells]
    return rows, cells


def lie_derivative_metric(system: SolitonSystem, x: List[Scalar]) -> Mat4:
    """L_X h = sum_m x_m L_{e_m} h, summed over the system's columns; a
    fifth coefficient lam adds lam times column 4, -lam*h."""
    rows, cells = system
    terms = [(k, v) for k, v in enumerate(x) if not v.is_zero]
    out = Mat4.zeros()
    for (i, j), row in zip(cells, rows):
        out.rows[i][j] = out.rows[j][i] = sum((v * row[k] for k, v in terms), ZERO)
    return out


def solve_soliton(system: SolitonSystem, domain: ParamDomain,
                  ric_mat: Mat4) -> Optional[SolitonSolutionSet]:
    """Exact affine solution set of the soliton system for the Ricci form
    ric_mat, or None when provably inconsistent.

    Raises RankAmbiguous when the system's rank depends on parameters not
    pinned down by the domain.
    """
    rows, cells = system
    rhs = [-ric_mat.rows[i][j] for (i, j) in cells]
    sol = solve_affine(rows, rhs, domain)
    if sol is None:
        return None
    full = sol.with_params([f"t{k+1}" for k in range(sol.free_count)])
    return SolitonSolutionSet(full[:4], full[4], sol.free_count)


def soliton_residual(system: SolitonSystem, x: Vec4, lam: Scalar,
                     ric_mat: Mat4) -> Mat4:
    """L_X h + ric - lambda h."""
    return lie_derivative_metric(system, list(x) + [lam]) + ric_mat


def family_dimension(x: List[Scalar], lam: Scalar,
                     domain: ParamDomain = EMPTY_DOMAIN) -> int:
    """Dimension of an affine family: rank of its linear part in the free
    symbols x1..x4 appearing in the expressions."""
    comps = list(x) + [lam]
    free = sorted({p for c in comps for p in c.params()
                   if p.name in ("x1", "x2", "x3", "x4")},
                  key=lambda p: p.index)
    if not free:
        return 0
    zero_map = {p: Scalar.const(0) for p in free}
    base = [c.substitute(zero_map) for c in comps]
    cols = []
    for p in free:
        m = dict(zero_map)
        m[p] = Scalar.const(1)
        cols.append([c.substitute(m) - b for c, b in zip(comps, base)])
    return len(_eliminate(cols, 5, domain, _pick_pivot))


def soliton_family_equal(system: SolitonSystem, ric_mat: Mat4,
                         computed: Optional[SolitonSolutionSet],
                         expected_x: Optional[List[Scalar]],
                         expected_lam: Optional[Scalar],
                         domain: ParamDomain = EMPTY_DOMAIN) -> Tuple[bool, str]:
    """Affine-set equality between the solver's set and a printed family.

    The printed family is checked to solve the system (inclusion one way);
    equality then reduces to matching dimensions, both sets being affine.
    """
    if expected_x is None:
        if computed is None:
            return True, ""
        return False, f"solver found a solution set of dimension {computed.free_count}"
    if computed is None:
        return False, "solver found no solution"
    if not soliton_residual(system, expected_x, expected_lam, ric_mat).is_zero():
        return False, "printed family does not satisfy the soliton equation"
    dim = family_dimension(expected_x, expected_lam, domain)
    if dim != computed.free_count:
        return False, (f"family dimension {dim} != solver dimension "
                       f"{computed.free_count}")
    return True, ""


class Geometry:
    """Connection, curvature, Ricci form, soliton system and soliton set of
    the metric h on L over a domain, each computed once, on first use; a
    solve that raised RankAmbiguous raises it again without solving."""

    def __init__(self, L: LieAlgebra4, h: Mat4,
                 domain: ParamDomain = EMPTY_DOMAIN):
        self.L, self.h, self.domain = L, h, domain

    @cached_property
    def conn(self) -> Connection4:
        return levi_civita(self.L, self.h)

    @cached_property
    def R(self) -> CurvatureTensor:
        return curvature(self.L, self.conn)

    @cached_property
    def ric(self) -> Mat4:
        return ricci(self.L, self.conn)

    @cached_property
    def flat(self) -> bool:
        return self.R.is_zero()

    @cached_property
    def ricci_flat(self) -> bool:
        return self.ric.is_zero()

    @cached_property
    def system(self) -> SolitonSystem:
        return soliton_system(self.L, self.h)

    @cached_property
    def _solved(self):
        try:
            return solve_soliton(self.system, self.domain, self.ric)
        except RankAmbiguous as e:
            return e.with_traceback(None)  # the verdict, not the solve's frames

    @property
    def soliton(self) -> Optional[SolitonSolutionSet]:
        if isinstance(self._solved, RankAmbiguous):
            raise self._solved
        return self._solved

    @property
    def soliton_type(self) -> str:
        sol = self.soliton
        return "none" if sol is None else sol.type_tag(self.domain)


def classify_row(L: LieAlgebra4, h: Mat4,
                 domain: ParamDomain = EMPTY_DOMAIN) -> Geometry:
    """The row's Geometry with its soliton set solved, so that a rank the
    domain leaves open raises RankAmbiguous here."""
    g = Geometry(L, h, domain)
    g.soliton
    return g
