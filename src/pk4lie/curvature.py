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
from .linalg import PAIRS, Mat4, RankAmbiguous, Vec4, _eliminate, solve_affine
from .scalars import (
    EMPTY_DOMAIN, ParamDomain, Poly, Scalar, ZERO, _P_ZERO, numerator_over,
    poly_combination, ratio,
)
from .structures import Connection4, levi_civita

SolitonSystem = Tuple[List[List[Scalar]], List[Tuple[int, int]]]


class CurvatureTensor:
    """R(e_i,e_j) = numerators[(i, j)] / den for each basis pair i < j, with
    polynomial numerator matrices over one common denominator; the other
    pairs follow from R(e_j,e_i) = -R(e_i,e_j).  The Scalar matrices, keyed
    by the same pairs, are built on first read, one division per entry;
    flatness reads the numerators."""

    def __init__(self, numerators: Dict[tuple, List[List[Poly]]], den: Poly):
        self.numerators, self.den = numerators, den

    @cached_property
    def matrices(self) -> Dict[tuple, Mat4]:
        return {pair: Mat4._of([[ratio(n, self.den) for n in row] for row in rows])
                for pair, rows in self.numerators.items()}

    def is_zero(self) -> bool:
        return all(n.is_zero for rows in self.numerators.values()
                   for row in rows for n in row)


def curvature(L: LieAlgebra4, conn: Connection4) -> CurvatureTensor:
    """R(e_i,e_j) = sum_m b_m nabla_m - nabla_i nabla_j + nabla_j nabla_i for
    [e_i,e_j] = sum_m b_m e_m, fraction-free.  With nabla_m = gamma_m / D,
    R(e_i,e_j) = N_ij / D^2 for the polynomial

        N_ij = sum_m b'_m gamma_m - gamma_i gamma_j + gamma_j gamma_i,

    b'_m = D b_m, a polynomial because D is a multiple of every bracket
    denominator (see `levi_civita`).  Each row of N_ij is a combination of
    rows of the gamma matrices, summed over the nonzero brackets and
    entries into one term dict per entry."""
    gamma, den = conn.gamma, conn.den
    # the nonzero rows of each gamma matrix, by index: no term of N reads
    # a zero row
    live = [[row if any(p.terms for p in row) else None for row in g] for g in gamma]
    out = {}
    for (i, j) in PAIRS:
        gi, gj, li, lj = gamma[i], gamma[j], live[i], live[j]
        bracket = [(numerator_over(b, den), live[m])
                   for m, b in enumerate(L.brackets.get((i, j), ())) if not b.is_zero]
        rows = []
        for r in range(4):
            # row r of N is a combination of rows of the gamma matrices
            terms = [(b, g[r]) for b, g in bracket if g[r]]
            terms += [(-a, lj[t]) for t, a in enumerate(gi[r]) if a.terms and lj[t]]
            terms += [(a, li[t]) for t, a in enumerate(gj[r]) if a.terms and li[t]]
            rows.append(poly_combination(terms) if terms else [_P_ZERO] * 4)
        out[(i, j)] = rows
    return CurvatureTensor(out, den * den)


def ricci(L: LieAlgebra4, conn: Connection4) -> Mat4:
    """ric(e_i, e_j) = tr(Z -> R(e_i, Z) e_j), summed on the numerators of R
    and divided once per entry; symmetry is asserted."""
    r = curvature(L, conn)
    n = r.numerators
    # row i of the numerator of ric is the sum over k != i of row k of the
    # numerator of R(e_i, e_k), which is -N_ki for k < i
    one, minus_one = Poly.const(1), Poly.const(-1)
    ric = Mat4._of([[ratio(s, r.den) for s in poly_combination(
        (one, n[(i, k)][k]) if i < k else (minus_one, n[(k, i)][k])
        for k in range(4) if k != i)] for i in range(4)])
    if not ric.is_symmetric():
        raise NotSymmetric("computed Ricci tensor is not symmetric")
    return ric


def ricci_operator(conn: Connection4, ric: Mat4) -> Mat4:
    """Ric with h(Ric(X), Y) = ric(X, Y), i.e. Ric = h^{-1} ric, fraction-free
    on the inverse that the Levi-Civita connection of h keeps: with delta the
    lcm of the denominators of ric, Ric = f adj(f h) (delta ric) /
    (delta det(f h)), a polynomial matrix product and one division per
    entry."""
    delta, rp = ric.cleared()
    den = delta * conn.det
    return Mat4._of([[ratio(n * conn.f, den)
                      for n in poly_combination(zip(adj_row, rp))]
                     for adj_row in conn.adj])


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
    full, basis = sol
    for k, vec in enumerate(basis):
        t = Scalar.var(f"t{k+1}")
        full = [a + t * v for a, v in zip(full, vec)]
    return SolitonSolutionSet(full[:4], full[4], len(basis))


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
    return len(_eliminate(cols, 5, domain))


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
