"""Reference checks that the tests compare pk4lie against.

No command runs any of this.  Each check recomputes a property from its
definition: the Levi-Civita axioms and parallel forms on a connection's
matrices, left-symmetry of a product table, involutive eigenplanes at a
rational point, and ranks by elimination over plain Fractions or over the
rational functions, which shares no code with `pk4lie.linalg._eliminate`.  The
dense loops over every basis pair are the references for the sparse kernels
of `liealg`, `structures` and `curvature`.  Besse's formula gives the
Ricci form from the structure constants alone, with no connection, and on
a para-Kahler structure Koszul's form gives it from the brackets and K
alone, with no metric.  The
paper's extension product, expanded on coordinate vectors, is the
reference for the block-diagonal assembly of
`phase_space.assembled_brackets`.  The
extendibility system is the Jacobi identity of a phase-space pair with a
generic product on U*, the polynomial equations the paper displays.  A
connection is given by its list `nabla`: nabla[i] is the matrix of
u -> nabla_{e_i} u.
"""

from fractions import Fraction

from pk4lie.curvature import Geometry
from pk4lie.liealg import TRIPLES, form_apply
from pk4lie.linalg import Mat4, vadd, vbasis, vis_zero, vzero
from pk4lie.phase_space import (
    LSA_CATALOG_TEXT, LSAPair, assembled_brackets, lsa_pair,
)
from pk4lie.scalars import (
    DenominatorVanishes, ONE, ParseError, Scalar, ZERO, _make_primitive,
)
from pk4lie.structures import metric_from

HALF = Scalar.const(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Elimination over Fractions


def nullspace_fractions(matrix):
    """Basis of the kernel of a rational matrix (rows x n columns)."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m[0]) if m else 0
    pivots = {}
    row_used = set()
    for col in range(n):
        i = next((r for r in range(len(m)) if r not in row_used and m[r][col] != 0),
                 None)
        if i is None:
            continue
        row_used.add(i)
        pivots[col] = i
        piv = m[i][col]
        for j in range(len(m)):
            if j == i:
                continue
            f = m[j][col] / piv
            if f:
                m[j] = [a - f * b for a, b in zip(m[j], m[i])]
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for col, i in pivots.items():
            vec[col] = -m[i][free] / m[i][col]
        basis.append(vec)
    return basis


def rank_fractions(matrix):
    ncols = len(matrix[0]) if matrix else 0
    return ncols - len(nullspace_fractions(matrix))


def generic_rank(rows):
    """Rank of Scalar rows over the field of rational functions in their
    parameters: row reduction that takes any entry not identically zero
    as a pivot, as the parameters' values do away from finitely many
    hypersurfaces."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        piv = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / piv[col]
            if not f.is_zero:
                rows[i] = [a - f * b for a, b in zip(rows[i], piv)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Connections


def _column(nabla, i, j):
    """nabla_{e_i} e_j."""
    return [nabla[i].rows[r][j] for r in range(4)]


def omega_parallel(omega, nabla):
    """nabla omega = 0 for a bilinear form omega:
    omega(nabla_i e_j, e_k) + omega(e_j, nabla_i e_k) = 0 for all i, j, k."""
    return all((form_apply(omega, _column(nabla, i, j), vbasis(k))
                + form_apply(omega, vbasis(j), _column(nabla, i, k))).is_zero
               for i in range(4) for j in range(4) for k in range(4))


def levi_civita_axioms_hold(L, h, nabla):
    """Torsion-free, nabla_i e_j - nabla_j e_i = [e_i, e_j], and metric,
    nabla h = 0: the two axioms that make nabla the Levi-Civita connection
    of h."""
    torsion_free = all(
        vis_zero([a - b - c for a, b, c in zip(_column(nabla, i, j), _column(nabla, j, i),
                                               L.bracket_basis(i, j))])
        for i in range(4) for j in range(i + 1, 4))
    return torsion_free and omega_parallel(h, nabla)


def perturbed(nabla, i, r, j):
    """A copy of nabla with 1 added to entry (r, j) of nabla[i]."""
    out = [Mat4(m.rows) for m in nabla]
    out[i].rows[r][j] = out[i].rows[r][j] + ONE
    return out


def nabla_K(nabla, K):
    """(nabla_{e_i} K) e_j = nabla_{e_i}(K e_j) - K(nabla_{e_i} e_j), one
    matrix per i."""
    return [commutator(n, K) for n in nabla]


def commutator(a, b):
    return a @ b - b @ a


def directional(nabla, u):
    """nabla_u = sum_i u_i nabla_{e_i}."""
    out = Mat4.zeros()
    for i in range(4):
        out = out + nabla[i].scale(u[i])
    return out


def dense_curvature(L, nabla):
    """R(e_i,e_j) = nabla_{[e_i,e_j]} - [nabla_i, nabla_j] for i < j."""
    return {(i, j): directional(nabla, L.bracket_basis(i, j))
            - commutator(nabla[i], nabla[j])
            for i in range(4) for j in range(i + 1, 4)}


# ---------------------------------------------------------------------------
# Dense brackets, Koszul values, Lie derivatives and the differential


def dense_bracket(L, u, v):
    """[u, v] = sum of u_i v_j [e_i, e_j] over every pair i != j."""
    out = vzero()
    for i in range(4):
        for j in range(4):
            if i != j:
                out = vadd(out, [u[i] * v[j] * c for c in L.bracket_basis(i, j)])
    return out


def dense_koszul_values(L, h):
    """2 h(nabla_i e_j, e_k) = h([e_i,e_j],e_k) + h([e_k,e_i],e_j)
    + h([e_k,e_j],e_i), each term a `form_apply`."""
    return [[[HALF * (form_apply(h, L.bracket_basis(i, j), vbasis(k))
                      + form_apply(h, L.bracket_basis(k, i), vbasis(j))
                      + form_apply(h, L.bracket_basis(k, j), vbasis(i)))
              for k in range(4)] for j in range(4)] for i in range(4)]


def dense_lie_derivative_metric(L, h, x):
    """(L_X h)(e_i, e_j) = -h([X,e_i], e_j) - h(e_i, [X,e_j]) with
    [X, e_j] = sum_i x_i [e_i, e_j]."""
    bx = [[sum((x[i] * L.bracket_basis(i, j)[k] for i in range(4)), ZERO)
           for k in range(4)] for j in range(4)]
    return Mat4([[-form_apply(h, bx[i], vbasis(j)) - form_apply(h, vbasis(i), bx[j])
                  for j in range(4)] for i in range(4)])


def dense_ce_d(L, omega):
    """d(omega)(e_i,e_j,e_k) = -omega([e_i,e_j],e_k) + omega([e_i,e_k],e_j)
    - omega([e_j,e_k],e_i), each term a `form_apply`."""
    return {(i, j, k): -form_apply(omega, L.bracket_basis(i, j), vbasis(k))
            + form_apply(omega, L.bracket_basis(i, k), vbasis(j))
            - form_apply(omega, L.bracket_basis(j, k), vbasis(i))
            for (i, j, k) in TRIPLES}


def dense_nijenhuis(L, K):
    """N_K(e_i,e_j) = [e_i,e_j] + [Ke_i,Ke_j] - K[Ke_i,e_j] - K[e_i,Ke_j] for
    i < j, each bracket a `dense_bracket` and each K a sum over its entries."""
    def k(v):
        return [sum((K.rows[r][c] * v[c] for c in range(4)), ZERO) for r in range(4)]
    out = {}
    for i in range(4):
        for j in range(i + 1, 4):
            ei, ej = vbasis(i), vbasis(j)
            terms = (dense_bracket(L, ei, ej), dense_bracket(L, k(ei), k(ej)),
                     k(dense_bracket(L, k(ei), ej)), k(dense_bracket(L, ei, k(ej))))
            out[(i, j)] = [a + b - c - d for a, b, c, d in zip(*terms)]
    return out


def para_hermitian_integrable(L, omega, K):
    """d omega = 0 and N_K = 0, by `dense_ce_d` and `dense_nijenhuis`: for
    an almost para-Hermitian pair (omega antisymmetric, K*K = Id and
    h = omega(K., .) symmetric and nondegenerate) this holds exactly when
    nabla K = 0 for the Levi-Civita connection of h, the para-Hermitian
    counterpart of the Kahler identity (Cruceanu, Fortuny and Gadea, Rocky
    Mountain J. Math. 26 (1996); Ivanov and Zamkovoy, Differential Geom.
    Appl. 23 (2005))."""
    return (vis_zero(dense_ce_d(L, omega).values())
            and all(vis_zero(v) for v in dense_nijenhuis(L, K).values()))


# ---------------------------------------------------------------------------
# Besse's Ricci formula


def inverse_by_elimination(h):
    """h^-1 by Gauss-Jordan elimination on [h | Id] over Scalar."""
    a = [list(r) + [ONE if i == j else ZERO for j in range(4)]
         for i, r in enumerate(h.rows)]
    for col in range(4):
        piv = next(r for r in range(col, 4) if not a[r][col].is_zero)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(4):
            if r != col and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[4:] for row in a]


def structure_constants(L):
    """C[i][j][k], the e_k component of [e_i, e_j], read from the stored
    brackets."""
    C = [[[ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j), v in L.brackets.items():
        C[i][j] = list(v)
        C[j][i] = [-c for c in v]
    return C


def besse_ricci(L, h):
    """ric from the structure constants alone (Besse, Einstein Manifolds,
    1987, Cor. 7.38), with h^-1 in the fixed basis so that it holds in any
    signature:

        ric(X,Y) = -1/2 sum h^ij h([X,e_i],[Y,e_j]) - 1/2 B(X,Y)
                   + 1/4 sum h^ia h^jb h([e_i,e_j],X) h([e_a,e_b],Y)
                   - 1/2 (h([Z,X],Y) + h([Z,Y],X)),

    with B the Killing form and Z the mean curvature vector,
    h(Z, .) = tr ad(.).  No connection, no curvature, no `LieAlgebra4`
    method and no `form_apply`."""
    n = range(4)
    C = structure_constants(L)
    g = h.rows
    hinv = inverse_by_elimination(h)
    # low[i][j][k] = h([e_i,e_j],e_k); up[i][j][k] = sum h^ia h^jb low[a][b][k]
    low = [[[sum((C[i][j][r] * g[r][k] for r in n), ZERO) for k in n]
            for j in n] for i in n]
    up = [[[sum((hinv[i][a] * hinv[j][b] * low[a][b][k] for a in n for b in n), ZERO)
            for k in n] for j in n] for i in n]
    killing = [[sum((C[p][l][k] * C[q][k][l] for k in n for l in n), ZERO)
                for q in n] for p in n]
    tr_ad = [sum((C[k][l][l] for l in n), ZERO) for k in n]
    z = [sum((hinv[a][k] * tr_ad[k] for k in n), ZERO) for a in n]
    z_ad = [[sum((z[i] * C[i][p][k] for i in n), ZERO) for k in n] for p in n]
    ric = []
    for p in n:
        row = []
        for q in n:
            # h([e_p,e_i],[e_q,e_j]) = sum_r C[p][i][r] h([e_q,e_j],e_r)
            t1 = sum((hinv[i][j] * C[p][i][r] * low[q][j][r]
                      for i in n for j in n for r in n), ZERO)
            t3 = sum((low[i][j][p] * up[i][j][q] for i in n for j in n), ZERO)
            t4 = sum((z_ad[p][k] * g[k][q] + z_ad[q][k] * g[k][p] for k in n), ZERO)
            row.append(-HALF * t1 - HALF * killing[p][q] + t3 / 4 - HALF * t4)
        ric.append(row)
    return Mat4(ric)


# ---------------------------------------------------------------------------
# Ricci from the Koszul form


def koszul_psi(L, K):
    """psi(e_m) = tr(ad_{K e_m}) - tr(K o ad_{e_m}), from the structure
    constants and K alone: K e_m = sum_i K[i][m] e_i, and ad_{e_m} has the
    entry C[m][l][k] at (k, l)."""
    C = structure_constants(L)
    k = K.rows
    tr_ad = [sum(C[i][l][l] for l in range(4)) for i in range(4)]
    return [sum(k[i][m] * tr_ad[i] for i in range(4))
            - sum(k[l][j] * C[m][l][j] for j in range(4) for l in range(4))
            for m in range(4)]


def koszul_ricci(L, K):
    """ric(X, Y) = 1/2 psi([KX, Y]) of a para-Kahler structure (omega, K):
    the analogue of Koszul's canonical form for left-invariant Kahler
    metrics (Koszul, Canad. J. Math. 7 (1955); Benayadi and Boucetta,
    J. Algebra 436 (2015)).  No metric, no connection and no curvature."""
    C, psi, k = structure_constants(L), koszul_psi(L, K), K.rows
    return Mat4([[HALF * sum(k[i][p] * C[i][q][r] * psi[r]
                             for i in range(4) for r in range(4))
                  for q in range(4)] for p in range(4)])


def psi_vanishes_on_derived_algebra(L, K):
    """Whether psi([e_i, e_j]) = 0 for every i < j: the Ricci-flat test of a
    para-Kahler structure."""
    C, psi = structure_constants(L), koszul_psi(L, K)
    return all(sum(C[i][j][r] * psi[r] for r in range(4)).is_zero
               for i in range(4) for j in range(i + 1, 4))


# ---------------------------------------------------------------------------
# Invariants of a structure under automorphisms


def rank_invariants(L, K):
    """The dimensions of [g+,g+], [g-,g-], [g+,g-], [g,g], g+ + [g,g],
    g- + [g,g], g+ + [g+,g-], g- + [g+,g-] and [g+,g+] + [g-,g-] for the
    eigenplanes g+- of an involution K, spanned by the columns of Id +- K,
    by `generic_rank` over the rational functions in the parameters.  An
    automorphism that carries K to K' carries each space to its primed
    counterpart, so equivalent structures share these."""
    ident = Mat4.identity()
    plus, minus = (ident + K).transpose().rows, (ident - K).transpose().rows

    def brackets(us, vs):
        return [dense_bracket(L, u, v) for u in us for v in vs]
    pp, mm, pm = brackets(plus, plus), brackets(minus, minus), brackets(plus, minus)
    gg = brackets(ident.rows, ident.rows)
    return tuple(generic_rank(rows) for rows in (
        pp, mm, pm, gg, plus + gg, minus + gg, plus + pm, minus + pm, pp + mm))


def curvature_invariants(L, omega, K):
    """(flat, Ricci-flat, tr Ric^k for k = 1..4, tr(K o Ric)) of the metric
    h = omega(K., .), with Ric = h^-1 ric by `inverse_by_elimination`.  An
    automorphism conjugates Ric and K alike, so equivalent structures share
    these."""
    h = metric_from(omega, K)
    g = Geometry(L, h)
    ric_op = Mat4(inverse_by_elimination(h)) @ g.ric
    traces, power = [], Mat4.identity()
    for _ in range(4):
        power = power @ ric_op
        traces.append(power.trace())
    return (g.flat, g.ricci_flat, *traces, (K @ ric_op).trace())


# ---------------------------------------------------------------------------
# Integrability at rational points


def eigenplanes_involutive_at(L, K, assignment):
    """At a rational parameter point: are both eigenplanes of K closed
    under the bracket?  None when K is not a para-complex candidate there
    (wrong eigenspace dimensions)."""
    kv = K.eval(assignment)
    consts = {ij: [c.eval(assignment) for c in v] for ij, v in L.brackets.items()}

    def bracket_num(u, w):
        out = [Fraction(0)] * 4
        for i in range(4):
            for j in range(4):
                if i == j or not u[i] or not w[j]:
                    continue
                if (i, j) in consts:
                    vec, sgn = consts[(i, j)], 1
                elif (j, i) in consts:
                    vec, sgn = consts[(j, i)], -1
                else:
                    continue
                for r in range(4):
                    out[r] += sgn * u[i] * w[j] * vec[r]
        return out

    result = True
    for sign in (1, -1):
        shifted = [[kv[i][j] - (sign if i == j else 0) for j in range(4)]
                   for i in range(4)]
        basis = nullspace_fractions(shifted)
        if len(basis) != 2:
            return None
        u, w = basis
        if rank_fractions([u, w, bracket_num(u, w)]) > 2:
            result = False
    return result


def involutive_samples(L, K, domain, rng, wanted, attempts=None):
    """(point, eigenplanes_involutive_at) at up to `wanted` points of the
    domain, drawn with `rng`, where K is a para-complex candidate; at most
    `attempts` draws (no bound when None).  A point where a denominator
    vanishes is skipped."""
    params = K.params() | L.params() | domain.params()
    out = []
    drawn = 0
    while len(out) < wanted and (attempts is None or drawn < attempts):
        drawn += 1
        asg = domain.sample(rng, params)
        try:
            inv = eigenplanes_involutive_at(L, K, asg)
        except (ZeroDivisionError, DenominatorVanishes):
            continue
        if inv is not None:
            out.append((asg, inv))
    return out


# ---------------------------------------------------------------------------
# Two-dimensional left-symmetric algebras, as product tables: the dict
# {(a, b): coefficients of e_a.e_b} of `parse_products`


E2 = ([ONE, ZERO], [ZERO, ONE])


def lsa_product(products, u, v):
    """u.v as the dense double sum of u_a v_b (e_a.e_b) over the basis."""
    out = [ZERO, ZERO]
    for a in range(2):
        for b in range(2):
            for r, c in enumerate(products.get((a, b), (ZERO, ZERO))):
                out[r] = out[r] + u[a] * v[b] * c
    return out


def phase_product(on_U, on_Ustar, p, q):
    """The paper's extension product on U + U* on coordinate vectors,

        (X + a).(Y + b) = X.Y - Lt_a Y - Lt_X b + a.b,

    with the transposes read through the dual pairing: the e*_j component
    of Lt_X b is b(X.e_j), and the e_j component of Lt_a Y is (a.e*_j)(Y)."""
    X, alpha, Y, beta = p[:2], p[2:], q[:2], q[2:]

    def pairing(f, v):
        return sum((x * y for x, y in zip(f, v)), ZERO)

    lt_x_beta = [pairing(beta, lsa_product(on_U, X, e)) for e in E2]
    lt_alpha_y = [pairing(lsa_product(on_Ustar, alpha, e), Y) for e in E2]
    xy, ab = lsa_product(on_U, X, Y), lsa_product(on_Ustar, alpha, beta)
    return ([a - b for a, b in zip(xy, lt_alpha_y)]
            + [a - b for a, b in zip(ab, lt_x_beta)])


def phase_commutators(on_U, on_Ustar):
    """[e_i, e_j] = e_i.e_j - e_j.e_i of the extension product, i < j."""
    e = [vbasis(i) for i in range(4)]
    return {(i, j): [a - b for a, b in zip(phase_product(on_U, on_Ustar, e[i], e[j]),
                                           phase_product(on_U, on_Ustar, e[j], e[i]))]
            for i in range(4) for j in range(i + 1, 4)}


def is_left_symmetric(products):
    """ass(u,v,w) = ass(v,u,w) with ass(u,v,w) = (uv)w - u(vw), on the
    basis triples with u != v, as rational functions."""
    def mul(u, v):
        return lsa_product(products, u, v)

    def ass(u, v, w):
        return [a - b for a, b in zip(mul(mul(u, v), w), mul(u, mul(v, w)))]

    return all((a - b).is_zero for w in E2
               for a, b in zip(ass(E2[0], E2[1], w), ass(E2[1], E2[0], w)))


def commutator_brackets(products):
    """[e1, e2] = e1.e2 - e2.e1 (Jacobi is automatic in dimension 2)."""
    return [a - b for a, b in zip(lsa_product(products, *E2),
                                  lsa_product(products, *E2[::-1]))]


def lsa_catalog():
    """The twelve cataloged left-symmetric algebras on U, by name."""
    return {name: lsa_pair(name, "").on_U for name in LSA_CATALOG_TEXT}


# ---------------------------------------------------------------------------
# The extendibility system: the Jacobi identity of the phase-space bracket
# as polynomial equations in the coefficients of a generic product on U*,
# which the paper displays for b2


USTAR_COEFFS = ("a33", "b33", "a34", "b34", "a43", "b43", "a44", "b44")


def generic_ustar():
    """Arbitrary product on U*: e3.e3 = a33 e3 + b33 e4, etc."""
    s = {n: Scalar.var(n) for n in USTAR_COEFFS}
    return {
        (0, 0): [s["a33"], s["b33"]],
        (0, 1): [s["a34"], s["b34"]],
        (1, 0): [s["a43"], s["b43"]],
        (1, 1): [s["a44"], s["b44"]],
    }


class ConstraintSystem:
    """Jacobi defect of the assembled bracket as labelled polynomials."""

    def __init__(self, equations):
        self.equations = equations

    def contains(self, poly):
        """Membership up to a rational unit."""
        target = _make_primitive(poly)
        return any(_make_primitive(p) == target for _, p in self.equations
                   if not p.is_zero)

    def residuals_at(self, coeffs):
        mapping = {Scalar.var(n).params().pop(): Scalar.of(v)
                   for n, v in coeffs.items()}
        return [Scalar(p).substitute(mapping) for _, p in self.equations]

    def is_solution(self, coeffs):
        return all(r.is_zero for r in self.residuals_at(coeffs))


def extendibility_constraints(on_U):
    """Polynomial system on the free U* coefficients equivalent to Jacobi."""
    defects = assembled_brackets(LSAPair(on_U, generic_ustar())).jacobi_defect()
    eqs = []
    for (i, j, k), vec in sorted(defects.items()):
        for comp in range(4):
            s = vec[comp]
            if s.is_zero:
                continue
            if not s.den.is_const:
                raise ParseError("constraint system is not polynomial")
            eqs.append((f"jacobi(e{i+1},e{j+1},e{k+1}).e{comp+1}", s.num))
    return ConstraintSystem(eqs)


def ustar_coeffs_from_products(products):
    """Coefficient assignment {a33: ..., b33: ...} from a product table."""
    out = {n: ZERO for n in USTAR_COEFFS}
    for (a, b), vec in products.items():
        out[f"a{a+3}{b+3}"] = vec[0]
        out[f"b{a+3}{b+3}"] = vec[1]
    return out


# ---------------------------------------------------------------------------
# Cross-references in the catalog


def link_curvature_metrics(cat):
    """For each curvature row, a structure whose induced metric matches the
    literal one (up to overall sign and simple parameter renormalizations),
    named with the renormalization's tag; None when no listed structure
    matches."""
    return {key: link and link[0].entry_id + link[1]
            for key, link in linked_structures(cat).items()}


def linked_structures(cat):
    """For each curvature row, (structure, tag, substitution) of the first
    match `link_curvature_metrics` names; None when none matches."""
    by_alg = {}
    for st in cat.structure_list():
        by_alg.setdefault(st.algebra.name, []).append(st)
    out = {}
    for row in cat.curvature_list():
        out[row.entry_id] = next(
            ((st, tag, sub) for st in by_alg.get(row.algebra.name, [])
             for tag, sub, cand in _metric_candidates(metric_from(st.omega, st.K))
             if cand == row.metric), None)
    return out


def _metric_candidates(h):
    """(tag, substitution, metric) for the metric with its parameters
    renormalized in simple ways: sign flips, rescalings, shifts and zero
    specializations, plus an overall sign."""
    params = {p.name: p for p in h.params() if p.name in ("x", "y")}
    x = Scalar.var("x")
    y = Scalar.var("y")
    x_subs = [("", None)]
    if "x" in params:
        for tag, v in (("-x", -x), ("0", Scalar.const(0)), ("2x", 2 * x),
                       ("-2x", -2 * x), ("x/2", x / 2), ("x+1", x + 1),
                       ("x-1", x - 1), ("1", Scalar.const(1)),
                       ("-1", Scalar.const(-1))):
            x_subs.append((f"[x->{tag}]", {params["x"]: v}))
    y_subs = [("", None)]
    if "y" in params:
        for tag, v in (("-y", -y), ("0", Scalar.const(0)), ("2y", 2 * y),
                       ("-2y", -2 * y), ("y/2", y / 2), ("-y/2", -y / 2),
                       ("x", x), ("-x", -x)):
            y_subs.append((f"[y->{tag}]", {params["y"]: v}))
    for xt, xs in x_subs:
        for yt, ys in y_subs:
            sub = {**(xs or {}), **(ys or {})}
            try:
                cand = h.substitute(sub) if sub else h
            except ZeroDivisionError:
                continue
            yield xt + yt, sub, cand
            yield xt + yt + "[-]", sub, -cand


def unreferenced_phase_rows(cat):
    """Phase-space rows that no isomorphism row uses as its source; the
    printed tables reference some family labels they never define and omit
    others, so the mismatch is reported instead of repaired."""
    used = {row.raw.get("source") for row in cat.iso_rows.values()}
    return [rid for rid in cat.phase_rows if rid not in used]
