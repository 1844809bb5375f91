"""Reference checks that the tests compare pk4lie against.

No command runs any of this.  Each check recomputes a property from its
definition: the Levi-Civita axioms and parallel forms on a connection's
matrices, left-symmetry of a product table, involutive eigenplanes at a
rational point, and ranks by elimination over plain Fractions, which
shares no code with `pk4lie.linalg._eliminate`.  A connection is given by
its list `nabla`: nabla[i] is the matrix of u -> nabla_{e_i} u.
"""

from fractions import Fraction

from pk4lie.catalog import _alg_params
from pk4lie.liealg import form_apply
from pk4lie.linalg import Mat4, vbasis, vis_zero
from pk4lie.scalars import DenominatorVanishes, ONE, Scalar, ZERO
from pk4lie.structures import metric_from


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


# ---------------------------------------------------------------------------
# Connections


def _column(nabla, i, j):
    """nabla_{e_i} e_j."""
    return [nabla[i].rows[r][j] for r in range(4)]


def omega_parallel(omega, nabla, domain):
    """nabla omega = 0 for a bilinear form omega:
    omega(nabla_i e_j, e_k) + omega(e_j, nabla_i e_k) = 0 for all i, j, k."""
    return all(domain.is_zero(form_apply(omega, _column(nabla, i, j), vbasis(k))
                              + form_apply(omega, vbasis(j), _column(nabla, i, k)))
               for i in range(4) for j in range(4) for k in range(4))


def levi_civita_axioms_hold(L, h, nabla, domain):
    """Torsion-free, nabla_i e_j - nabla_j e_i = [e_i, e_j], and metric,
    nabla h = 0: the two axioms that make nabla the Levi-Civita connection
    of h."""
    torsion_free = all(
        vis_zero([a - b - c for a, b, c in zip(_column(nabla, i, j), _column(nabla, j, i),
                                               L.bracket_basis(i, j))], domain)
        for i in range(4) for j in range(i + 1, 4))
    return torsion_free and omega_parallel(h, nabla, domain)


def perturbed(nabla, i, r, j):
    """A copy of nabla with 1 added to entry (r, j) of nabla[i]."""
    out = [Mat4(m.rows) for m in nabla]
    out[i].rows[r][j] = out[i].rows[r][j] + ONE
    return out


def nabla_K(nabla, K):
    """(nabla_{e_i} K) e_j = nabla_{e_i}(K e_j) - K(nabla_{e_i} e_j), one
    matrix per i."""
    return [n @ K - K @ n for n in nabla]


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
    params = K.params() | _alg_params(L) | domain.params()
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
# Left-symmetric algebras


def is_left_symmetric(lsa):
    """ass(u,v,w) = ass(v,u,w) with ass(u,v,w) = (uv)w - u(vw), on the
    basis triples with u != v, over the algebra's domain."""
    def ass(u, v, w):
        return [a - b for a, b in zip(lsa.product(lsa.product(u, v), w),
                                      lsa.product(u, lsa.product(v, w)))]

    e = ([ONE, ZERO], [ZERO, ONE])
    return all(lsa.domain.is_zero(a - b) for w in e
               for a, b in zip(ass(e[0], e[1], w), ass(e[1], e[0], w)))


def commutator_brackets(lsa):
    """[e1, e2] = e1.e2 - e2.e1 (Jacobi is automatic in dimension 2)."""
    return [a - b for a, b in zip(lsa.product_basis(0, 1), lsa.product_basis(1, 0))]


# ---------------------------------------------------------------------------
# Cross-references in the catalog


def link_curvature_metrics(cat):
    """For each curvature row, a structure whose induced metric matches the
    literal one (up to overall sign and simple parameter renormalizations);
    None when no listed structure matches."""
    by_alg = {}
    for st in cat.structure_list():
        by_alg.setdefault(st.algebra.name, []).append(st)
    out = {}
    for row in cat.curvature_list():
        match = None
        for st in by_alg.get(row.algebra.name, []):
            hst = metric_from(st.omega, st.K, st.domain)
            for cand_id, cand in _metric_candidates(hst):
                if cand.equals(row.metric):
                    match = st.entry_id + cand_id
                    break
            if match:
                break
        out[row.entry_id] = match
    return out


def _metric_candidates(h):
    """The metric with its parameters renormalized in simple ways: sign
    flips, rescalings, shifts and zero specializations, plus an overall
    sign."""
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
            yield xt + yt, cand
            yield xt + yt + "[-]", -cand


def unreferenced_phase_rows(cat):
    """Phase-space rows that no isomorphism row uses as its source; the
    printed tables reference some family labels they never define and omit
    others, so the mismatch is reported instead of repaired."""
    used = {row.source_ref for row in cat.iso_rows.values()}
    return [rid for rid in cat.phase_rows if rid not in used]
