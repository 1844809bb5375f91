"""Para-Kahler structure assembly and validation.

A structure is a triple (algebra, omega, K) on the fixed basis.  The
validation report runs the full battery: Jacobi, closedness and
nondegeneracy of omega, K*K = Id, equal eigenranks, vanishing Nijenhuis
tensor, symmetry and neutral signature of the induced metric, and
parallelism of K under the Levi-Civita product.  It is an EntryReport,
the row report that every verify suite returns.

Every check is exact, and none samples.  The signature passes exactly
when the isotropic-eigenspace certificate (`neutral_certified`) holds; its
premises are four checks of the report, so it fails only on a report that
already fails, and names the premises that did.  Under the same certificate
nabla K = 0 is read off d omega = 0 and N_K = 0; otherwise it is decided on
the doubled Koszul values 2 G (`koszul_sums`, read by `K_parallel`), with
no connection and no inverse of the metric.
`levi_civita` builds the connection itself, for the curvature suite and
the `geometry` command, fraction-free: polynomial numerators adj(h) (2 G)
over one common denominator 2 det h, after h and the brackets are cleared
of their denominators (the connection does not change when h is scaled by
a nonzero function of the parameters).
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Set

from .linalg import (
    DegenerateError, Mat4, Vec4, adjugate_det, vis_zero,
)
from .liealg import (
    LieAlgebra4, NotSymmetric, ParacomplexReport, ce_d, lowered_brackets,
    paracomplex_check, pfaffian_nondegenerate,
)
from .scalars import (
    EMPTY_DOMAIN, ParamDomain, Poly, Scalar, Verdict, ZERO,
    common_denominator, numerator_over, poly_combination, ratio,
)


def metric_from(omega: Mat4, K: Mat4, domain: ParamDomain = EMPTY_DOMAIN) -> Mat4:
    """Metric h(u, v) = omega(K u, v); raises unless the result is symmetric.
    `domain` is unread: symmetry is exact, and the benchmark's
    `explore._write_space` still passes one."""
    h = K.transpose() @ omega
    if not h.is_symmetric():
        raise NotSymmetric("omega(K.,.) is not symmetric; K is not omega-skew")
    return h


class Connection4:
    """Left-invariant connection with polynomial numerators over one common
    denominator: the matrix of u -> nabla_{e_i} u is gamma[i] / den, gamma[i]
    a 4x4 list of Polys and den a nonzero Poly.  `nabla`, the list of those
    matrices over Scalar, is built on first read, one division per entry.
    The metric's inverse comes along, fraction-free: h^-1 = f adj / det for
    the lcm f of h's denominators and adj, det those of the Poly matrix f h."""

    def __init__(self, gamma: List[List[List[Poly]]], den: Poly, f: Poly,
                 adj: List[List[Poly]], det: Poly):
        self.gamma, self.den = gamma, den
        self.f, self.adj, self.det = f, adj, det

    @cached_property
    def nabla(self) -> List[Mat4]:
        return [Mat4._of([[ratio(n, self.den) for n in row] for row in g])
                for g in self.gamma]


def koszul_sums(L: LieAlgebra4, h: Mat4) -> List[List[Vec4]]:
    """2 G[i][j][k] for the Koszul values G[i][j][k] = h(nabla_{e_i} e_j, e_k),
    from Koszul's formula:

        2 h(nabla_u v, w) = h([u,v],w) + h([w,u],v) + h([w,v],u),

    read off the lowered brackets c(i,j,k) = h([e_i,e_j],e_k):
    2 G[i][j][k] = c(i,j,k) + c(k,i,j) + c(k,j,i).  For a symmetric h,
    G[i][j][k] = -G[i][k][j] term by term.
    """
    c = lowered_brackets(L, h)
    return [[[c[i][j][k] + c[k][i][j] + c[k][j][i] for k in range(4)]
             for j in range(4)] for i in range(4)]


def levi_civita(L: LieAlgebra4, h: Mat4) -> Connection4:
    """Unique torsion-free metric connection, fraction-free: nabla_{e_i} e_j =
    h^-1 G[i][j] = adj(h) (2 G[i][j]) / (2 det h), for the Koszul values G.

    The connection does not change under h -> f h for any nonzero f in the
    parameters, which are constants on the group (G scales by f and h^-1 by
    1/f).  So h is first scaled by the lcm f of its denominators, and the
    adjugate and determinant of the polynomial f h are polynomials.  The
    doubled Koszul values of f h are rational only through the brackets, so
    they are scaled by the lcm beta of the bracket denominators.  Then
    gamma[i] has column j equal to adj(f h) (2 beta G[i][j]), and the common
    denominator is D = 2 beta det(f h).
    """
    f, hp = h.cleared()
    adj, det = adjugate_det(hp, Poly())
    if det.is_zero:
        raise DegenerateError("metric is degenerate on the whole domain")
    beta = common_denominator(b for v in L.brackets.values() for b in v)
    hf = Mat4._of([[Scalar(p, _canonical=True) for p in row] for row in hp])
    gamma = []
    for gi in koszul_sums(L, hf):
        # w[k][j] = 2 beta G[i][j][k]; row r of gamma[i] is sum_k adj[r][k] w[k]
        w = list(zip(*[[numerator_over(v, beta) for v in g] for g in gi]))
        gamma.append([poly_combination(zip(adj_row, w)) for adj_row in adj])
    return Connection4(gamma, Poly.const(2) * beta * det, f, adj, det)


def K_parallel(L: LieAlgebra4, h: Mat4, K: Mat4) -> bool:
    """nabla K = 0 for the Levi-Civita connection of h, decided on the
    doubled Koszul values 2 G = koszul_sums(L, h), with no connection and no
    inverse of h.

    Premises: h is symmetric and nondegenerate on the domain, and K is
    h-skew, h(Kx, y) = -h(x, Ky).  The last holds whenever h = omega(K., .)
    is symmetric and omega is antisymmetric:
    h(Kx, y) = h(y, Kx) = omega(Ky, Kx) = -omega(Kx, Ky) = -h(x, Ky).
    Then h((nabla_i K) e_j, e_k) = h(nabla_i(K e_j), e_k) + h(nabla_i e_j, K e_k)
    = sum_m K[m][j] G[i][m][k] + sum_m K[m][k] G[i][j][m], and since h is
    nondegenerate nabla K = 0 exactly when all of these vanish, and so when
    they vanish with 2 G in place of G.  G[i] is antisymmetric in (j, k), so
    these values are too, and j < k suffices.
    """
    k_cols = [[(m, K.rows[m][j]) for m in range(4) if not K.rows[m][j].is_zero]
              for j in range(4)]
    for gi in koszul_sums(L, h):
        for j in range(4):
            for k in range(j + 1, 4):
                val = ZERO
                for m, c in k_cols[j]:
                    val = val + c * gi[m][k]
                for m, c in k_cols[k]:
                    val = val + c * gi[j][m]
                if not val.is_zero:
                    return False
    return True


def neutral_certified(omega_antisymmetric: bool, nondegenerate: Verdict,
                      pc: ParacomplexReport) -> bool:
    """Whether a symmetric h = omega(K., .) is certified to have signature
    (2,2) at every point of the domain, with no sampling.  Call it only
    once `metric_from` has found h symmetric.

    Premises: h is symmetric; omega is antisymmetric; omega's nondegeneracy
    is certified (NonZero, which `nonvanishing` gives only to a constant
    Pfaffian or a `known_nonzero` one); K*K = Id; both eigenranks are 2,
    which once K*K = Id is exact on the whole domain (see
    `paracomplex_check`).

    The argument: for u, v in the +1 eigenspace E+, h(u, v) = omega(Ku, v)
    = omega(u, v), which is symmetric in (u, v) and antisymmetric, so it is
    0.  E+ is a 2-dimensional h-isotropic subspace, and so is E-.  And
    det h = det K * det omega with det K = +-1, so h is nondegenerate.  A
    nondegenerate form on R^4 with a 2-dimensional isotropic subspace has
    signature (2,2).  (E+, E-) is the Lagrangian pair of para-Kahler
    geometry: Cruceanu, Fortuny and Gadea, "A survey on paracomplex
    geometry", Rocky Mountain J. Math. 26 (1996).
    """
    return (omega_antisymmetric and nondegenerate.kind == "NonZero"
            and pc.squares_to_id
            and pc.eigenrank_plus == 2 and pc.eigenrank_minus == 2)


class EntryReport:
    """One verify row: its named checks, its notes and the status they give.

    The status rule: PASS when every check passes, WARN when a note
    explains every failed check, FAIL otherwise.  A printed row's note
    (`row_note`) explains each of the row's checks except a `structural`
    one; a check's own `note` explains that check alone and joins `notes`
    only when the check fails.
    """

    __slots__ = ("entry_id", "row_note", "checks", "notes", "explained")

    def __init__(self, entry_id: str, row_note: str = ""):
        self.entry_id, self.row_note = entry_id, row_note
        self.checks: List[dict] = []
        self.notes = row_note
        self.explained: Set[str] = set()

    def add(self, name: str, ok: bool, detail: str = "", note: str = "",
            structural: bool = False):
        self.checks.append({"name": name, "ok": ok,
                            **({"detail": detail} if detail else {})})
        if not ok and (note or (self.row_note and not structural)):
            self.explained.add(name)
            if note:
                self.note(note)

    def note(self, text: str):
        self.notes = f"{self.notes}; {text}" if self.notes else text

    def failing(self) -> List[str]:
        return [c["name"] for c in self.checks if not c["ok"]]

    @property
    def status(self) -> str:
        failed = self.failing()
        if not failed:
            return "PASS"
        return "WARN" if self.explained.issuperset(failed) else "FAIL"

    def to_dict(self) -> dict:
        return {"entry": self.entry_id, "status": self.status,
                "checks": self.checks, **({"notes": self.notes} if self.notes else {})}


# The report's checks that `neutral_certified` reads, in report order.
SIGNATURE_PREMISES = ("omega_antisymmetric", "omega_nondegenerate",
                      "K_squares_to_id", "eigenranks_2_2")


def validate_para_kahler(L: LieAlgebra4, omega: Mat4, K: Mat4,
                         domain: ParamDomain = EMPTY_DOMAIN,
                         entry_id: str = "") -> EntryReport:
    """Nine-point validation; failures are verdicts, never exceptions, and
    every check is exact.

    signature_neutral passes exactly when `neutral_certified` holds, and
    otherwise fails naming the premises that failed.  Whenever it holds,
    nabla K = 0 is decided by theorem.  Its premises make (omega, K) almost
    para-Hermitian on the whole domain:
    omega is antisymmetric and certified nondegenerate, K*K = Id with
    eigenranks (2,2), and h = omega(K., .) is symmetric, so K is h-skew and
    det h = +-det omega does not vanish.  For such a pair nabla K = 0
    exactly when d omega = 0 and N_K = 0, the para-Hermitian counterpart of
    the Kahler identity (Cruceanu, Fortuny and Gadea, Rocky Mountain J. Math.
    26 (1996)), an identity in the structure constants that needs no Jacobi.
    So nabla_K_zero is omega_closed and nijenhuis_zero, with no det h and no
    `K_parallel`; any other input runs `K_parallel`.
    """
    rep = EntryReport(entry_id)
    rep.add("jacobi", L.is_lie_algebra())
    antisymmetric = omega.is_antisymmetric()
    rep.add("omega_antisymmetric", antisymmetric)
    closed = vis_zero(ce_d(L, omega).values())
    rep.add("omega_closed", closed)
    nd = pfaffian_nondegenerate(omega, domain)
    rep.add("omega_nondegenerate", nd.kind == "NonZero",
            "" if nd.kind == "NonZero" else str(nd))
    pc = paracomplex_check(L, K, domain)
    rep.add("K_squares_to_id", pc.squares_to_id)
    rep.add("eigenranks_2_2", pc.eigenrank_plus == 2 and pc.eigenrank_minus == 2,
            pc.rank_constraint or f"ranks ({pc.eigenrank_plus},{pc.eigenrank_minus})"
            if not (pc.eigenrank_plus == 2 and pc.eigenrank_minus == 2) else "")
    rep.add("nijenhuis_zero", pc.nijenhuis_zero)
    try:
        h = metric_from(omega, K)
    except NotSymmetric:
        rep.add("metric_symmetric", False, "omega(K.,.) not symmetric")
        return rep
    rep.add("metric_symmetric", True)
    if neutral_certified(antisymmetric, nd, pc):
        rep.add("signature_neutral", True)
        rep.add("nabla_K_zero", closed and pc.nijenhuis_zero)
        return rep
    failed = [c for c in rep.failing() if c in SIGNATURE_PREMISES]
    rep.add("signature_neutral", False, f"not certified: {','.join(failed)} failed")
    if h.det().is_zero:
        rep.add("nabla_K_zero", False, "metric degenerate")
    elif not antisymmetric:
        rep.add("nabla_K_zero", False, "omega not antisymmetric")
    else:
        rep.add("nabla_K_zero", K_parallel(L, h, K))
    return rep
