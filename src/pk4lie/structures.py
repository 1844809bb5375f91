"""Para-Kahler structure assembly and validation.

A structure is a triple (algebra, omega, K) on the fixed basis.  The
validation report runs the full battery: Jacobi, closedness and
nondegeneracy of omega, K*K = Id, equal eigenranks, vanishing Nijenhuis
tensor, symmetry and neutral signature of the induced metric, and
parallelism of K under the Levi-Civita product.  It is an EntryReport,
the row report that every verify suite returns.

Both of the last two checks are exact.  The signature is neutral by the
isotropic-eigenspace certificate (`neutral_certified`) whenever its
premises passed, and is sampled only when one of them failed.  nabla K = 0
is decided on the Koszul values (`K_parallel`), with no connection and no
inverse of the metric.  `levi_civita` builds the connection itself, for
the curvature suite and the `geometry` command.
"""

from __future__ import annotations

from typing import List, Set

from .linalg import DegenerateError, Mat4, Vec4, mat_from_cols, signature_of
from .liealg import (
    LieAlgebra4, NotSymmetric, ParacomplexReport, ce_d, lowered_brackets,
    paracomplex_check, pfaffian_nondegenerate,
)
from .scalars import EMPTY_DOMAIN, HALF, ParamDomain, Verdict, ZERO


def metric_from(omega: Mat4, K: Mat4, domain: ParamDomain = EMPTY_DOMAIN) -> Mat4:
    """Metric h(u, v) = omega(K u, v); raises unless the result is symmetric.
    `domain` is unread: symmetry is exact, and the benchmark's
    `explore._write_space` still passes one."""
    h = K.transpose() @ omega
    if not h.is_symmetric():
        raise NotSymmetric("omega(K.,.) is not symmetric; K is not omega-skew")
    return h


class Connection4:
    """Left-invariant connection: nabla[i] is the matrix of u -> nabla_{e_i} u."""

    def __init__(self, nabla: List[Mat4]):
        self.nabla = nabla


def koszul_values(L: LieAlgebra4, h: Mat4) -> List[List[Vec4]]:
    """G[i][j][k] = h(nabla_{e_i} e_j, e_k), from Koszul's formula:

        2 h(nabla_u v, w) = h([u,v],w) + h([w,u],v) + h([w,v],u),

    read off the lowered brackets c(i,j,k) = h([e_i,e_j],e_k):
    G[i][j][k] = (c(i,j,k) + c(k,i,j) + c(k,j,i)) / 2.  For a symmetric h,
    G[i][j][k] = -G[i][k][j] term by term.
    """
    c = lowered_brackets(L, h)
    return [[[HALF * (c[i][j][k] + c[k][i][j] + c[k][j][i])
              for k in range(4)] for j in range(4)] for i in range(4)]


def levi_civita(L: LieAlgebra4, h: Mat4) -> Connection4:
    """Unique torsion-free metric connection: h^-1 applied to the Koszul
    values."""
    if h.det().is_zero:
        raise DegenerateError("metric is degenerate on the whole domain")
    hinv = h.inverse()
    return Connection4([mat_from_cols([hinv.apply(g) for g in gi])
                        for gi in koszul_values(L, h)])


def K_parallel(L: LieAlgebra4, h: Mat4, K: Mat4) -> bool:
    """nabla K = 0 for the Levi-Civita connection of h, decided on the
    Koszul values G = koszul_values(L, h), with no connection and no
    inverse of h.

    Premises: h is symmetric and nondegenerate on the domain, and K is
    h-skew, h(Kx, y) = -h(x, Ky).  The last holds whenever h = omega(K., .)
    is symmetric and omega is antisymmetric:
    h(Kx, y) = h(y, Kx) = omega(Ky, Kx) = -omega(Kx, Ky) = -h(x, Ky).
    Then h((nabla_i K) e_j, e_k) = h(nabla_i(K e_j), e_k) + h(nabla_i e_j, K e_k)
    = sum_m K[m][j] G[i][m][k] + sum_m K[m][k] G[i][j][m], and since h is
    nondegenerate nabla K = 0 exactly when all of these vanish.  G[i] is
    antisymmetric in (j, k), so these values are too, and j < k suffices.
    """
    k_cols = [[(m, K.rows[m][j]) for m in range(4) if not K.rows[m][j].is_zero]
              for j in range(4)]
    for gi in koszul_values(L, h):
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
    is certified (a constant Pfaffian or `known_nonzero`: a NonZero verdict
    that sampled nothing, not identity_test's generic NonZero); K*K = Id;
    both eigenranks are 2, which once K*K = Id is exact on the whole domain
    (see `paracomplex_check`).

    The argument: for u, v in the +1 eigenspace E+, h(u, v) = omega(Ku, v)
    = omega(u, v), which is symmetric in (u, v) and antisymmetric, so it is
    0.  E+ is a 2-dimensional h-isotropic subspace, and so is E-.  And
    det h = det K * det omega with det K = +-1, so h is nondegenerate.  A
    nondegenerate form on R^4 with a 2-dimensional isotropic subspace has
    signature (2,2).  (E+, E-) is the Lagrangian pair of para-Kahler
    geometry: Cruceanu, Fortuny and Gadea, "A survey on paracomplex
    geometry", Rocky Mountain J. Math. 26 (1996).
    """
    return (omega_antisymmetric
            and nondegenerate.kind == "NonZero" and nondegenerate.trials == 0
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


def validate_para_kahler(L: LieAlgebra4, omega: Mat4, K: Mat4,
                         domain: ParamDomain = EMPTY_DOMAIN,
                         entry_id: str = "", seed: int = 0,
                         trials: int = 32) -> EntryReport:
    """Nine-point validation; failures are verdicts, never exceptions.  The
    Pfaffian check and the signature's fallback sample `trials` seeded points."""
    rep = EntryReport(entry_id)
    rep.add("jacobi", L.is_lie_algebra())
    antisymmetric = omega.is_antisymmetric()
    rep.add("omega_antisymmetric", antisymmetric)
    rep.add("omega_closed", ce_d(L, omega).is_zero())
    nd = pfaffian_nondegenerate(omega, domain, trials, seed)
    rep.add("omega_nondegenerate", nd.kind == "NonZero",
            "" if nd.kind == "NonZero" else nd.kind)
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
    else:
        rep.add("signature_neutral", *_signature_neutral(h, domain, trials, seed))
    if h.det().is_zero:
        rep.add("nabla_K_zero", False, "metric degenerate")
    elif not antisymmetric:
        rep.add("nabla_K_zero", False, "omega not antisymmetric")
    else:
        rep.add("nabla_K_zero", K_parallel(L, h, K))
    return rep


def _signature_neutral(h: Mat4, domain: ParamDomain, trials: int, seed: int):
    """The signature of h at `trials` seeded points of the domain: the
    fallback when `neutral_certified` refuses."""
    done = 0
    for done, (asg, m) in enumerate(domain.sampled_values(h.params(), h.eval,
                                                          trials, seed), 1):
        sig = signature_of(m)
        if sig != (2, 2, 0):
            detail = {p.name: str(v) for p, v in asg.items()}
            return False, f"signature {sig} at {detail}"
    return done == trials, "" if done == trials else f"only {done} samples"
