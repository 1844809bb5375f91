"""Para-Kahler structure assembly and validation.

A structure is a triple (algebra, omega, K) on the fixed basis.  The
validation report runs the full battery: Jacobi, closedness and
nondegeneracy of omega, K*K = Id, equal eigenranks, vanishing Nijenhuis
tensor, symmetry and neutral signature of the induced metric, and
parallelism of K under the Levi-Civita product.  It is an EntryReport,
the row report that every verify suite returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from .linalg import DegenerateError, Mat4, Vec4, signature_of, vbasis
from .liealg import (
    LieAlgebra4, NotSymmetric, ce_d, form_apply, paracomplex_check,
    pfaffian_nondegenerate,
)
from .scalars import EMPTY_DOMAIN, ParamDomain, Scalar, HALF


def metric_from(omega: Mat4, K: Mat4, domain: ParamDomain = EMPTY_DOMAIN) -> Mat4:
    """Metric h(u, v) = omega(K u, v); raises unless the result is symmetric."""
    h = K.transpose() @ omega
    if not h.is_symmetric(domain):
        raise NotSymmetric("omega(K.,.) is not symmetric; K is not omega-skew")
    return h


class Connection4:
    """Left-invariant connection: nabla[i] is the matrix of u -> nabla_{e_i} u."""

    def __init__(self, nabla: List[Mat4]):
        self.nabla = nabla

    def of(self, i: int, j: int) -> Vec4:
        """nabla_{e_i} e_j."""
        return [self.nabla[i].rows[r][j] for r in range(4)]

    def directional(self, u: Vec4) -> Mat4:
        out = Mat4.zeros()
        for i in range(4):
            if not u[i].is_zero:
                out = out + self.nabla[i].scale(u[i])
        return out

    def torsion_defect(self, L: LieAlgebra4) -> Dict[tuple, Vec4]:
        out = {}
        for i in range(4):
            for j in range(i + 1, 4):
                d = [self.of(i, j)[r] - self.of(j, i)[r] - L.bracket_basis(i, j)[r]
                     for r in range(4)]
                out[(i, j)] = d
        return out

    def metric_defect(self, h: Mat4) -> Dict[tuple, Scalar]:
        """h(nabla_i e_j, e_k) + h(e_j, nabla_i e_k), all (i, j <= k)."""
        out = {}
        for i in range(4):
            for j in range(4):
                for k in range(j, 4):
                    val = (form_apply(h, self.of(i, j), vbasis(k))
                           + form_apply(h, vbasis(j), self.of(i, k)))
                    out[(i, j, k)] = val
        return out


def levi_civita(L: LieAlgebra4, h: Mat4,
                domain: ParamDomain = EMPTY_DOMAIN) -> Connection4:
    """Unique torsion-free metric connection, solved from Koszul's formula:

        2 h(nabla_u v, w) = h([u,v],w) + h([w,u],v) + h([w,v],u).
    """
    det = h.det()
    if domain.is_zero(det):
        raise DegenerateError("metric is degenerate on the whole domain")
    hinv = h.inverse()
    nabla = [Mat4.zeros() for _ in range(4)]
    for i in range(4):
        for j in range(4):
            rhs = []
            for k in range(4):
                val = (form_apply(h, L.bracket_basis(i, j), vbasis(k))
                       + form_apply(h, L.bracket_basis(k, i), vbasis(j))
                       + form_apply(h, L.bracket_basis(k, j), vbasis(i)))
                rhs.append(HALF * val)
            v = hinv.apply(rhs)
            for r in range(4):
                nabla[i].rows[r][j] = v[r]
    return Connection4(nabla)


def nabla_K(L: LieAlgebra4, conn: Connection4, K: Mat4) -> List[Mat4]:
    """(nabla_{e_i} K) e_j = nabla_{e_i}(K e_j) - K(nabla_{e_i} e_j)."""
    return [conn.nabla[i] @ K - K @ conn.nabla[i] for i in range(4)]


@dataclass
class EntryReport:
    """One verify row: its named checks, its notes and the status they give.

    The status rule: PASS when every check passes, WARN when a note
    explains every failed check, FAIL otherwise.  A printed row's note
    (`row_note`) explains each of the row's checks except a `structural`
    one; a check's own `note` explains that check alone and joins `notes`
    only when the check fails.
    """
    entry_id: str
    row_note: str = ""
    checks: List[dict] = field(default_factory=list)
    notes: str = field(init=False)
    explained: Set[str] = field(default_factory=set, init=False)

    def __post_init__(self):
        self.notes = self.row_note

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
                         entry_id: str = "", signature_samples: int = 32,
                         seed: int = 0) -> EntryReport:
    """Nine-point validation; failures are verdicts, never exceptions."""
    rep = EntryReport(entry_id)
    rep.add("jacobi", L.is_lie_algebra(domain))
    rep.add("omega_antisymmetric", omega.is_antisymmetric(domain))
    rep.add("omega_closed", ce_d(L, omega).is_zero(domain))
    nd = pfaffian_nondegenerate(omega, domain)
    rep.add("omega_nondegenerate", nd.kind == "NonZero",
            "" if nd.kind == "NonZero" else nd.kind)
    pc = paracomplex_check(L, K, domain)
    rep.add("K_squares_to_id", pc.squares_to_id)
    rep.add("eigenranks_2_2", pc.eigenrank_plus == 2 and pc.eigenrank_minus == 2,
            pc.rank_constraint or f"ranks ({pc.eigenrank_plus},{pc.eigenrank_minus})"
            if not (pc.eigenrank_plus == 2 and pc.eigenrank_minus == 2) else "")
    rep.add("nijenhuis_zero", pc.nijenhuis_zero)
    try:
        h = metric_from(omega, K, domain)
    except NotSymmetric:
        rep.add("metric_symmetric", False, "omega(K.,.) not symmetric")
        return rep
    rep.add("metric_symmetric", True)
    neutral, detail = _signature_neutral(h, domain, signature_samples, seed)
    rep.add("signature_neutral", neutral, detail)
    try:
        conn = levi_civita(L, h, domain)
        nk = nabla_K(L, conn, K)
        rep.add("nabla_K_zero", all(m.is_zero(domain) for m in nk))
    except DegenerateError:
        rep.add("nabla_K_zero", False, "metric degenerate")
    return rep


def _signature_neutral(h: Mat4, domain: ParamDomain, samples: int, seed: int):
    done = 0
    for done, (asg, m) in enumerate(domain.sampled_values(h.params(), h.eval,
                                                          samples, seed), 1):
        sig = signature_of(m)
        if sig != (2, 2, 0):
            detail = {p.name: str(v) for p, v in asg.items()}
            return False, f"signature {sig} at {detail}"
    return done == samples, "" if done == samples else f"only {done} samples"
