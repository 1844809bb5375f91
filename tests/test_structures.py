import pytest
from hypothesis import assume, given, settings, strategies as st

from pk4lie.liealg import (
    LieAlgebra4, NotSymmetric, paracomplex_check, pfaffian_nondegenerate,
)
from pk4lie.linalg import Mat4, signature_of
from pk4lie.notation import parse_endo, parse_sym_form, parse_two_form
from pk4lie.scalars import ParamDomain, parse_scalar
from pk4lie.structures import (
    K_parallel, _signature_neutral, levi_civita, metric_from,
    neutral_certified, validate_para_kahler,
)
from oracles import levi_civita_axioms_hold, nabla_K, omega_parallel, perturbed

D4HALF = LieAlgebra4.parse(
    "[e1,e2]=e3; [e4,e3]=e3; [e4,e1]=1/2*e1; [e4,e2]=1/2*e2", "d4_half")
OMEGA = parse_two_form("e12-e34")
K1 = parse_endo("E11-E22-E33+x*E43+E44")
K2 = parse_endo("E11-E22+E33-E44")
XNZ = ParamDomain.parse("x != 0")
ABELIAN = LieAlgebra4({}, "abelian")


def M(text):
    return parse_sym_form(text)


def test_metric_from_golden_h1():
    h1 = metric_from(OMEGA, K1)
    assert h1 == M("eps12 + x*eps33 + eps34")


def test_metric_from_golden_h2():
    h2 = metric_from(OMEGA, K2)
    assert h2 == M("eps12 - eps34")


def test_metric_from_incompatible_pair():
    with pytest.raises(NotSymmetric):
        metric_from(parse_two_form("e12+e34"), Mat4.identity())


H1 = metric_from(OMEGA, K1)
H2 = metric_from(OMEGA, K2)


def test_levi_civita_golden_nabla_e1():
    conn = levi_civita(D4HALF, H1)
    expected = Mat4([["0", "0", "-1/2*x", "-1"],
                     ["0", "0", "0", "0"],
                     ["0", "1", "0", "0"],
                     ["0", "-1/2*x", "0", "0"]])
    assert conn.nabla[0] == expected


def test_levi_civita_golden_nabla_e4():
    conn = levi_civita(D4HALF, H1)
    expected = Mat4([["-1/2", "0", "0", "0"],
                     ["0", "1/2", "0", "0"],
                     ["0", "0", "1", "0"],
                     ["0", "0", "-x", "-1"]])
    assert conn.nabla[3] == expected


def test_levi_civita_abelian_is_flat_zero():
    conn = levi_civita(ABELIAN, M("eps13+eps24"))
    assert all(m.is_zero() for m in conn.nabla)


def test_levi_civita_axioms_and_uniqueness():
    nabla = levi_civita(D4HALF, H1).nabla
    assert levi_civita_axioms_hold(D4HALF, H1, nabla)
    # perturb one Christoffel entry: some axiom must break
    assert not levi_civita_axioms_hold(D4HALF, H1, perturbed(nabla, 0, 2, 1))


def test_nabla_omega_parallel():
    assert omega_parallel(OMEGA, levi_civita(D4HALF, H1).nabla)


def test_nabla_K_zero_for_matching_pair():
    conn = levi_civita(D4HALF, H1)
    assert all(m.is_zero() for m in nabla_K(conn.nabla, K1))


def test_nabla_K_abelian_zero_any_K():
    conn = levi_civita(ABELIAN, M("eps13+eps24"))
    assert all(m.is_zero() for m in nabla_K(conn.nabla, parse_endo("E12+E21")))


def test_nabla_K_mismatched_pair_hand_oracle():
    # With nabla from h1 but K := K2 = diag(1,-1,1,-1):
    # (nabla_{e1}K)e2 = nabla_1(-e2) - K(nabla_1 e2)
    #                 = -(e3 - (x/2)e4) - (e3 + (x/2)e4) = -2e3.
    conn = levi_civita(D4HALF, H1)
    nk = nabla_K(conn.nabla, K2)
    col = [nk[0].rows[r][1] for r in range(4)]
    assert col == [parse_scalar(t) for t in ("0", "0", "-2", "0")]
    assert not all(m.is_zero() for m in nk)


def test_validate_classified_structures_d4_half():
    rep = validate_para_kahler(D4HALF, OMEGA, K1, XNZ, "d4_half/K1")
    assert rep.status == "PASS", rep.failing()
    rep2 = validate_para_kahler(D4HALF, OMEGA, K2, ParamDomain.parse(""), "d4_half/K2")
    assert rep2.status == "PASS", rep2.failing()


def test_validate_normal_form_on_b2_row():
    B2 = LieAlgebra4.parse("[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4")
    rep = validate_para_kahler(B2, parse_two_form("e13+e24"),
                               parse_endo("E11+E22-E33-E44"), entry_id="B2/nf")
    assert rep.status == "PASS", rep.failing()


def test_validate_failure_is_verdict_not_error():
    RH3 = LieAlgebra4.parse("[e1,e2]=e3")
    rep = validate_para_kahler(RH3, parse_two_form("e14+e23"), Mat4.identity())
    assert rep.status == "FAIL"
    assert "eigenranks_2_2" in rep.failing()


def test_anti_isometry_of_valid_structure():
    # h(Ku, Kv) = -h(u,v) entrywise: K^T H K + H = 0.
    assert (K1.transpose() @ H1 @ K1 + H1).is_zero()
    assert (K2.transpose() @ H2 @ K2 + H2).is_zero()


def test_koszul_test_on_the_mismatched_pair():
    # K2 is not h1-skew, so K_parallel's premise fails here; both it and
    # the connection report nabla K != 0.
    conn = levi_civita(D4HALF, H1)
    assert not all(m.is_zero() for m in nabla_K(conn.nabla, K2))
    assert not K_parallel(D4HALF, H1, K2)
    assert K_parallel(D4HALF, H1, K1)


def _certificate(L, omega, K, domain):
    return neutral_certified(omega.is_antisymmetric(),
                             pfaffian_nondegenerate(omega, domain),
                             paracomplex_check(L, K, domain))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=16,
                max_size=16))
def test_certificate_accepts_a_transported_lagrangian_pair(entries):
    # K = P diag(1,1,-1,-1) P^-1 and omega = P^-t (e13+e24) P^-1, with
    # P = P0 diag(x,1,1,1): span(P e1, P e2) and span(P e3, P e4) are the
    # eigenspaces, a Lagrangian pair of omega.
    p0 = Mat4([entries[4 * r:4 * r + 4] for r in range(4)])
    assume(not p0.det().is_zero)
    p = p0 @ parse_endo("x*E11+E22+E33+E44")
    pinv = p.inverse()
    K = p @ parse_endo("E11+E22-E33-E44") @ pinv
    omega = pinv.transpose() @ parse_two_form("e13+e24") @ pinv
    h = metric_from(omega, K)
    assert _certificate(ABELIAN, omega, K, XNZ)
    assert h.params() == {next(iter(XNZ.params()))}
    for _, m in XNZ.sampled_values(h.params(), h.eval, 4, seed=0):
        assert signature_of(m) == (2, 2, 0)
    assert validate_para_kahler(ABELIAN, omega, K, XNZ).status == "PASS"


def test_certificate_refuses_eigenranks_3_1():
    # h = diag(1+x^2, 1, 1, -1) = omega(K., .) with K = diag(1,1,1,-1):
    # symmetric, nondegenerate, K*K = Id, but the eigenranks are (3,1).
    dom = ParamDomain.parse("")
    K = parse_endo("E11+E22+E33-E44")
    omega = Mat4([["1+x*x", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                  [0, 0, 0, 1]])
    h = metric_from(omega, K)
    pc = paracomplex_check(ABELIAN, K, dom)
    assert (pc.squares_to_id, pc.eigenrank_plus, pc.eigenrank_minus) == (True, 3, 1)
    nd = pfaffian_nondegenerate(omega, dom)
    assert nd.kind == "NonZero" and nd.trials == 0
    # refused on the eigenranks even if omega were antisymmetric
    assert not neutral_certified(True, nd, pc)
    ok, detail = _signature_neutral(h, dom, 8, seed=0)
    assert not ok and detail.startswith("signature (3, 1, 0) at {'x': ")
    rep = validate_para_kahler(ABELIAN, omega, K, dom)
    checks = {c["name"]: c for c in rep.checks}
    assert checks["signature_neutral"]["detail"] == detail
    assert checks["nabla_K_zero"] == {"name": "nabla_K_zero", "ok": False,
                                      "detail": "omega not antisymmetric"}


def test_certificate_needs_omega_antisymmetric():
    # omega = K = diag(1,1,-1,-1): h = identity is symmetric, omega's
    # determinant is the constant 1, K*K = Id and the eigenranks are (2,2),
    # yet h is definite.  Only the antisymmetry of omega is missing.
    K = parse_endo("E11+E22-E33-E44")
    omega = Mat4(K.rows)
    assert metric_from(omega, K) == Mat4.identity()
    nd = pfaffian_nondegenerate(omega)
    pc = paracomplex_check(ABELIAN, K)
    assert neutral_certified(True, nd, pc)
    assert not neutral_certified(False, nd, pc)
    rep = validate_para_kahler(ABELIAN, omega, K)
    checks = {c["name"]: c for c in rep.checks}
    assert checks["signature_neutral"] == {
        "name": "signature_neutral", "ok": False,
        "detail": "signature (4, 0, 0) at {}"}
    assert checks["nabla_K_zero"]["detail"] == "omega not antisymmetric"
    assert rep.status == "FAIL"


def test_certificate_needs_a_certified_pfaffian():
    # omega = x*e13 + e24 on no constraint: det omega = x^2 is nonzero only
    # by sampling, and h is degenerate at x = 0.  The certificate refuses,
    # and the sampled signature is what the report gives.
    omega = parse_two_form("x*e13+e24")
    K = parse_endo("E11+E22-E33-E44")
    nd = pfaffian_nondegenerate(omega)
    assert nd.kind == "NonZero" and nd.trials > 0
    assert not neutral_certified(True, nd, paracomplex_check(ABELIAN, K))
    h = metric_from(omega, K)
    assert signature_of(h.eval({next(iter(h.params())): 0})) == (1, 1, 2)
    rep = validate_para_kahler(ABELIAN, omega, K, trials=8)
    assert rep.status == "PASS", rep.failing()
