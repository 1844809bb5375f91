import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from pk4lie.catalog import load_catalog
from pk4lie.curvature import Geometry
from pk4lie.liealg import (
    LieAlgebra4, NotSymmetric, paracomplex_check, pfaffian_nondegenerate,
)
from pk4lie.linalg import Mat4, signature_of
from pk4lie.notation import parse_endo, parse_sym_form, parse_two_form
from pk4lie.scalars import EMPTY_DOMAIN, ParamDomain, parse_scalar
from pk4lie.structures import (
    SIGNATURE_PREMISES, K_parallel, levi_civita, metric_from,
    neutral_certified, validate_para_kahler,
)
from oracles import (
    curvature_invariants, generic_rank, levi_civita_axioms_hold, nabla_K,
    omega_parallel, perturbed, rank_invariants,
)

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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=16,
                max_size=16), st.booleans(), st.booleans(), st.booleans(),
       st.booleans())
def test_the_signature_passes_exactly_when_its_premises_do(
        entries, scaled, flipped, symmetric, doubled):
    # The transported Lagrangian pair above, on no constraint, perturbed so
    # that each premise fails in some draws: omega scaled by x (det omega =
    # 1/(x det p0)^2 is certified, x^2/(det p0)^2 is not), K conjugate to
    # diag(1,1,1,-1) (eigenranks (3,1)), omega made symmetric (P^-t P^-1,
    # which keeps omega(K., .) symmetric), or K doubled (K*K = 4 Id, while h
    # stays symmetric and neutral).
    p0 = Mat4([entries[4 * r:4 * r + 4] for r in range(4)])
    assume(not p0.det().is_zero)
    p = p0 @ parse_endo("x*E11+E22+E33+E44")
    pinv = p.inverse()
    K = p @ parse_endo("E11+E22+E33-E44" if flipped else "E11+E22-E33-E44") @ pinv
    if doubled:
        K = K.scale(parse_scalar("2"))
    w = Mat4.identity() if symmetric else parse_two_form("e13+e24")
    omega = pinv.transpose() @ w @ pinv
    if scaled:
        omega = omega.scale(parse_scalar("x"))
    rep = validate_para_kahler(ABELIAN, omega, K)
    checks = {c["name"]: c for c in rep.checks}
    failed = [n for n in SIGNATURE_PREMISES if not checks[n]["ok"]]
    expected = ({"omega_nondegenerate"} if scaled else set()) | (
        {"eigenranks_2_2"} if flipped or doubled else set()) | (
        {"omega_antisymmetric"} if symmetric else set()) | (
        {"K_squares_to_id"} if doubled else set())
    assert set(failed) == expected
    if "signature_neutral" not in checks:
        # flipped against the Lagrangian pair, omega(K., .) is not symmetric
        # and the report stops before the signature
        assert not checks["metric_symmetric"]["ok"] and rep.status == "FAIL"
        return
    sig = checks["signature_neutral"]
    assert sig["ok"] == (not failed)
    if not sig["ok"]:
        assert rep.status == "FAIL"
        # it names the premises that failed, and only those
        assert sig["detail"] == f"not certified: {','.join(failed)} failed"
        return
    h = metric_from(omega, K)
    for _, m in EMPTY_DOMAIN.sampled_values(h.params(), h.eval, 4, seed=0):
        assert signature_of(m) == (2, 2, 0)


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
    assert nd.kind == "NonZero"
    # refused on the eigenranks even if omega were antisymmetric, and rightly:
    # h is not neutral
    assert not neutral_certified(True, nd, pc)
    assert signature_of(h.eval({next(iter(h.params())): 0})) == (3, 1, 0)
    rep = validate_para_kahler(ABELIAN, omega, K, dom)
    checks = {c["name"]: c for c in rep.checks}
    assert checks["signature_neutral"] == {
        "name": "signature_neutral", "ok": False,
        "detail": "not certified: omega_antisymmetric,eigenranks_2_2 failed"}
    assert checks["nabla_K_zero"] == {"name": "nabla_K_zero", "ok": False,
                                      "detail": "omega not antisymmetric"}


def test_certificate_needs_omega_antisymmetric():
    # omega = K = diag(1,1,-1,-1): h = identity is symmetric, omega's
    # determinant is the constant 1, K*K = Id and the eigenranks are (2,2),
    # yet h is definite.  Only the antisymmetry of omega is missing.
    K = parse_endo("E11+E22-E33-E44")
    omega = Mat4(K.rows)
    h = metric_from(omega, K)
    assert h == Mat4.identity() and signature_of(h.eval({})) == (4, 0, 0)
    nd = pfaffian_nondegenerate(omega)
    pc = paracomplex_check(ABELIAN, K)
    assert neutral_certified(True, nd, pc)
    assert not neutral_certified(False, nd, pc)
    rep = validate_para_kahler(ABELIAN, omega, K)
    checks = {c["name"]: c for c in rep.checks}
    assert checks["signature_neutral"] == {
        "name": "signature_neutral", "ok": False,
        "detail": "not certified: omega_antisymmetric failed"}
    assert checks["nabla_K_zero"]["detail"] == "omega not antisymmetric"
    assert rep.status == "FAIL"


def test_certificate_needs_a_certified_pfaffian():
    # omega = x*e13 + e24 on no constraint: det omega = x^2 has no
    # certificate, and h is degenerate at x = 0.  The Pfaffian check fails,
    # the certificate refuses, and so the signature fails, naming that
    # premise: h is neutral wherever x != 0, but not on the whole domain.
    omega = parse_two_form("x*e13+e24")
    K = parse_endo("E11+E22-E33-E44")
    nd = pfaffian_nondegenerate(omega)
    assert (nd.kind, str(nd)) == ("GenericNonZero", "GenericNonZero")
    assert not neutral_certified(True, nd, paracomplex_check(ABELIAN, K))
    h = metric_from(omega, K)
    assert signature_of(h.eval({next(iter(h.params())): 0})) == (1, 1, 2)
    rep = validate_para_kahler(ABELIAN, omega, K)
    assert rep.failing() == ["omega_nondegenerate", "signature_neutral"]
    assert rep.checks[3]["detail"] == "GenericNonZero"
    assert rep.checks[-2]["detail"] == "not certified: omega_nondegenerate failed"


def _bracket_dims(L, K):
    """(dim [g+,g-], dim [g+,g+], dim [g-,g-]) for the eigenplanes g+- of an
    involution K, spanned by the columns of Id +- K, over the rational
    functions in the parameters."""
    ident = Mat4.identity()
    plus, minus = ((ident + K).transpose().rows, (ident - K).transpose().rows)
    return tuple(generic_rank([L.bracket(u, v) for u in us for v in vs])
                 for us, vs in ((plus, minus), (plus, plus), (minus, minus)))


def test_a_d4_2_structure_off_the_printed_list():
    # An integrable (omega, K) on d4_2 whose bracket dimensions no listed
    # d4_2 structure on omega = e14 -+ e23 shares.  The dimensions are
    # invariant under automorphisms, omega -> c*omega and K -> -K, so no
    # equivalence of the README's convention maps it onto a listed row.
    cat = load_catalog(check=False)
    L = cat.algebras["alg/d4_2"].algebra
    omega, K = parse_two_form("e14-e23"), parse_endo("-E12-E13+E24-E31-E34+E42")
    assert validate_para_kahler(L, omega, K).status == "PASS"
    h = metric_from(omega, K)
    assert h == parse_sym_form("-eps12-eps24-eps34")
    geometry = Geometry(L, h, EMPTY_DOMAIN)
    assert geometry.flat and geometry.ricci_flat
    assert _bracket_dims(L, K) == (2, 1, 1)
    listed = [f"structures/d4_2/w2/K{i}" for i in range(1, 8)] + [
        f"structures/d4_2/w3/K{i}" for i in range(1, 4)]
    for key in listed:
        st = cat.structures[key]
        assert _bracket_dims(st.algebra, st.K) == (3, 1, 1), key


# Same-algebra pairs of constant structures that neither the curvature nor
# the rank invariants separate: nine :a/:b sign variants of one entry and
# eleven pairs across entries.  Whether any of them is equivalent needs an
# exact search for the automorphism.
UNSEPARATED_PAIRS = {
    ("structures/d4_1/w1/K1:a", "structures/d4_1/w1/K1:b"),
    ("structures/d4_1/w1/K4:a", "structures/d4_1/w1/K4:b"),
    ("structures/d4_1/w1/K6:a", "structures/d4_1/w1/K6:b"),
    ("structures/d4_2/w1/K1:a", "structures/d4_2/w1/K1:b"),
    ("structures/r4_0/w1/K:a", "structures/r4_0/w1/K:b"),
    ("structures/r4_0/w2/K:a", "structures/r4_0/w2/K:b"),
    ("structures/r4_m1_m1/K5:a", "structures/r4_m1_m1/K5:b"),
    ("structures/r4_m1_m1/K8:a", "structures/r4_m1_m1/K8:b"),
    ("structures/rr3_m1/K3:a", "structures/rr3_m1/K3:b"),
    ("structures/r4_0/w1/K:a", "structures/r4_0/w2/K:a"),
    ("structures/r4_0/w1/K:a", "structures/r4_0/w2/K:b"),
    ("structures/r4_0/w1/K:b", "structures/r4_0/w2/K:a"),
    ("structures/r4_0/w1/K:b", "structures/r4_0/w2/K:b"),
    ("structures/r4_m1_m1/K2", "structures/r4_m1_m1/K3"),
    ("structures/r4_m1_m1/K2", "structures/r4_m1_m1/K5:a"),
    ("structures/r4_m1_m1/K2", "structures/r4_m1_m1/K5:b"),
    ("structures/r4_m1_m1/K3", "structures/r4_m1_m1/K5:a"),
    ("structures/r4_m1_m1/K3", "structures/r4_m1_m1/K5:b"),
    ("structures/rr3_m1/K1:b", "structures/rr3_m1/K3:a"),
    ("structures/rr3_m1/K1:b", "structures/rr3_m1/K3:b"),
}


def test_invariants_leave_twenty_same_algebra_pairs_unseparated():
    # structures whose algebra, omega and K are all constant, grouped by
    # their algebra's brackets
    by_algebra = {}
    for st in load_catalog(check=False).structure_list():
        if not (st.algebra.params() or st.omega.params() or st.K.params()):
            by_algebra.setdefault(st.algebra.serialize(), []).append(st)
    pairs = [pair for sts in by_algebra.values()
             for pair in itertools.combinations(sts, 2)]
    curv = {st.entry_id: curvature_invariants(st.algebra, st.omega, st.K)
            for sts in by_algebra.values() for st in sts}
    both = {st.entry_id: (curv[st.entry_id], rank_invariants(st.algebra, st.K))
            for sts in by_algebra.values() for st in sts}
    assert len(pairs) == 68
    assert sum(curv[a.entry_id] != curv[b.entry_id] for a, b in pairs) == 22
    unseparated = {(a.entry_id, b.entry_id) for a, b in pairs
                   if both[a.entry_id] == both[b.entry_id]}
    assert unseparated == UNSEPARATED_PAIRS
