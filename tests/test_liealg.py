from pk4lie.liealg import (
    TRIPLES, LieAlgebra4, ce_d, nijenhuis, paracomplex_check, pfaffian_nondegenerate,
)
from pk4lie.linalg import Mat4, vbasis, vis_zero
from pk4lie.notation import parse_endo, parse_two_form
from pk4lie.scalars import ONE, Scalar, parse_scalar

RH3 = LieAlgebra4.parse("[e1,e2]=e3", "rh3")
RR30 = LieAlgebra4.parse("[e1,e2]=e2", "rr3_0")
B2 = LieAlgebra4.parse("[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4", "B2")
D4HALF = LieAlgebra4.parse(
    "[e1,e2]=e3; [e4,e3]=e3; [e4,e1]=1/2*e1; [e4,e2]=1/2*e2", "d4_half")
ABELIAN = LieAlgebra4({}, "abelian")


def test_bracket_table_row():
    assert RH3.bracket(vbasis(0), vbasis(1)) == [Scalar.const(0)] * 2 + [ONE, Scalar.const(0)]


def test_bracket_antisymmetry_on_equal_arguments():
    u = [parse_scalar(t) for t in ("1", "x", "-2", "x*x")]
    assert vis_zero(B2.bracket(u, u))


def test_bracket_bilinearity_d4_half():
    v = D4HALF.bracket(vbasis(3), [ONE, ONE, Scalar.const(0), Scalar.const(0)])
    assert v == [parse_scalar(t) for t in ("1/2", "1/2", "0", "0")]


def test_jacobi_rh3_and_b2():
    assert RH3.is_lie_algebra()
    assert B2.is_lie_algebra()  # identically in x


def test_jacobi_defect_hand_oracle():
    # [e1,e2]=e3, [e1,e3]=e1: cyclic sum on (1,2,3) is
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 + [-e1,e2] = -e3.
    L = LieAlgebra4.parse("[e1,e2]=e3; [e1,e3]=e1")
    d = L.jacobi_defect()
    assert d[(0, 1, 2)] == [Scalar.const(0), Scalar.const(0), Scalar.const(-1),
                            Scalar.const(0)]
    assert not L.is_lie_algebra()


def test_ce_d_abelian_always_zero():
    for text in ("e12+e34", "e14+e23", "e12+mu*e13+e34"):
        assert vis_zero(ce_d(ABELIAN, parse_two_form(text)).values())


def test_ce_d_symplectic_pair():
    assert vis_zero(ce_d(RH3, parse_two_form("e14+e23")).values())


def test_ce_d_nonclosed_hand_oracle():
    # d(omega)(e1,e2,e4) = -omega([e1,e2],e4) = -omega(e3,e4) = -1.
    d = ce_d(RH3, parse_two_form("e12+e34"))
    assert list(d) == list(TRIPLES)
    assert d[(0, 1, 3)] == Scalar.const(-1)
    assert not vis_zero(d.values())


def test_ce_d_linear_in_omega():
    w1, w2 = parse_two_form("e14+e23"), parse_two_form("e12+e34")
    a, b = parse_scalar("3"), parse_scalar("x")
    lhs = ce_d(RH3, w1.scale(a) + w2.scale(b))
    d1, d2 = ce_d(RH3, w1), ce_d(RH3, w2)
    assert all((lhs[t] - (a * d1[t] + b * d2[t])).is_zero for t in TRIPLES)


def test_pfaffian_verdicts():
    assert pfaffian_nondegenerate(parse_two_form("e12+e34")).kind == "NonZero"
    assert pfaffian_nondegenerate(parse_two_form("e12")).kind == "ZeroExact"
    # determinant of e12 + mu*e13 + e34 is exactly 1, independent of mu
    w = parse_two_form("e12+mu*e13+e34")
    assert w.det() == Scalar.const(1)
    assert pfaffian_nondegenerate(w).kind == "NonZero"


def test_nijenhuis_abelian_zero():
    K = parse_endo("E12+2*E21+E33-E44")
    assert all(vis_zero(v) for v in nijenhuis(ABELIAN, K).values())


def test_nijenhuis_classified_structure():
    K1 = parse_endo("-E11+E22-E33+E44")
    assert all(vis_zero(v) for v in nijenhuis(RR30, K1).values())


def test_nijenhuis_swap_hand_oracle():
    # K swaps e1<->e2 and e3<->e4 on rh3.  Expanding the four-term formula:
    # N(e1,e2) = e3 + [e2,e1] - K[e2,e2] - K[e1,e1] = e3 - e3 = 0, and the
    # remaining pairs vanish because no bracket involves e3 or e4.
    K = parse_endo("E12+E21+E34+E43")
    n = nijenhuis(RH3, K)
    assert vis_zero(n[(0, 1)])
    assert all(vis_zero(v) for v in n.values())


def test_paracomplex_identity_is_not_paracomplex():
    rep = paracomplex_check(RH3, Mat4.identity())
    assert rep.squares_to_id
    assert (rep.eigenrank_plus, rep.eigenrank_minus) == (4, 0)
    assert rep.nijenhuis_zero


def test_paracomplex_normal_form_on_b2():
    rep = paracomplex_check(B2, parse_endo("E11+E22-E33-E44"))
    assert rep.squares_to_id and rep.nijenhuis_zero
    assert (rep.eigenrank_plus, rep.eigenrank_minus) == (2, 2)


def test_paracomplex_rr30_K2_all_x():
    rep = paracomplex_check(RR30, parse_endo("E11+x*E12-E22+E33-E44"))
    assert rep.squares_to_id and rep.nijenhuis_zero
    assert (rep.eigenrank_plus, rep.eigenrank_minus) == (2, 2)


def test_algebra_serialization_round_trip():
    for L in (RH3, RR30, B2, D4HALF, ABELIAN):
        text = L.serialize()
        again = LieAlgebra4.parse(text)
        assert again.serialize() == text
        for key, v in L.brackets.items():
            assert again.brackets[key] == v


def test_bracket_normalizes_reversed_input():
    L = LieAlgebra4.parse("[e2,e1]=e3")
    assert L.bracket_basis(0, 1) == [Scalar.const(0)] * 2 + [Scalar.const(-1),
                                                             Scalar.const(0)]
