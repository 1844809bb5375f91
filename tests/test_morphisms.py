import pytest

from pk4lie.liealg import LieAlgebra4
from pk4lie.linalg import Mat4, mat_from_cols
from pk4lie.morphisms import (
    LinMap, NotAutomorphism, check_equivalence, check_lie_isomorphism,
    transport,
)
from pk4lie.notation import parse_endo, parse_two_form, parse_vector
from pk4lie.scalars import ParamDomain
from pk4lie.structures import validate_para_kahler

NF_OMEGA = parse_two_form("e13+e24")
NF_K = parse_endo("E11+E22-E33-E44")


def linmap(source, target, cols):
    p = mat_from_cols([parse_vector(c) for c in cols])
    return LinMap(p, source, target)


def inverse(m):
    """The inverse map, from m's target back to its source."""
    return LinMap(m.matrix.inverse(), m.target, m.source)


def test_identity_map_is_isomorphism():
    rh3 = LieAlgebra4.parse("[e1,e2]=e3")
    m = LinMap(Mat4.identity(), rh3, rh3)
    ok, _ = check_lie_isomorphism(m)
    assert ok


def test_b2_to_r4_minus1_row():
    b2 = LieAlgebra4.parse("[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4")
    r4m1 = LieAlgebra4.parse("[e4,e1]=e1; [e4,e2]=-e2; [e4,e3]=e2-e3")
    m = linmap(r4m1, b2, ["e1", "-e4", "-(x/2)*e1+e3", "e2"])
    assert m.invertible(ParamDomain()).kind == "NonZero"
    ok, res = check_lie_isomorphism(m)
    assert ok, res


def test_failed_map_reports_residual():
    b2 = LieAlgebra4.parse("[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4")
    r4m1 = LieAlgebra4.parse("[e4,e1]=e1; [e4,e2]=-e2; [e4,e3]=e2-e3")
    m = linmap(r4m1, b2, ["e1", "-e4", "e3", "e2"])  # drop the x-correction
    ok, res = check_lie_isomorphism(m)
    assert not ok
    assert any(any(not c.is_zero for c in v) for v in res.values())


def test_c17_to_rh3_with_transport_validates():
    c17 = LieAlgebra4.parse("[e1,e4]=e2")
    rh3 = LieAlgebra4.parse("[e1,e2]=e3")
    m = linmap(rh3, c17, ["e1", "e4", "e2", "e3"])
    ok, _ = check_lie_isomorphism(m)
    assert ok
    w, k = transport(m, NF_OMEGA, NF_K)
    rep = validate_para_kahler(rh3, w, k, entry_id="C1_7 transported")
    assert rep.status == "PASS", rep.failing()


def test_c16_transport_golden():
    # f1=-e4, f2=e2, f3=e3, f4=e1 pulls the normal form back to
    # omega1 = f12 - f34 and K1 = -E11+E22-E33+E44.
    c16 = LieAlgebra4.parse("[e2,e4]=e2")
    rr30 = LieAlgebra4.parse("[e1,e2]=e2")
    m = linmap(rr30, c16, ["-e4", "e2", "e3", "e1"])
    ok, _ = check_lie_isomorphism(m)
    assert ok
    w, k = transport(m, NF_OMEGA, NF_K)
    assert w == parse_two_form("e12-e34")
    assert k == parse_endo("-E11+E22-E33+E44")


def test_transport_along_identity_is_identity():
    rh3 = LieAlgebra4.parse("[e1,e2]=e3")
    m = LinMap(Mat4.identity(), rh3, rh3)
    w, k = transport(m, parse_two_form("e14+e23"), parse_endo("-E11+E21+E22-E33-E43+E44"))
    assert w == parse_two_form("e14+e23")
    assert k == parse_endo("-E11+E21+E22-E33-E43+E44")


def test_transport_round_trip_through_inverse():
    b2 = LieAlgebra4.parse("[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4")
    r4m1 = LieAlgebra4.parse("[e4,e1]=e1; [e4,e2]=-e2; [e4,e3]=e2-e3")
    m = linmap(r4m1, b2, ["e1", "-e4", "-(x/2)*e1+e3", "e2"])
    w1, k1 = transport(m, NF_OMEGA, NF_K)
    w2, k2 = transport(inverse(m), w1, k1)
    assert w2 == NF_OMEGA
    assert k2 == NF_K
    ok, _ = check_lie_isomorphism(inverse(m))
    assert ok


def test_equivalence_worked_instance():
    # L swaps e3 -> -e4, e4 -> e3 and carries (omega0, K04) to (omega0, K01).
    rr30 = LieAlgebra4.parse("[e1,e2]=e2")
    L = linmap(rr30, rr30, ["e1", "e2", "-e4", "e3"])
    omega0 = parse_two_form("e12+e34")
    k04 = parse_endo("-E11+E22+E33-E44")
    k01 = parse_endo("-E11+E22-E33+E44")
    ok, _ = check_equivalence(L, (omega0, k04), (omega0, k01))
    assert ok
    # reflexivity and symmetry of the relation
    ident = LinMap(Mat4.identity(), rr30, rr30)
    ok, _ = check_equivalence(ident, (omega0, k04), (omega0, k04))
    assert ok
    ok, _ = check_equivalence(inverse(L), (omega0, k01), (omega0, k04))
    assert ok


def test_equivalence_pulls_the_second_structure_back_to_the_first():
    # T moves both omega and K; s1 is s2 pulled back along T
    rr30 = LieAlgebra4.parse("[e1,e2]=e2")
    T = linmap(rr30, rr30, ["e1+e2", "2*e2", "e3", "e4"])
    assert check_lie_isomorphism(T)[0]
    s2 = (parse_two_form("-e12+e34"), parse_endo("E11-E22+E33-E44"))
    s1 = transport(T, *s2)
    assert s1[0] == parse_two_form("-2*e12+e34")
    assert s1[1] == parse_endo("E11-E21-E22+E33-E44")
    assert validate_para_kahler(rr30, *s1).status == "PASS"
    ok, diff = check_equivalence(T, s1, s2)
    assert ok, diff
    assert check_equivalence(inverse(T), s2, s1)[0]
    assert not check_equivalence(T, s2, s1)[0]


def test_equivalence_requires_automorphism():
    rr30 = LieAlgebra4.parse("[e1,e2]=e2")
    bad = linmap(rr30, rr30, ["e2", "e1", "e3", "e4"])  # swaps the r2 factor badly
    with pytest.raises(NotAutomorphism):
        check_equivalence(bad, (parse_two_form("e12+e34"), Mat4.identity()),
                          (parse_two_form("e12+e34"), Mat4.identity()))
