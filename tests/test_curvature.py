from pk4lie.curvature import (
    Geometry, SolitonSolutionSet, classify_row, curvature, family_dimension,
    lie_derivative_metric, ricci, ricci_operator, scalar_curvature,
    solve_soliton, soliton_family_equal, soliton_residual, soliton_system,
)
from pk4lie.liealg import LieAlgebra4
from pk4lie.linalg import Mat4
from pk4lie.notation import parse_endo, parse_sym_form, parse_two_form, parse_tuple4
from pk4lie.scalars import EMPTY_DOMAIN, ZERO, ParamDomain, Scalar, parse_scalar
from pk4lie.structures import levi_civita, metric_from

D4HALF = LieAlgebra4.parse(
    "[e1,e2]=e3; [e4,e3]=e3; [e4,e1]=1/2*e1; [e4,e2]=1/2*e2", "d4_half")
OMEGA = parse_two_form("e12-e34")
K1 = parse_endo("E11-E22-E33+x*E43+E44")
K2 = parse_endo("E11-E22+E33-E44")
H1 = metric_from(OMEGA, K1)
H2 = metric_from(OMEGA, K2)
XNZ = ParamDomain.parse("x != 0")
ABELIAN = LieAlgebra4({}, "abelian")


def test_curvature_goldens_d4_half():
    conn = levi_civita(D4HALF, H1)
    r = curvature(D4HALF, conn)
    assert r[(0, 3)].is_zero()
    assert r[(0, 1)] == Mat4([["-x", "0", "0", "0"],
                              ["0", "x", "0", "0"],
                              ["0", "0", "x/2", "0"],
                              ["0", "0", "-1/2*x*x", "-1/2*x"]])
    assert r[(0, 2)] == Mat4([["0", "0", "-1/4*x*x", "-x/2"],
                              ["0", "0", "0", "0"],
                              ["0", "x/2", "0", "0"],
                              ["0", "-1/4*x*x", "0", "0"]])
    assert r[(1, 2)] == Mat4([["0", "0", "0", "0"],
                              ["0", "0", "-1/4*x*x", "0"],
                              ["0", "0", "0", "0"],
                              ["1/4*x*x", "0", "0", "0"]])
    assert r[(1, 3)] == Mat4([["0", "0", "0", "0"],
                              ["0", "0", "-x/2", "0"],
                              ["0", "0", "0", "0"],
                              ["x/2", "0", "0", "0"]])
    assert r[(2, 3)] == Mat4([["x/2", "0", "0", "0"],
                              ["0", "-x/2", "0", "0"],
                              ["0", "0", "-x", "0"],
                              ["0", "0", "x*x", "x"]])


def test_ricci_goldens_d4_half():
    conn = levi_civita(D4HALF, H1)
    ric = ricci(D4HALF, conn)
    assert ric == parse_sym_form("3/2*x*eps12 + 3/2*x*x*eps33 + 3/2*x*eps34")
    ric_op = ricci_operator(H1, ric)
    assert ric_op == Mat4.identity().scale(parse_scalar("3/2*x"))
    assert scalar_curvature(ric_op) == parse_scalar("6*x")


def test_ricci_abelian_zero():
    conn = levi_civita(ABELIAN, parse_sym_form("eps13+eps24"))
    assert ricci(ABELIAN, conn).is_zero()
    assert curvature(ABELIAN, conn).is_zero()


def test_lie_derivative_golden_general_x():
    X = [Scalar.var(n) for n in ("x1", "x2", "x3", "x4")]
    lx = lie_derivative_metric(soliton_system(D4HALF, H1), X)
    # as displayed, with the symmetric value -x1*x at both (2,3) and (3,2)
    expected = Mat4([["0", "-x4", "x2*x", "3/2*x2"],
                     ["-x4", "0", "-x1*x", "-1/2*x1"],
                     ["x2*x", "-x1*x", "-2*x4*x", "x*x3-x4"],
                     ["3/2*x2", "-1/2*x1", "x*x3-x4", "2*x3"]])
    assert lx == expected


def test_lie_derivative_zero_field():
    Z = [Scalar.const(0)] * 4
    assert lie_derivative_metric(soliton_system(D4HALF, H1), Z).is_zero()


def test_lie_derivative_flat_case_x0():
    h = H1.substitute({parse_scalar("x").params().pop(): Scalar.const(0)})
    X = [Scalar.var(n) for n in ("x1", "x2", "x3", "x4")]
    lx = lie_derivative_metric(soliton_system(D4HALF, h), X)
    expected = Mat4([["0", "-x4", "0", "3/2*x2"],
                     ["-x4", "0", "0", "-1/2*x1"],
                     ["0", "0", "0", "-x4"],
                     ["3/2*x2", "-1/2*x1", "-x4", "2*x3"]])
    assert lx == expected


def test_soliton_d4_half_generic_x():
    sol = Geometry(D4HALF, H1, XNZ).soliton
    assert sol is not None
    assert sol.free_count == 0
    assert sol.lam == parse_scalar("3/2*x")
    assert all(c.is_zero for c in sol.x)
    assert sol.type_tag() == "sign depends on parameters"


def test_soliton_d4_half_flat_cases():
    # Expected family, as displayed: lambda = -x4 and X = x4 e4.
    xparam = parse_scalar("x").params().pop()
    x4 = Scalar.var("x4")
    for h in (H1.substitute({xparam: Scalar.const(0)}), H2):
        conn = levi_civita(D4HALF, h)
        ric = ricci(D4HALF, conn)
        assert ric.is_zero()
        system = soliton_system(D4HALF, h)
        sol = solve_soliton(system, EMPTY_DOMAIN, ric)
        assert sol is not None and sol.free_count == 1
        ok, why = soliton_family_equal(
            system, ric, sol,
            [Scalar.const(0)] * 3 + [x4], -x4)
        assert ok, why


def test_soliton_abelian_fully_free():
    h = parse_sym_form("eps13+eps24")
    sol = Geometry(ABELIAN, h).soliton
    assert sol is not None
    assert sol.free_count == 4
    assert sol.lam.is_zero


def test_soliton_residual_identity():
    for dom, h in ((XNZ, H1), (ParamDomain.parse(""), H2)):
        conn = levi_civita(D4HALF, h)
        ric = ricci(D4HALF, conn)
        system = soliton_system(D4HALF, h)
        sol = solve_soliton(system, dom, ric)
        res = soliton_residual(system, sol.x, sol.lam, ric)
        assert res.is_zero()


def test_einstein_consistency():
    # X = 0 with lambda != 0 forces Ric = lambda * Id.
    conn = levi_civita(D4HALF, H1)
    ric = ricci(D4HALF, conn)
    sol = solve_soliton(soliton_system(D4HALF, H1), XNZ, ric)
    assert all(c.is_zero for c in sol.x) and not sol.lam.is_zero
    ric_op = ricci_operator(H1, ric)
    assert ric_op == Mat4.identity().scale(sol.lam)


def test_classify_rows_against_table():
    # rr3,-1 with eps14+eps23+x*eps44: flat, Ricci flat, lambda 0, X=(x1,0,0,x4)
    rr3m1 = LieAlgebra4.parse("[e1,e2]=e2; [e1,e3]=-e3")
    h = parse_sym_form("eps14+eps23+x*eps44")
    row = classify_row(rr3m1, h)
    assert row.flat and row.ricci_flat
    ric = Mat4.zeros()
    ok, why = soliton_family_equal(
        row.system, ric, row.soliton,
        parse_tuple4("(x1,0,0,x4)"), Scalar.const(0))
    assert ok, why

    # h4 with +(eps12-eps34): not flat, Ricci flat, Einstein-steady at X=0
    h4 = LieAlgebra4.parse(
        "[e1,e2]=e3; [e4,e3]=e3; [e4,e1]=1/2*e1; [e4,e2]=e1+1/2*e2")
    row = classify_row(h4, parse_sym_form("eps12-eps34"))
    assert not row.flat and row.ricci_flat
    assert row.soliton is not None and row.soliton.free_count == 0
    assert row.soliton.lam.is_zero
    assert all(c.is_zero for c in row.soliton.x)
    assert row.soliton_type == "steady"

    # r2r2 (mu=0) with eps12+x*eps22+eps34+y*eps44, xy!=0, x!=y: no soliton
    r2r2 = LieAlgebra4.parse("[e1,e2]=e2; [e3,e4]=e4")
    dom = ParamDomain.parse("x != 0, y != 0, x-y != 0")
    row = classify_row(r2r2, parse_sym_form("eps12+x*eps22+eps34+y*eps44"), dom)
    assert not row.flat and not row.ricci_flat
    assert row.soliton is None
    ok, why = soliton_family_equal(row.system, row.ric, row.soliton, None, None, dom)
    assert ok, why


def test_family_dimension_counts_independent_directions():
    x1, x3, x4 = (Scalar.var(n) for n in ("x1", "x3", "x4"))
    zero = Scalar.const(0)
    assert family_dimension([x1, zero, x1, zero], -x1) == 1
    assert family_dimension([zero, zero, x3, x4], zero) == 2
    assert family_dimension([zero] * 4, zero) == 0
    # metric parameters are not free directions
    assert family_dimension([zero, zero, Scalar.var("x"), zero], -Scalar.var("x")) == 0


def test_flat_implies_ricci_flat():
    rr3m1 = LieAlgebra4.parse("[e1,e2]=e2; [e1,e3]=-e3")
    h = parse_sym_form("eps14-eps23")
    row = classify_row(rr3m1, h)
    assert row.flat
    assert row.ricci_flat


def test_type_tag_decides_the_sign_on_the_domain():
    x = Scalar.var("x")

    def tag(lam, domain):
        sol = SolitonSolutionSet([ZERO] * 4, lam, 0)
        return sol.type_tag(ParamDomain.parse(domain))

    assert tag(x, "x > 0") == "shrinking"
    assert tag(x, "x < 0") == "expanding"
    assert tag(-2 * x, "x >= 1") == "expanding"
    assert tag(x / 2 - 1, "x > 3") == "shrinking"
    assert tag(1 - x, "2*x - 4 >= 0") == "expanding"
    assert tag(1 / x, "x < 0") == "expanding"
    assert tag(x * x + 1, "") == "shrinking"      # definite sign
    assert tag(Scalar.const(-3), "") == "expanding"
    # the root is excluded but the sign still changes, or is not excluded
    assert tag(x - 1, "x != 1") == "sign depends on parameters"
    assert tag(x, "x*x - 1 > 0") == "sign depends on parameters"
    assert tag(x, "x > -1") == "sign depends on parameters"
    assert tag(x, "") == "sign depends on parameters"
