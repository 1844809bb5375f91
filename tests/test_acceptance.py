"""Acceptance criteria, one test per criterion, each printing a result line.

Exact checks are asserted with no tolerance; sign conditions are sampled
with pinned seeds.  Rows with documented internal inconsistencies in the
printed tables WARN: both values are reported and the computed values must
still satisfy the defining identities exactly.
"""

import time

from pk4lie.catalog import load_catalog
from pk4lie.curvature import (
    classify_row, curvature, lie_derivative_metric, ricci, ricci_operator,
    solve_soliton, soliton_family_equal, soliton_residual, soliton_system,
)
from pk4lie.liealg import LieAlgebra4
from pk4lie.linalg import Mat4, vis_zero
from pk4lie.notation import parse_endo, parse_sym_form, parse_two_form
from pk4lie.phase_space import (
    LSAPair, assembled_brackets, is_lie_extendible, parse_products,
)
from pk4lie.scalars import EMPTY_DOMAIN, ParamDomain, Scalar, parse_scalar
from pk4lie.structures import levi_civita, metric_from
from pk4lie.verify import (
    run_curvature_rows, run_equivalence_witnesses, run_iso_rows,
    run_phase_rows, run_structures, run_symplectic,
)
from oracles import (
    extendibility_constraints, involutive_samples, levi_civita_axioms_hold,
    lsa_catalog, omega_parallel, perturbed, ustar_coeffs_from_products,
)
from test_verify import CURVATURE_WARNS, WITNESS_WARNS

CAT = load_catalog()


def report(n, status, detail):
    print(f"criterion {n}: {status} - {detail}")


def test_criterion_1_symplectic_suite():
    t0 = time.monotonic()
    reports = run_symplectic(CAT)
    elapsed = time.monotonic() - t0
    assert all(r.status == "PASS" for r in reports)
    assert len(reports) == 24
    # all three checks are exact: Jacobi and closedness are zero-polynomial
    # identities, nondegeneracy is a certified nonvanishing determinant
    for r in reports:
        for c in r.checks:
            assert c["ok"]
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    report(1, "PASS", f"24 symplectic rows exact in {elapsed:.2f}s")


def test_criterion_2_structure_suite():
    t0 = time.monotonic()
    reports = run_structures(CAT)
    elapsed = time.monotonic() - t0
    assert len(reports) == 98  # all sign variants expanded
    assert all(r.status == "PASS" for r in reports), [
        r.entry_id for r in reports if r.status != "PASS"]
    nine = {"jacobi", "omega_closed", "omega_nondegenerate", "K_squares_to_id",
            "eigenranks_2_2", "nijenhuis_zero", "metric_symmetric",
            "signature_neutral", "nabla_K_zero"}
    for r in reports:
        assert nine <= {c["name"] for c in r.checks}
    again = run_structures(CAT)
    assert [r.to_dict() for r in again] == [r.to_dict() for r in reports]
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    report(2, "PASS", f"98 structures, nine-point validation, certified "
                      f"signatures, {elapsed:.1f}s")


def test_criterion_3_base_plane_golden_derivation():
    b2 = lsa_catalog()["b2"]
    system = extendibility_constraints(b2)
    # the displayed linear system from the first two Jacobi triples
    for text in ("b34+a33+a43", "a44", "b44+a43"):
        assert system.contains(parse_scalar(text).num), text
    # the displayed quartic systems appear after substituting it
    sub = {Scalar.var(n).params().pop(): v for n, v in {
        "a44": Scalar.const(0),
        "b44": -Scalar.var("a43"),
        "b34": -Scalar.var("a33") - Scalar.var("a43"),
    }.items()}
    reduced = []
    for _, p in system.equations:
        s = Scalar(p).substitute(sub)
        if not s.is_zero:
            reduced.append(s.num)
    for text in ("a33*a34-2*a33*a43-a34*b43-a43*a43-a43*b43",
                 "a34*(a34+a43)", "a34",
                 "(a34-3*a43)*b33+b43*(a33-b43)",
                 "2*a43*a43+(2*a33-a34+b43)*a43-a34*(a33-b43)",
                 "a34+b43+2*a33"):
        want = parse_scalar(text).num
        assert any(p == want or p == (-Scalar(want)).num for p in reduced), text
    # the verified solution is e3.e3 = x e4, reproducing the bracket family
    sol = ustar_coeffs_from_products(parse_products("e3.e3=x*e4", offset=2))
    assert system.is_solution(sol)
    pair = LSAPair(b2, parse_products("e3.e3=x*e4", offset=2))
    ok, _ = is_lie_extendible(assembled_brackets(pair))
    assert ok
    assert assembled_brackets(pair).serialize() == \
        "[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4"
    # the claimed product e3.e4 = e4 contradicts the displayed system: its
    # first equation evaluates to 1
    claimed = ustar_coeffs_from_products(parse_products("e3.e4=e4", offset=2))
    residuals = [r for r in system.residuals_at(claimed) if not r.is_zero]
    assert not system.is_solution(claimed)
    assert Scalar.const(1) in residuals
    report(3, "PASS with WARN",
           "displayed system and bracket family reproduced exactly; the "
           "claimed dual product e3.e4=e4 violates the displayed system "
           "(residual 1), the verified solution is e3.e3=x*e4")


def test_criterion_4_phase_suite():
    t0 = time.monotonic()
    reports = run_phase_rows(CAT)
    elapsed = time.monotonic() - t0
    assert len(reports) == 45
    assert all(r.status == "PASS" for r in reports), [
        r.entry_id for r in reports if r.status != "PASS"]
    names = {"jacobi", "normal_form_structure", "eigenplanes_bracket_closed",
             "eigenplanes_lagrangian"}
    for r in reports:
        assert names <= {c["name"] for c in r.checks}
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    report(4, "PASS", f"45 phase-space rows validated in {elapsed:.1f}s")


def test_criterion_5_iso_suite():
    t0 = time.monotonic()
    reports = run_iso_rows(CAT)
    elapsed = time.monotonic() - t0
    assert len(reports) == 88
    assert all(r.status == "PASS" for r in reports), [
        (r.entry_id, r.status) for r in reports if r.status != "PASS"]
    # the radical rows are verified exactly, their solved parameter z
    # substituted by the rational parametrization of w**2 = radicand
    for rid in ("iso_b/B3_1_0yz", "iso_b/B3_1_discpos", "iso_b/B3_1_discneg"):
        row = CAT.iso_rows[rid]
        assert row.raw.get("radical")
        rep = next(r for r in reports if r.entry_id == rid)
        assert all(c["ok"] for c in rep.checks), rid
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    report(5, "PASS", f"88 isomorphism rows exact (3 via radical substitutions) "
                      f"in {elapsed:.1f}s")


def test_criterion_6_worked_geometry_golden():
    L = LieAlgebra4.parse(
        "[e1,e2]=e3; [e4,e3]=e3; [e4,e1]=1/2*e1; [e4,e2]=1/2*e2")
    omega = parse_two_form("e12-e34")
    k1 = parse_endo("E11-E22-E33+x*E43+E44")
    k2 = parse_endo("E11-E22+E33-E44")
    xnz = ParamDomain.parse("x != 0")
    h1 = metric_from(omega, k1)
    assert h1 == parse_sym_form("eps12+x*eps33+eps34")
    h2 = metric_from(omega, k2)
    assert h2 == parse_sym_form("eps12-eps34")

    conn = levi_civita(L, h1)
    displayed_nabla = {
        0: [["0", "0", "-1/2*x", "-1"], ["0", "0", "0", "0"],
            ["0", "1", "0", "0"], ["0", "-1/2*x", "0", "0"]],
        1: [["0", "0", "0", "0"], ["0", "0", "1/2*x", "0"],
            ["0", "0", "0", "0"], ["-1/2*x", "0", "0", "0"]],
        2: [["-1/2*x", "0", "0", "0"], ["0", "1/2*x", "0", "0"],
            ["0", "0", "x", "0"], ["0", "0", "-x*x", "-x"]],
        3: [["-1/2", "0", "0", "0"], ["0", "1/2", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "-x", "-1"]],
    }
    for i, rows in displayed_nabla.items():
        assert conn.nabla[i] == Mat4(rows), f"nabla e{i+1}"

    r = curvature(L, conn).matrices
    assert r[(0, 3)].is_zero()
    displayed_r = {
        (0, 1): [["-x", "0", "0", "0"], ["0", "x", "0", "0"],
                 ["0", "0", "1/2*x", "0"], ["0", "0", "-1/2*x*x", "-1/2*x"]],
        (0, 2): [["0", "0", "-1/4*x*x", "-1/2*x"], ["0", "0", "0", "0"],
                 ["0", "1/2*x", "0", "0"], ["0", "-1/4*x*x", "0", "0"]],
        (1, 2): [["0", "0", "0", "0"], ["0", "0", "-1/4*x*x", "0"],
                 ["0", "0", "0", "0"], ["1/4*x*x", "0", "0", "0"]],
        (1, 3): [["0", "0", "0", "0"], ["0", "0", "-1/2*x", "0"],
                 ["0", "0", "0", "0"], ["1/2*x", "0", "0", "0"]],
        (2, 3): [["1/2*x", "0", "0", "0"], ["0", "-1/2*x", "0", "0"],
                 ["0", "0", "-x", "0"], ["0", "0", "x*x", "x"]],
    }
    for pair, rows in displayed_r.items():
        assert r[pair] == Mat4(rows), f"R{pair}"

    ric = ricci(L, conn)
    assert ric == parse_sym_form("3/2*x*eps12+3/2*x*x*eps33+3/2*x*eps34")
    ric_op = ricci_operator(conn, ric)
    assert ric_op == Mat4.identity().scale(parse_scalar("3/2*x"))
    assert ric_op.trace() == parse_scalar("6*x")

    X = [Scalar.var(n) for n in ("x1", "x2", "x3", "x4")]
    lx = lie_derivative_metric(soliton_system(L, h1), X)
    assert lx == Mat4([["0", "-x4", "x2*x", "3/2*x2"],
                       ["-x4", "0", "-x1*x", "-1/2*x1"],
                       ["x2*x", "-x1*x", "-2*x4*x", "x*x3-x4"],
                       ["3/2*x2", "-1/2*x1", "x*x3-x4", "2*x3"]])

    sol = solve_soliton(soliton_system(L, h1), xnz, ric)
    assert sol.free_count == 0 and sol.lam == parse_scalar("3/2*x")
    assert all(c.is_zero for c in sol.x)

    xp = parse_scalar("x").params().pop()
    h1_flat = h1.substitute({xp: Scalar.const(0)})
    x4 = Scalar.var("x4")
    for h in (h1_flat, h2):
        conn_f = levi_civita(L, h)
        assert curvature(L, conn_f).is_zero()
        system = soliton_system(L, h)
        lxf = lie_derivative_metric(system, X)
        if h is h1_flat:
            assert lxf == Mat4([["0", "-x4", "0", "3/2*x2"],
                                ["-x4", "0", "0", "-1/2*x1"],
                                ["0", "0", "0", "-x4"],
                                ["3/2*x2", "-1/2*x1", "-x4", "2*x3"]])
        ric_f = ricci(L, conn_f)
        assert ric_f.is_zero()
        sol_f = solve_soliton(system, EMPTY_DOMAIN, ric_f)
        ok, why = soliton_family_equal(
            system, ric_f, sol_f, [Scalar.const(0)] * 3 + [x4], -x4)
        assert ok, why
    report(6, "PASS", "worked-example metrics, connection, curvature, Ricci, "
                      "Lie derivative and solitons match the displays exactly")


def test_criterion_7_curvature_table():
    t0 = time.monotonic()
    reports = run_curvature_rows(CAT)
    elapsed = time.monotonic() - t0
    assert len(reports) == 115
    assert not any(r.status == "FAIL" for r in reports), [
        r.entry_id for r in reports if r.status == "FAIL"]
    warns = {r.entry_id for r in reports if r.status == "WARN"}
    assert warns == CURVATURE_WARNS
    # computed solitons satisfy the defining identity exactly, WARN or not
    for row in CAT.curvature_list():
        try:
            c = classify_row(row.algebra, row.metric, row.domain)
        except Exception:
            continue  # branching row; generic branch checked in the suite
        if c.soliton is not None:
            conn = levi_civita(row.algebra, row.metric)
            ric = ricci(row.algebra, conn)
            resid = soliton_residual(soliton_system(row.algebra, row.metric),
                                     c.soliton.x, c.soliton.lam, ric)
            assert resid.is_zero(), row.entry_id
    assert elapsed < 60.0, f"{elapsed:.2f}s"
    report(7, "PASS with WARN",
           f"115 curvature rows in {elapsed:.1f}s; {len(warns)} rows with "
           f"internally inconsistent printed columns report both values")


def test_criterion_8_equivalence_witness_replay():
    reports = run_equivalence_witnesses(CAT)
    assert not any(r.status == "FAIL" for r in reports)
    by_id = {r.entry_id: r for r in reports}

    def check(entry, name):
        rep = by_id[entry]
        c = next(c for c in rep.checks if c["name"] == name)
        assert c["ok"], (entry, name)

    # the four pullbacks are Lie isomorphisms with the printed structures
    for tag in ("C1_6", "C2_1_0", "C2_2_00", "C2_3_00"):
        check(f"witness/transport/{tag}", "lie_isomorphism")
        check(f"witness/transport/{tag}", "K_matches_printed")
    # normalizing families pull every omega_i back to omega0, identically
    # in the automorphism parameters (T3 through its corrected form)
    for tag in ("T1", "T2", "T4"):
        check(f"witness/normalize/{tag}", "pullback_is_omega0")
    check("witness/normalize/T3", "corrected_pullback_is_omega0")
    for tag in ("T1", "T2", "T3"):
        check(f"witness/normalize/{tag}", "normalized_K_matches_printed")
    # the equivalence witness and the non-equivalence residuals 2 and -2
    check("witness/equivalence/L", "L_carries_K04_to_K01")
    check("witness/nonequivalence/residuals", "L1_residual_is_2")
    check("witness/nonequivalence/residuals", "L2_residual_is_minus_2")
    warns = {r.entry_id for r in reports if r.status == "WARN"}
    assert warns == WITNESS_WARNS
    report(8, "PASS with WARN",
           "pullbacks, normalizations, the equivalence witness and the "
           "non-equivalence residuals verify exactly; three printed "
           "displays carry documented typos")


def test_criterion_9_property_suites():
    # exact identities catalog-wide; the full 32-sample eigenplane
    # cross-check runs in the property module with the same pinned seeds
    import random
    from pk4lie.liealg import nijenhuis

    rng = random.Random(0xACCE97)
    structures = CAT.structure_list()
    for st in structures:
        h = metric_from(st.omega, st.K)
        nabla = levi_civita(st.algebra, h).nabla
        assert levi_civita_axioms_hold(st.algebra, h, nabla)
        assert (st.K.transpose() @ h @ st.K + h).is_zero()
        assert omega_parallel(st.omega, nabla)
    # uniqueness by perturbation on a pinned sample
    for st in rng.sample(structures, 6):
        h = metric_from(st.omega, st.K)
        nabla = levi_civita(st.algebra, h).nabla
        assert not levi_civita_axioms_hold(st.algebra, h, perturbed(nabla, 1, 2, 3))
    # flat => Ricci flat across the curvature table
    for row in CAT.curvature_list():
        try:
            c = classify_row(row.algebra, row.metric, row.domain)
        except Exception:
            continue
        if c.flat:
            assert c.ricci_flat, row.entry_id
    # sampled eigenplane involutivity agrees with the Nijenhuis verdict
    for st in rng.sample(structures, 10):
        assert all(vis_zero(v)
                   for v in nijenhuis(st.algebra, st.K).values())
        for _, inv in involutive_samples(st.algebra, st.K, st.domain, rng, 8):
            assert inv, st.entry_id
    report(9, "PASS", "Levi-Civita axioms, uniqueness, parallel omega, "
                      "anti-isometry, flat=>Ricci-flat and the sampled "
                      "integrability cross-check hold catalog-wide")
