"""Suite-level regression: statuses of every catalog entry are frozen."""

from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as hst

from pk4lie import morphisms, scalars
from pk4lie.catalog import CurvatureRowEntry, StructureEntry, load_catalog
from pk4lie.liealg import LieAlgebra4
from pk4lie.linalg import PAIRS, Mat4
from pk4lie.morphisms import LinMap, check_lie_isomorphism, transport
from pk4lie.notation import parse_endo, parse_sym_form, parse_two_form
from pk4lie.phase_space import normal_form
from pk4lie.scalars import ParamDomain, parse_scalar
from pk4lie.structures import validate_para_kahler
from pk4lie.verify import (
    _verify_curvature_row, run_curvature_rows, run_equivalence_witnesses,
    run_iso_rows, run_phase_rows, run_scope, run_structures, run_symplectic,
)
from oracles import link_curvature_metrics, unreferenced_phase_rows
from test_catalog import _broken_copy

CAT = load_catalog()

# Rows whose printed verdict columns are internally inconsistent or clash
# with the worked computations; they carry notes and report both values.
CURVATURE_WARNS = {
    "curvature/r2r2_mu0/8",        # soliton printed with both signs flipped
    "curvature/r2p/7",             # duplicated eps14/eps41 term
    "curvature/r2p/8",             # duplicated eps14/eps41 term
    "curvature/r4_m1_0/3",         # flat column repeats the nonzero-beta row
    "curvature/r4_m1_m1/6:a",      # Ric=0 "No" yet a steady soliton at X=0
    "curvature/r4_m1_m1/6:b",
    "curvature/d4_1/2",            # Ric=0 "Yes" yet an Einstein constant
    "curvature/d4_2/7",            # missing x constraint; forced ric = 0
    "curvature/d4_2/10:a",         # Ric=0 "No" yet a steady soliton at X=0
    "curvature/d4_2/10:b",
    "curvature/d4_2/11:a",
    "curvature/d4_2/11:b",
    "curvature/d4_2/12",
}

WITNESS_WARNS = {
    "witness/transport/C2_3_00",   # printed pullback lists e24 for e14
    "witness/normalize/T3",        # printed T3 repeats T1's shape
    "witness/normalize/T4",        # printed K04 is not a conjugate of K4
}

# curvature rows whose literal metric matches no listed structure's metric
# under the documented renormalizations
UNLINKED_METRICS = {
    "curvature/d4_2/7", "curvature/d4_half/1", "curvature/d4_lam/4:b",
    "curvature/h4/1:a", "curvature/h4/1:b", "curvature/r2p/7",
    "curvature/r2p/8",
}


def test_symplectic_suite_all_pass():
    reports = run_symplectic(CAT)
    assert len(reports) == 24
    assert all(r.status == "PASS" for r in reports), [
        r.entry_id for r in reports if r.status != "PASS"]


def test_structures_suite_all_pass():
    reports = run_structures(CAT)
    assert len(reports) == 98
    assert all(r.status == "PASS" for r in reports), [
        r.entry_id for r in reports if r.status != "PASS"]


def test_phase_suite_all_pass():
    reports = run_phase_rows(CAT)
    assert len(reports) == 45
    assert all(r.status == "PASS" for r in reports), [
        r.entry_id for r in reports if r.status != "PASS"]


def test_iso_suite_all_pass():
    reports = run_iso_rows(CAT)
    assert len(reports) == 88
    assert all(r.status == "PASS" for r in reports), [
        (r.entry_id, r.status) for r in reports if r.status != "PASS"]


def _counting_transport(monkeypatch):
    """The map of each `transport` call the suites make; they import it
    from `morphisms` when they run."""
    calls = []

    def counted(m, *args, _orig=morphisms.transport):
        calls.append(m.matrix)
        return _orig(m, *args)
    monkeypatch.setattr(morphisms, "transport", counted)
    return calls


def test_iso_rows_pass_by_transport_where_the_full_validation_passes(monkeypatch):
    # the oracle of proof by transport: each of the 88 rows meets both
    # premises and passes with no pullback, and the pullback followed by the
    # full validation passes on each as well
    calls = _counting_transport(monkeypatch)
    derived = {r.entry_id: r for r in run_iso_rows(CAT)}
    assert calls == []
    nf = normal_form()
    for key, row in CAT.iso_rows.items():
        m = LinMap(row.matrix, row.target, row.source)
        inv = m.invertible(row.domain)
        assert inv.kind == "NonZero", key
        assert check_lie_isomorphism(m)[0], key
        full = validate_para_kahler(row.target, *transport(m, *nf),
                                    row.domain, key).failing()
        assert derived[key].checks[-1] == {"name": "transported_structure_valid",
                                           "ok": not full}, key
        assert not full, (key, full)


def _iso_copy(tmp_path, condition):
    """A checked catalog whose row iso_c/C2_2_0y has `condition`, with the
    row and the iso suite's reports by entry."""
    old = "condition: y != 0\nmap: f1=e4; f2=-y*e1; f3=e3; f4=-e2"
    cat = load_catalog(_broken_copy(tmp_path, "iso_c.txt", old,
                                    old.replace("y != 0", condition)))
    return cat.iso_rows["iso_c/C2_2_0y"], {r.entry_id: r for r in run_iso_rows(cat)}


def test_an_iso_row_with_an_uncertified_determinant_fails_invertible(tmp_path):
    # y - w*w > 0 keeps det P = y off zero, but `known_nonzero` does not see
    # it, and an uncertified determinant is GenericNonZero, with no sample
    # (exact domain decisions would certify it): the row fails, nothing is
    # carried over, and no other row fails
    row, reports = _iso_copy(tmp_path, "y - w*w > 0")
    inv = LinMap(row.matrix, row.target, row.source).invertible(row.domain)
    assert inv.kind == "GenericNonZero"
    rep = reports.pop("iso_c/C2_2_0y")
    assert rep.status == "FAIL"
    assert rep.failing() == ["invertible", "transported_structure_valid"]
    assert rep.checks[0]["detail"] == str(inv) == "GenericNonZero"
    assert rep.checks[-1]["detail"] == "not carried over: invertible failed"
    assert all(r.status == "PASS" for r in reports.values())


def test_an_iso_row_with_a_map_singular_on_its_domain_fails_invertible(tmp_path):
    # det P = y vanishes at (y, w) = (0, 1), inside y*y + w*w > 0: det P has
    # no certificate, and the row fails
    _, reports = _iso_copy(tmp_path, "y*y + w*w > 0")
    rep = reports["iso_c/C2_2_0y"]
    assert rep.failing() == ["invertible", "transported_structure_valid"]
    assert rep.checks[0]["detail"] == "GenericNonZero"


def _iso_row(L, domain=ParamDomain.parse(""), matrix=Mat4.identity(), target=None):
    """An iso row whose map `matrix` carries `target` (L by default) onto L."""
    return SimpleNamespace(raw={}, source=L, target=target or L, matrix=matrix,
                           domain=domain)


def test_an_iso_row_whose_source_fails_carries_its_failures_over():
    # the identity map of an algebra on which the normal form is not closed:
    # the row fails as its source does
    [rep] = run_iso_rows(SimpleNamespace(
        iso_rows={"iso/identity": _iso_row(LieAlgebra4.parse("[e1,e3]=e2"))}))
    assert rep.failing() == ["transported_structure_valid"]
    assert rep.checks[-1]["detail"] == "omega_closed,nabla_K_zero"


def test_an_iso_row_that_is_no_lie_isomorphism_carries_nothing_over():
    row = _iso_row(LieAlgebra4.parse("[e1,e2]=e3"),
                   target=LieAlgebra4.parse("[e1,e2]=e4"))
    [rep] = run_iso_rows(SimpleNamespace(iso_rows={"iso/not-iso": row}))
    assert rep.failing() == ["lie_isomorphism", "transported_structure_valid"]
    assert rep.checks[-1]["detail"] == "not carried over: lie_isomorphism failed"


# algebras on which the normal form fails, next to the phase rows' algebras
NORMAL_FORM_FAILS = [LieAlgebra4.parse(t) for t in (
    "[e1,e3]=e2", "[e1,e2]=e3; [e3,e4]=e1", "[e1,e4]=x*e1; [e2,e3]=e4")]
PHASE_ROWS = list(CAT.phase_rows.values())
SMALL = hst.integers(-2, 2)


@settings(max_examples=40, deadline=None)
@given(hst.booleans(), hst.integers(0, 10 ** 6),
       hst.lists(SMALL, min_size=16, max_size=16))
def test_a_carried_over_verdict_matches_the_pullback_validated_in_full(
        fails, pick, entries):
    # The oracle is the path the iso suite no longer takes: pull the normal
    # form back along the map and validate it on the target.  The target is
    # L pulled back along a constant invertible P, so P is an exact Lie
    # isomorphism onto L with a certified determinant.
    if fails:
        L, dom = NORMAL_FORM_FAILS[pick % len(NORMAL_FORM_FAILS)], ParamDomain.parse("")
    else:
        row = PHASE_ROWS[pick % len(PHASE_ROWS)]
        L, dom = row.algebra, row.domain
    p = Mat4([entries[4 * r:4 * r + 4] for r in range(4)])
    assume(not p.det().is_zero)
    cols, p_inv = p.transpose().rows, p.inverse()
    target = LieAlgebra4({(i, j): p_inv.apply(L.bracket(cols[i], cols[j]))
                          for i, j in PAIRS})
    [rep] = run_iso_rows(SimpleNamespace(
        iso_rows={"iso/drawn": _iso_row(L, dom, p, target)}))
    full = validate_para_kahler(target, *transport(LinMap(p, target, L), *normal_form()),
                                dom).failing()
    assert rep.checks[-1] == {"name": "transported_structure_valid", "ok": not full,
                              **({"detail": ",".join(full)} if full else {})}
    assert rep.failing() == (["transported_structure_valid"] if full else [])


def test_curvature_suite_statuses_frozen():
    reports = run_curvature_rows(CAT)
    assert len(reports) == 115
    assert not any(r.status == "FAIL" for r in reports), [
        r.entry_id for r in reports if r.status == "FAIL"]
    warns = {r.entry_id for r in reports if r.status == "WARN"}
    assert warns == CURVATURE_WARNS
    for r in reports:
        if r.status == "WARN":
            assert r.notes  # both values are reported, never overwritten


def test_witness_suite_statuses_frozen():
    reports = run_equivalence_witnesses(CAT)
    assert not any(r.status == "FAIL" for r in reports)
    warns = {r.entry_id for r in reports if r.status == "WARN"}
    assert warns == WITNESS_WARNS


def test_erratum_note_does_not_hide_a_failed_check(monkeypatch):
    # an erratum explains its own check only: with every Lie isomorphism
    # check of the witness suite failing, the rows that carry an erratum
    # fail too, and so does the equivalence witness, reported as a row.
    # The suite imports the check from `morphisms` when it runs.
    monkeypatch.setattr(morphisms, "check_lie_isomorphism", lambda m: (False, {}))
    statuses = {r.entry_id: r.status for r in run_equivalence_witnesses(CAT)}
    for rid in WITNESS_WARNS | {"witness/equivalence/L"}:
        assert statuses[rid] == "FAIL", rid


def test_degenerate_metric_fails_a_noted_curvature_row():
    row = CAT.curvature_rows["curvature/d4_1/2"]
    assert row.notes
    broken = CurvatureRowEntry(
        row.entry_id, row.raw, row.variant, row.algebra,
        parse_sym_form("eps11+eps22"), row.domain, row.expect_flat,
        row.expect_ricci_flat, row.expect_x, row.expect_lam, row.notes)
    rep = _verify_curvature_row(broken)
    assert rep.status == "FAIL"
    assert [c["name"] for c in rep.checks if not c["ok"]] == [
        "metric_nondegenerate"]
    assert rep.notes == row.notes


def test_an_ambiguous_generic_branch_fails_its_row():
    # The solve first branches on the pivot -y; on y != 0 its consistency
    # then depends on (-x+y)/y, which has no single root to split at.
    row = CAT.curvature_rows["curvature/d4_1/2"]
    broken = CurvatureRowEntry(
        row.entry_id, row.raw, row.variant,
        LieAlgebra4.parse("[e1,e2]=e2; [e3,e4]=e4"),
        parse_sym_form("x*eps11+eps22+y*eps33+eps44"), ParamDomain.parse(""),
        False, False, None, None, row.notes)
    rep = _verify_curvature_row(broken)
    assert rep.status == "FAIL"
    assert rep.checks == [{"name": "classified", "ok": False,
                           "detail": "rank ambiguous: Scalar((-x+y)/y)"}]


def test_an_unsatisfiable_domain_fails_its_row():
    # The checked load refuses such a row; a row built with one after the
    # load fails on its own, neither passing vacuously nor raising
    # DomainUnsatisfiable from a sampled check (omega scaled by y has a
    # Pfaffian that only sampling can decide).
    st = CAT.structures["structures/r2r2_mupos/K1"]
    empty = ParamDomain.parse("mu > 0, mu < 0")
    rows = [StructureEntry(st.entry_id, st.raw, st.variant, st.algebra, omega,
                           st.K, empty, st.symplectic_ref)
            for omega in (st.omega, st.omega.scale(parse_scalar("y")))]
    for rep in run_structures(SimpleNamespace(structure_list=lambda: rows)):
        assert rep.status == "FAIL"
        assert rep.checks == [{"name": "domain_satisfiable", "ok": False,
                               "detail": f"no point of {empty!r} found"}]
    # a noted curvature row: its note does not explain an empty domain
    row = CAT.curvature_rows["curvature/d4_1/2"]
    assert row.notes
    empty = ParamDomain.parse("x > 0, x < 0")
    broken = CurvatureRowEntry(
        row.entry_id, row.raw, row.variant, row.algebra, row.metric, empty, row.expect_flat, row.expect_ricci_flat,
        row.expect_x, row.expect_lam, row.notes)
    rep = _verify_curvature_row(broken)
    assert rep.status == "FAIL"
    assert rep.failing() == ["domain_satisfiable"]
    assert rep.notes == row.notes


def test_no_check_samples_even_on_uncertified_input(monkeypatch, tmp_path):
    # With the sampling loop and the sampling oracle made to raise, inputs
    # that no certificate covers fail on the checks they failed when the
    # Pfaffian and the signature were sampled, and also on
    # signature_neutral where a sample passed it.
    def no_sampling(*args, **kwargs):
        raise AssertionError("a check sampled")
    monkeypatch.setattr(ParamDomain, "sampled_values", no_sampling)
    monkeypatch.setattr(scalars, "identity_test", no_sampling)
    # omega scaled by y: y = 0 lies in the domain, so det omega has no
    # certificate
    st = CAT.structures["structures/r2r2_mupos/K1"]
    row = StructureEntry(st.entry_id, st.raw, st.variant, st.algebra,
                         st.omega.scale(parse_scalar("y")), st.K, st.domain,
                         st.symplectic_ref)
    [rep] = run_structures(SimpleNamespace(structure_list=lambda: [row]))
    assert rep.status == "FAIL"
    assert rep.failing() == ["omega_nondegenerate", "signature_neutral"]
    assert rep.checks[3]["detail"] == "GenericNonZero"
    # the three inputs of test_structures.py's test_certificate_* tests
    k22 = parse_endo("E11+E22-E33-E44")
    abelian = LieAlgebra4({})
    for omega, K, failed, premises in (
            (Mat4([["1+x*x", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
             parse_endo("E11+E22+E33-E44"),
             ["omega_antisymmetric", "eigenranks_2_2", "signature_neutral",
              "nabla_K_zero"], "omega_antisymmetric,eigenranks_2_2"),
            (Mat4(k22.rows), k22,
             ["omega_antisymmetric", "signature_neutral", "nabla_K_zero"],
             "omega_antisymmetric"),
            (parse_two_form("x*e13+e24"), k22,
             ["omega_nondegenerate", "signature_neutral"], "omega_nondegenerate")):
        rep = validate_para_kahler(abelian, omega, K)
        assert rep.status == "FAIL" and rep.failing() == failed
        assert {"name": "signature_neutral", "ok": False,
                "detail": f"not certified: {premises} failed"} in rep.checks
    # an iso row whose det P vanishes inside its domain
    _, reports = _iso_copy(tmp_path, "y*y + w*w > 0")
    rep = reports["iso_c/C2_2_0y"]
    assert rep.status == "FAIL"
    assert rep.failing() == ["invertible", "transported_structure_valid"]


def test_metric_linkage_frozen():
    links = link_curvature_metrics(CAT)
    unmatched = {k for k, v in links.items() if v is None}
    assert unmatched == UNLINKED_METRICS
    # the worked example's two metrics resolve to their structures
    assert links["curvature/d4_half/2:a"] == "structures/d4_half/K2"


def test_reports_deterministic_for_fixed_seed():
    a = [r.to_dict() for r in run_symplectic(CAT)]
    b = [r.to_dict() for r in run_symplectic(CAT)]
    assert a == b
    c = [r.to_dict() for r in run_scope(CAT, "curvature")]
    d = [r.to_dict() for r in run_scope(CAT, "curvature")]
    assert c == d


def test_unreferenced_phase_rows_reported():
    # two bracket families never appear as a source in the isomorphism
    # tables; the catalog reports them rather than inventing rows
    assert unreferenced_phase_rows(CAT) == ["phase_b/B1_m1_2",
                                            "phase_b/B3_half_3"]


def test_run_scope_all():
    reports = run_scope(CAT, "symplectic")
    assert reports
    with pytest.raises(ValueError):
        run_scope(CAT, "nonsense")
