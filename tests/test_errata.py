"""The errata of the catalog as checked claims.

Every `notes:` line of `structures.txt` says that the printed K differs
from the stored one and why the printed one fails.  ERRATA writes each
printed K out from its note, with the validation checks that it fails:
every other check must pass, and the stored K must pass them all.
COLUMN_ERRATA does the same for notes of other sections, on the suite
report of a row whose column is printed text instead of the stored one.
A noted curvature row either WARNs, so that a failed check reads its note,
or its note is a claim checked here, and so is every other `notes:` line
of the data files.  The errata of the worked equivalence example live in
`verify`, and WITNESS_ERRATA checks each the same way.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from pk4lie.catalog import (
    DATA_DIR, CurvatureRowEntry, IsoRowEntry, _map_matrix, load_catalog,
)
from pk4lie.cli import main
from pk4lie.morphisms import LinMap, check_lie_isomorphism
from pk4lie.notation import parse_endo, parse_sym_form
from pk4lie.scalars import DenominatorVanishes, Param, ParamDomain, Scalar
from pk4lie.structures import metric_from, validate_para_kahler
from pk4lie.verify import (
    C2_3_00_OMEGA_ERRATUM, T3_PULLBACK_ERRATUM, T4_K0_ERRATUM, run_curvature_rows,
    run_iso_rows, run_scope,
)

NOT_INTEGRABLE = ["nijenhuis_zero", "nabla_K_zero"]
NOT_AN_INVOLUTION = ["K_squares_to_id", "eigenranks_2_2", "nijenhuis_zero",
                     "metric_symmetric"]

# entry -> (the printed K, the checks it fails)
ERRATA = {
    # printed with -2*x*E14
    "structures/d4_2/w2/K1": ("-E11-E22+(1/x)*E32+E33-2*x*E14+E44", NOT_INTEGRABLE),
    # printed with 2*E24
    "structures/d4_2/w2/K2": ("-E11-E22-2*E31+x*E32+E33+2*E24+E44", NOT_AN_INVOLUTION),
    "structures/d4_2/w2/K3": ("E11+E22-2*E31+x*E32-E33+2*E24-E44", NOT_AN_INVOLUTION),
    # printed transposed: E12, E32, E14, E34 for E21, E23, E41, E43
    "structures/d4_2/w2/K4": ("E11-E22+x*E12+x*E32+E33+x*E14+x*E34-E44", NOT_INTEGRABLE),
    # printed with -2*x*E43
    "structures/d4_2/w2/K7": ("-E11+2*x*E21+E22-2*x*E23-E33-2*x*E41-2*x*E43+E44",
                              ["nijenhuis_zero", "metric_symmetric"]),
    # printed with -2*x*E14
    "structures/d4_2/w3/K1": ("-E11-E22+(1/x)*E32+E33-2*x*E14+E44", NOT_INTEGRABLE),
    # printed with x*E14
    "structures/d4_2/w3/K2": ("-E11+E22-E33+x*E14+E44", NOT_INTEGRABLE),
    "structures/d4_2/w3/K3": ("E11-E22+x*E23+E33-(1/2)*x*E14-E44", NOT_INTEGRABLE),
    # printed as -+E11+x*E12+-E22+E33-E44: the bottom signs
    "structures/d4_lam/K6:b": ("E11+x*E12-E22+E33-E44", NOT_INTEGRABLE),
}


@pytest.fixture(scope="module")
def cat():
    return load_catalog(check=False)


@pytest.mark.parametrize("key", list(ERRATA))
def test_the_printed_K_fails_as_its_note_says(cat, key):
    printed, fails = ERRATA[key]
    st = cat.structures[key]
    report = validate_para_kahler(st.algebra, st.omega, parse_endo(printed),
                                  st.domain, key)
    assert report.failing() == fails
    assert validate_para_kahler(st.algebra, st.omega, st.K, st.domain,
                                key).status == "PASS"


# entry -> (column, stored text, printed text, the checks the printed fails)
COLUMN_ERRATA = {
    # "printed f1 = -e3-e4; only -e3+e4 satisfies the bracket relations"
    "iso_b/B5_3p_x": ("map", "f1=-e3+e4", "f1=-e3-e4",
                      ["lie_isomorphism", "transported_structure_valid"]),
    # "printed with -eps23; ... only that coefficient reproduces the
    # printed columns"
    "curvature/r2r2_mu0/5": ("metric", "-2*eps23", "-eps23",
                             ["flat", "ricci_flat", "soliton_family"]),
}


def _report(cat, key, text):
    """The suite report of the row `key` with its erratum column read from
    `text`."""
    section = key.split("/")[0]
    if section == "iso_b":
        r = cat.iso_rows[key]
        row = IsoRowEntry(key, r.raw, r.source, _map_matrix(text), r.target, r.domain)
        [rep] = run_iso_rows(SimpleNamespace(iso_rows={key: row}))
    else:
        r = cat.curvature_rows[key]
        row = CurvatureRowEntry(key, r.raw, r.variant, r.algebra, parse_sym_form(text),
                                r.domain, r.expect_flat, r.expect_ricci_flat,
                                r.expect_x, r.expect_lam, r.notes)
        [rep] = run_curvature_rows(SimpleNamespace(curvature_list=lambda: [row]))
    return rep


@pytest.mark.parametrize("key", list(COLUMN_ERRATA))
def test_the_printed_column_fails_as_its_note_says(cat, key):
    column, stored, printed, fails = COLUMN_ERRATA[key]
    text = cat.raw_entries[key].get(column)
    assert text.count(stored) == 1
    assert _report(cat, key, text.replace(stored, printed)).failing() == fails
    assert _report(cat, key, text).status == "PASS"


def test_every_structure_note_has_an_erratum(cat):
    noted = {raw.entry_id for raw in cat.raw_entries.values()
             if raw.entry_id.startswith("structures/") and raw.get("notes")}
    assert noted == {key.split(":")[0] for key in ERRATA}
    text = (DATA_DIR / "structures.txt").read_text()
    assert text.count("\nnotes:") == len(ERRATA)


# the noted curvature rows that PASS, besides COLUMN_ERRATA's, each with a
# test of its note below
NOTED_PASSING_ROWS = {"curvature/d4_2/5:a", "curvature/d4_2/5:b",
                      "curvature/d4_half/1", "curvature/h4/1:a", "curvature/h4/1:b"}


def test_every_noted_curvature_row_warns_or_has_an_erratum(cat):
    noted = [row for row in cat.curvature_list() if row.notes]
    reports = run_curvature_rows(SimpleNamespace(curvature_list=lambda: noted))
    passing = {r.entry_id for r in reports if r.status != "WARN"}
    assert len(noted) == 19
    assert passing == NOTED_PASSING_ROWS | {
        key for key in COLUMN_ERRATA if key.startswith("curvature/")}


def _negate_eps34(h):
    """h with the sign of its eps34 coefficient flipped."""
    return h - parse_sym_form("eps34").scale(h.rows[2][3] + h.rows[2][3])


@pytest.mark.parametrize("key", ["curvature/d4_2/5:a", "curvature/d4_2/5:b"])
def test_a_1_over_x_coefficient_forces_the_x_constraint(cat, capsys, key):
    # "the x constraint is forced by the 1/x coefficient"
    assert repr(cat.curvature_rows[key].domain) == "ParamDomain(x != 0)"
    assert main(["geometry", key, "--set", "x=0"]) == 1
    assert "error:  assignment makes a denominator vanish\n" in capsys.readouterr().out


def test_the_worked_metric_h1_carries_plus_eps34(cat):
    # "the worked metric h1 carries +eps34 where this row prints -eps34"
    st = cat.structures["structures/d4_half/K1"]
    h1 = metric_from(st.omega, st.K)
    assert h1 == parse_sym_form("eps12+x*eps33+eps34")
    assert _negate_eps34(h1) == cat.curvature_rows["curvature/d4_half/1"].metric


@pytest.mark.parametrize("variant", ["a", "b"])
def test_the_h4_row_prints_eps34_with_the_other_sign(cat, variant):
    # "the linked structure's metric is +-(eps12+eps34); this row prints -eps34"
    st = cat.structures[f"structures/h4/K1:{variant}"]
    h = metric_from(st.omega, st.K)
    assert h == parse_sym_form("-eps12-eps34")
    printed = cat.curvature_rows[f"curvature/h4/1:{variant}"].metric
    assert printed in (parse_sym_form("eps12-eps34"), parse_sym_form("-eps12+eps34"))
    assert printed not in (h, -h)
    assert _negate_eps34(printed) in (h, -h)


@pytest.mark.parametrize("key, pivot", [
    ("structures/d4_2/w2/K2", "Scalar(x)"), ("structures/d4_2/w2/K3", "Scalar(-x)")])
def test_a_printed_non_involution_names_its_undecided_pivot(cat, key, pivot):
    # K*K != Id, so the eigenranks come from rank_on_domain, whose pivot
    # is undecided on the row's domain
    st = cat.structures[key]
    report = validate_para_kahler(st.algebra, st.omega, parse_endo(ERRATA[key][0]),
                                  st.domain, key)
    check = next(c for c in report.checks if c["name"] == "eigenranks_2_2")
    assert check == {"name": "eigenranks_2_2", "ok": False, "detail": pivot}


@pytest.mark.parametrize("member, family, param, value", [
    ("alg/r4_m1_m1", "alg/r4_m1_beta", "beta", -1),  # "the beta family at beta=-1"
    ("alg/d4_half", "alg/d4_lam", "lam", Fraction(1, 2)),  # "... at lam=1/2"
])
def test_a_member_algebra_is_its_family_at_the_noted_value(cat, member, family,
                                                           param, value):
    L = cat.algebras[family].algebra.substitute({Param(param): Scalar.const(value)})
    assert L.serialize() == cat.algebras[member].algebra.serialize()


def test_alpha_0_makes_a_c1_3_coefficient_vanish(cat):
    # "the alpha constraint is forced by the 1/alpha coefficients"
    row = cat.phase_rows["phase_c/C1_3"]
    assert repr(row.domain) == "ParamDomain(alpha != 0)"
    with pytest.raises(ZeroDivisionError):
        row.algebra.substitute({Param("alpha"): Scalar.const(0)})


def test_x_equal_z_is_excluded_by_the_c3_1_beta_map_alone(cat):
    # "x=z is excluded by the printed map's x-z denominator although the
    # ratio condition alone would allow it"
    x, y, z = Param("x"), Param("y"), Param("z")
    point = {x: Fraction(1), y: Fraction(1), z: Fraction(1)}
    with pytest.raises(DenominatorVanishes):
        cat.iso_rows["iso_c/C3_1_beta"].matrix.eval(point)
    ratio_only = ParamDomain.parse("z != 0, z*(z-x) >= 0, z*(x+z) > 0")
    assert all(c.holds(c.poly.eval(point)) for c in ratio_only.constraints)


def _holds(row, matrix=None, source=None):
    """Whether the row's map, or `matrix`, carries its target onto its source
    algebra, or onto `source`."""
    m = LinMap(row.matrix if matrix is None else matrix, row.target,
               row.source if source is None else source)
    return check_lie_isomorphism(m)[0]


def test_the_b1_0_maps_and_their_source_rows(cat):
    # "printed with a superscript source label that has no bracket row of
    # its own": B1_0 is the only B1_0 phase row
    assert [k for k in cat.phase_rows if k.startswith("phase_b/B1_0")] == [
        "phase_b/B1_0"]
    family = cat.phase_rows["phase_b/B1_0"].algebra
    # "on the stored family the map holds on the x=0 slice only"
    for key in ("iso_b/B1_0_1", "iso_b/B1_0_3"):
        row = cat.iso_rows[key]
        assert cat.raw_entries[key].get("source_subst") == "x=0"
        assert _holds(row)
        assert not _holds(row, _map_matrix(cat.raw_entries[key].get("map")), family)
    # the second map holds on the whole family
    row = cat.iso_rows["iso_b/B1_0_2"]
    assert row.source is family and _holds(row)


@pytest.mark.parametrize("key, other", [
    # "on this branch the middle columns swap": the positive branch's map
    # fails on the negative one ...
    ("iso_b/B1_alpha_1_lt", "iso_b/B1_alpha_1_gt"),
    ("iso_b/B1_alpha_2_lt", "iso_b/B1_alpha_2_gt"),
    # ... and "the printed modulus splits into the two sign branches": the
    # negative branch's map fails on the positive one
    ("iso_b/B1_alpha_1_gt", "iso_b/B1_alpha_1_lt"),
])
def test_each_modulus_branch_needs_its_own_map(cat, key, other):
    row = cat.iso_rows[key]
    assert _holds(row)
    assert not _holds(row, cat.iso_rows[other].matrix)


# entries whose note is a claim checked by a test of this file, besides
# ERRATA, COLUMN_ERRATA and NOTED_PASSING_ROWS
CHECKED_NOTES = {
    "alg/r4_m1_m1", "alg/d4_half", "phase_c/C1_3", "iso_c/C3_1_beta",
    "iso_b/B1_0_1", "iso_b/B1_0_2", "iso_b/B1_0_3", "iso_b/B1_alpha_1_gt",
    "iso_b/B1_alpha_1_lt", "iso_b/B1_alpha_2_lt",
}


def test_every_note_has_an_erratum_or_a_warn_check(cat):
    noted = {key for key, raw in cat.raw_entries.items() if raw.get("notes")}
    assert len(noted) == sum(path.read_text().count("\nnotes:")
                             for path in DATA_DIR.glob("*.txt"))
    checked = {key.split(":")[0] for key in
               [*ERRATA, *COLUMN_ERRATA, *NOTED_PASSING_ROWS, *CHECKED_NOTES]}
    statuses = {}
    for rep in run_scope(cat, "all"):
        statuses.setdefault(rep.entry_id.split(":")[0], set()).add(rep.status)
    warned = {key for key, seen in statuses.items() if seen == {"WARN"}}
    assert checked <= noted
    assert noted - checked <= warned


# erratum of the worked example -> (its witness row, the check it explains,
# that check's detail)
WITNESS_ERRATA = {
    C2_3_00_OMEGA_ERRATUM: ("witness/transport/C2_3_00", "omega_matches_printed",
                            "computed -e12+e14+e34, printed -e12+e24+e34"),
    T3_PULLBACK_ERRATUM: ("witness/normalize/T3", "pullback_is_omega0",
                          "T*omega_i = -e12-e34"),
    # the computed K04 keeps +1 at (1,1), where the printed one has -1
    T4_K0_ERRATUM: ("witness/normalize/T4", "normalized_K_matches_printed",
                    "computed E11-E22+E33-E44, printed -E11+E22+E33-E44"),
}


@pytest.mark.parametrize("erratum", list(WITNESS_ERRATA), ids=["C2_3_00", "T3", "T4"])
def test_each_witness_erratum_explains_the_one_check_that_fails(cat, erratum):
    entry, check, detail = WITNESS_ERRATA[erratum]
    [rep] = [r for r in run_scope(cat, "witnesses") if r.entry_id == entry]
    assert (rep.status, rep.notes) == ("WARN", erratum)
    names = [c["name"] for c in rep.checks]
    assert rep.failing() == [check]
    assert rep.checks[names.index(check)]["detail"] == detail
    if erratum == T3_PULLBACK_ERRATUM:
        # T2's shape carries omega_3 to omega0
        assert names[names.index(check) + 1] == "corrected_pullback_is_omega0"
