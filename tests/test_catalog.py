import shutil

import pytest

from pk4lie import catalog
from pk4lie.catalog import (
    DATA_DIR, LoadAssertionFailed, expand_variants, load_catalog,
    parse_entries,
)
from pk4lie.cli import main
from pk4lie.liealg import LieAlgebra4
from pk4lie.notation import (
    emit_endo, emit_sym_form, emit_two_form, parse_endo, parse_two_form,
)
from pk4lie.scalars import Param, ParseError, Scalar, ScalarError, parse_scalar

CAT = load_catalog()


def test_load_counts_are_regression_constants():
    # counted once from the source tables during transcription
    assert len(CAT.algebras) == 19            # 17 families + 2 derived members
    assert len([k for k in CAT.raw_entries if k.startswith("symplectic/")]) == 19
    assert len(CAT.symplectic) == 24          # sign variants expanded
    assert len(CAT.structures) == 98          # all sign variants expanded
    assert len([k for k in CAT.phase_rows if k.startswith("phase_b/")]) == 23
    assert len([k for k in CAT.phase_rows if k.startswith("phase_c/")]) == 22
    assert len([k for k in CAT.iso_rows if k.startswith("iso_b/")]) == 46
    assert len([k for k in CAT.iso_rows if k.startswith("iso_c/")]) == 42
    assert len([k for k in CAT.raw_entries if k.startswith("curvature/")]) == 78
    assert len(CAT.curvature_rows) == 115     # sign variants expanded


def test_load_runs_all_assertions():
    # Jacobi, antisymmetry, satisfiability, cross-references
    read_every_section(load_catalog(check=True))


def test_a_checked_load_builds_one_algebra_per_parse_or_substitution(monkeypatch):
    # Rows own their domains, so a row takes the algebra it names as it is:
    # only a parse or a substitution makes a LieAlgebra4.  An iso row's
    # `radical` column substitutes into its source like `source_subst`.
    built = []

    def counted(self, *args, _orig=LieAlgebra4.__init__):
        built.append(self)
        _orig(self, *args)
    monkeypatch.setattr(LieAlgebra4, "__init__", counted)
    cat = load_catalog()
    substitutions = sum(bool(row.raw.get("subst")) for rows in (
        cat.structures, cat.curvature_rows, cat.iso_rows) for row in rows.values())
    substitutions += sum(bool(row.raw.get("source_subst") or row.raw.get("radical"))
                         for row in cat.iso_rows.values())
    assert substitutions == 81
    assert len(built) == len(cat.algebras) + len(cat.phase_rows) + substitutions


def test_a_row_without_subst_shares_the_algebra_it_names():
    def named(ref):
        return CAT.algebras[ref].algebra

    for sym in CAT.symplectic.values():
        assert sym.algebra is named(sym.raw.get("alg")), sym.entry_id
    shared = 0
    for st in CAT.structures.values():
        # a structure's `alg` names the algebra its substitution gives
        if st.raw.get("alg") or not st.raw.get("subst"):
            ref = st.raw.get("alg") or CAT.raw_entries[st.symplectic_ref].get("alg")
            assert st.algebra is named(ref), st.entry_id
            shared += 1
    for row in CAT.curvature_rows.values():
        if not row.raw.get("subst"):
            assert row.algebra is named(row.raw.get("alg")), row.entry_id
            shared += 1
    for row in CAT.iso_rows.values():
        if not (row.raw.get("source_subst") or row.raw.get("radical")):
            assert row.source is CAT.phase_rows[row.source_ref].algebra, row.entry_id
            shared += 1
        if not row.raw.get("subst"):
            assert row.target is named(row.target_ref), row.entry_id
            shared += 1
    # of the 389 algebras of structure, curvature and iso rows
    assert shared == 320


def test_dump_is_byte_identical():
    for entry_id in ("alg/rh3", "structures/d4_half/K1", "iso_b/B2",
                     "curvature/d4_half/1"):
        dumped = CAT.dump(entry_id)
        fname = {"alg": "algebras.txt", "structures": "structures.txt",
                 "iso_b": "iso_b.txt", "curvature": "curvature.txt"}[
                     entry_id.split("/")[0]]
        assert dumped.rstrip() + "\n" in (DATA_DIR / fname).read_text()
        # variants dump their parent literally
        if entry_id in ("structures/d4_half/K1",):
            assert CAT.dump(entry_id + ":a") == dumped


def test_expand_variants_counts():
    raw = CAT.raw_entries["structures/rh3/K2"]
    assert len(expand_variants(raw, ("omega", "K"))) == 2
    raw = CAT.raw_entries["structures/rh3/K1"]
    assert len(expand_variants(raw, ("omega", "K"))) == 1


def test_expand_variants_covary():
    # -+(E11+E22+-E23-E33-E44): top signs -(..+..), bottom +(..-..)
    a = CAT.structures["structures/rr3_m1/K1:a"].K
    b = CAT.structures["structures/rr3_m1/K1:b"].K
    assert a == parse_endo("-(E11+E22+E23-E33-E44)")
    assert b == parse_endo("E11+E22-E23-E33-E44")


def test_structure_omega_matches_its_symplectic_row():
    # checked at load; spot-check the mu = 0 derived rows
    st = CAT.structures["structures/r2r2_mu0/K3"]
    assert st.omega == parse_two_form("e12+e34")
    assert st.algebra.serialize() == "[e1,e2]=e2; [e3,e4]=e4"


def test_thm_entries_reference_existing_pairs():
    for st in CAT.structures.values():
        assert st.symplectic_ref in CAT.raw_entries
    for row in CAT.iso_rows.values():
        assert row.source_ref in CAT.phase_rows
        assert row.target_ref in CAT.algebras


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_entries("", "empty")
    with pytest.raises(ParseError):
        parse_entries("stray line\n", "stray")
    with pytest.raises(ParseError):
        parse_entries("[x/y]\nbrackets\n", "noval")


ROW_SECTIONS = ("algebras", "symplectic", "structures", "phase_rows", "iso_rows",
                "curvature_rows")


def read_every_section(cat):
    """Read a row of each section: a checked catalog asserts a section on
    the first read of one of its rows."""
    for name in ROW_SECTIONS:
        rows = getattr(cat, name)
        rows[next(iter(rows))]


def _broken_copy(tmp_path, fname, old, new):
    data = tmp_path / "data"
    shutil.copytree(DATA_DIR, data)
    path = data / fname
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return data


D4_HALF_1 = ("[curvature/d4_half/1]\nalg: alg/d4_half\ndomain: x != 0\n"
             "metric: eps12+x*eps33-eps34\n")


@pytest.mark.parametrize("new, error", [
    (D4_HALF_1.replace("-eps34", "-eps35"), ParseError),
    (D4_HALF_1.replace("x != 0", "x > 0, x < 0"), LoadAssertionFailed),
], ids=["metric", "domain"])
def test_a_broken_row_fails_only_the_scopes_that_read_it(tmp_path, monkeypatch,
                                                         capsys, new, error):
    # curvature/d4_half/1 is read by the curvature suite alone
    monkeypatch.setattr(catalog, "DATA_DIR",
                        _broken_copy(tmp_path, "curvature.txt", D4_HALF_1, new))
    assert main(["verify", "symplectic"]) == 0
    assert main(["verify", "curvature"]) == 2
    assert main(["verify", "all"]) == 2
    capsys.readouterr()
    cat = load_catalog()
    assert len(list(cat.symplectic.values())) == 24
    with pytest.raises(error):
        cat.curvature_rows[next(iter(cat.curvature_rows))]


def test_the_witness_suite_reads_algebras_through_the_iso_targets(tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.setattr(catalog, "DATA_DIR", _broken_copy(
        tmp_path, "algebras.txt", "domain: beta >= -1, beta < 1\n",
        "domain: beta > 1, beta < -1\n"))
    assert main(["verify", "phase"]) == 0
    assert main(["verify", "witnesses"]) == 2
    assert capsys.readouterr().err == "error: alg/r4_m1_beta: domain unsatisfiable\n"


def test_a_failed_section_check_fails_every_later_read(tmp_path):
    data = _broken_copy(tmp_path, "curvature.txt", D4_HALF_1,
                        D4_HALF_1.replace("x != 0", "x > 0, x < 0"))
    cat = load_catalog(data)
    # membership, len and the keys build and check nothing
    assert "curvature/d4_half/1" in cat.curvature_rows
    assert len(cat.curvature_rows) == len(list(cat.curvature_rows)) == 115
    for _ in range(2):
        with pytest.raises(LoadAssertionFailed) as e:
            cat.curvature_rows["curvature/rh3/1"]
        assert e.value.entry_id == "curvature/d4_half/1"
        assert e.value.check == "domain unsatisfiable"


@pytest.mark.parametrize("fname, old, new, scope, row", [
    ("structures.txt", "subst: lam=1/2", "subst: lam=1", "structures",
     "structures/d4_half/K1"),
    ("structures.txt", "subst: lam=1/2", "subst: lam", "structures",
     "structures/d4_half/K1"),
    ("curvature.txt", D4_HALF_1, D4_HALF_1.replace("-eps34", "-eps35"), "curvature",
     "curvature/d4_half/1"),
    ("curvature.txt", D4_HALF_1, D4_HALF_1.replace("alg/d4_half", "alg/nope"),
     "curvature", "curvature/d4_half/1"),
    ("iso_b.txt", "map: f1=e1; f2=-(x/2)*e1+e3; f3=e4; f4=e2\n",
     "map: f1=e1; f2=e3; f3=e4; f4=e24\n", "iso", "iso_b/B1_alpha_1_in"),
], ids=["excluded-value", "subst-without-value", "metric", "algebra", "map-column"])
def test_a_broken_row_is_a_usage_error_that_names_the_row(tmp_path, monkeypatch, capsys,
                                                          fname, old, new, scope, row):
    monkeypatch.setattr(catalog, "DATA_DIR", _broken_copy(tmp_path, fname, old, new))
    assert main(["verify", scope]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {row}: ")
    assert err.count(row) == 1


def test_a_row_without_a_required_column_names_the_row_and_column(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.setattr(catalog, "DATA_DIR", _broken_copy(
        tmp_path, "curvature.txt", D4_HALF_1,
        D4_HALF_1.replace("metric: eps12+x*eps33-eps34\n", "")))
    assert main(["verify", "curvature"]) == 2
    assert capsys.readouterr().err == (
        "error: curvature/d4_half/1: missing column 'metric'\n")


def test_corrupted_bracket_fails_load(tmp_path):
    # break Jacobi in one algebra
    data = _broken_copy(tmp_path, "algebras.txt",
                        "brackets: [e1,e2]=e3\n",
                        "brackets: [e1,e2]=e3; [e1,e3]=e1\n")
    with pytest.raises(LoadAssertionFailed):
        read_every_section(load_catalog(data))


def test_excluded_parameter_value_fails_load(tmp_path):
    # lam = 1 violates the family's stated range
    data = _broken_copy(tmp_path, "structures.txt",
                        "subst: lam=1/2", "subst: lam=1")
    with pytest.raises(ScalarError):
        read_every_section(load_catalog(data))


@pytest.mark.parametrize("column, message", [
    ("w*w = y*z/2 solve z", "integer coefficients"),
    ("w*w = y*z*z solve z", "linear in the solved parameter"),
    ("w*w = w*z solve z", "must not involve the radical parameter"),
    ("w*w = y*z solve q", "linear in the solved parameter"),
    ("w*w = y*z", "bad radical"),
    ("w*w = x*y solve x", "duplicate substitution for x"),  # source_subst: x=0
], ids=["rational", "quadratic", "involves-w", "unsolved-parameter", "malformed",
        "substituted-parameter"])
def test_a_rational_radicand_fails_load(tmp_path, column, message):
    # the radical is a substitution z := (w*w - b)/a only for a radicand
    # a*z + b over Z that does not involve w
    data = _broken_copy(tmp_path, "iso_b.txt", "radical: w*w = y*z solve z",
                        f"radical: {column}")
    with pytest.raises(LoadAssertionFailed, match=message) as e:
        read_every_section(load_catalog(data))
    assert e.value.entry_id == "iso_b/B3_1_0yz"


@pytest.mark.parametrize("key, radicand, z", [
    ("iso_b/B3_1_0yz", "y*z", "(w*w)/y"),
    ("iso_b/B3_1_discpos", "x*x+4*y*z", "(w*w-x*x)/(4*y)"),
    ("iso_b/B3_1_discneg", "-x*x-4*y*z", "(-w*w-x*x)/(4*y)"),
])
def test_a_radical_row_substitutes_its_solved_parameter(key, radicand, z):
    # w*w = radicand is solved exactly for z, and z leaves the row
    row, Z, value = CAT.iso_rows[key], Param("z"), parse_scalar(z)
    assert row.raw.get("radical") == f"w*w = {radicand} solve z"
    assert parse_scalar(radicand).substitute({Z: value}) == Scalar.var("w") ** 2
    assert catalog._radical_subst(row.raw.get("radical")) == (Z, value)
    assert Z not in (row.matrix.params() | row.domain.params()
                     | row.source.params())


def test_unsatisfiable_domain_fails_load(tmp_path):
    data = _broken_copy(tmp_path, "phase_b.txt",
                        "domain: x != 0\n\n[phase_b/B1_1_2]",
                        "domain: x != 0, x == 0\n\n[phase_b/B1_1_2]")
    with pytest.raises(LoadAssertionFailed) as e:
        read_every_section(load_catalog(data))
    assert "equality constraint 'x == 0'" in e.value.check
    # an equation is refused when the row's domain is parsed; sign
    # constraints that no point satisfies fail the sampled check
    data = _broken_copy(tmp_path / "signs", "phase_b.txt",
                        "domain: x != 0\n\n[phase_b/B1_1_2]",
                        "domain: x > 0, x < 0\n\n[phase_b/B1_1_2]")
    with pytest.raises(LoadAssertionFailed) as e:
        read_every_section(load_catalog(data))
    assert e.value.check == "domain unsatisfiable"


def test_unsatisfiable_symplectic_domain_fails_load_on_its_row(tmp_path):
    data = _broken_copy(tmp_path, "symplectic.txt",
                        "omega: e12+mu*e13+e34\ndomain: mu >= 0\n",
                        "omega: e12+mu*e13+e34\ndomain: mu > 0, mu < 0\n")
    with pytest.raises(LoadAssertionFailed) as e:
        read_every_section(load_catalog(data))
    assert e.value.entry_id == "symplectic/r2r2"
    assert e.value.check == "domain unsatisfiable"


def test_omega_override_must_be_a_variant_of_its_symplectic_row(tmp_path):
    data = _broken_copy(tmp_path, "structures.txt",
                        "symplectic: symplectic/r4_0\nomega: e14+e23\n",
                        "symplectic: symplectic/r4_0\nomega: e14+2*e23\n")
    with pytest.raises(LoadAssertionFailed) as e:
        read_every_section(load_catalog(data))
    assert e.value.entry_id == "structures/r4_0/w1/K:a"
    assert e.value.check == "omega is not a variant of its symplectic row"


def test_a_signed_symplectic_row_needs_an_omega_override(tmp_path):
    data = _broken_copy(tmp_path, "structures.txt",
                        "symplectic: symplectic/r4_0\nomega: e14+e23\n",
                        "symplectic: symplectic/r4_0\n")
    with pytest.raises(LoadAssertionFailed) as e:
        read_every_section(load_catalog(data))
    assert e.value.entry_id == "structures/r4_0/w1/K:a"
    assert e.value.check == "omega needs an explicit variant-free override"


@pytest.mark.parametrize("columns, message", [
    ("f1=e1; f2=e3; f3=e4", "map must define f1..f4"),
    ("f1=e1; f2=e3; f3=e4; f3=e2", "duplicate f3"),
    ("f1=e1; f2=e3; f3=e4; g4=e2", "bad map column"),
    ("f1=e1; f2=e3; f3=e4; f4=e24", "wedge atom e24"),
])
def test_bad_map_fails_load(tmp_path, columns, message):
    data = _broken_copy(tmp_path, "iso_b.txt",
                        "map: f1=e1; f2=-(x/2)*e1+e3; f3=e4; f4=e2\n",
                        f"map: {columns}\n")
    with pytest.raises(ParseError, match=message):
        read_every_section(load_catalog(data))


def test_broken_reference_fails_load(tmp_path):
    from pk4lie.catalog import BrokenReference
    data = _broken_copy(tmp_path, "iso_b.txt",
                        "source: phase_b/B2", "source: phase_b/NoSuchRow")
    with pytest.raises(BrokenReference):
        read_every_section(load_catalog(data))


def _algebra_columns(L, domain):
    return (L.name, L.serialize(), repr(domain))


def _row_columns(cat, key):
    """A row's payload as text: algebra(s), form(s), domain, expected columns."""
    if key in cat.phase_rows:
        row = cat.phase_rows[key]
        return _algebra_columns(row.algebra, row.domain)
    if key in cat.iso_rows:
        row = cat.iso_rows[key]
        return (_algebra_columns(row.source, row.domain), repr(row.matrix),
                _algebra_columns(row.target, row.domain), repr(row.domain))
    if key in cat.symplectic:
        row = cat.symplectic[key]
        forms = (emit_two_form(row.omega), repr(row.row_domain))
    elif key in cat.structures:
        row = cat.structures[key]
        forms = (emit_two_form(row.omega), emit_endo(row.K), row.symplectic_ref)
    else:
        row = cat.curvature_rows[key]
        forms = (emit_sym_form(row.metric), row.expect_flat, row.expect_ricci_flat,
                 None if row.expect_x is None else [str(v) for v in row.expect_x],
                 str(row.expect_lam), row.notes)
    return (row.variant, _algebra_columns(row.algebra, row.domain),
            repr(row.domain)) + forms


SECTIONS = ("symplectic", "structures", "phase_rows", "iso_rows", "curvature_rows")


def test_rows_do_not_depend_on_read_order():
    # rows are built on first read: reading them backwards must give the
    # rows that the checked load built in file order
    fresh = load_catalog(check=False)
    keys = [key for name in SECTIONS for key in getattr(CAT, name)]
    assert keys == [key for name in SECTIONS for key in getattr(fresh, name)]
    backwards = {key: _row_columns(fresh, key) for key in reversed(keys)}
    assert backwards == {key: _row_columns(CAT, key) for key in keys}


def test_a_broken_structure_fails_load_and_its_own_read(tmp_path):
    data = _broken_copy(tmp_path, "structures.txt",
                        "subst: beta=-1\nalg: alg/r4_m1_m1\n",
                        "subst: beta=-1\nalg: alg/d4_half\n")
    with pytest.raises(LoadAssertionFailed):
        read_every_section(load_catalog(data))
    cat = load_catalog(data, check=False)
    assert cat.curvature_rows["curvature/d4_half/1"].metric is not None
    assert "structures/r4_m1_m1/K1" in cat.structures
    with pytest.raises(LoadAssertionFailed):
        cat.structures["structures/r4_m1_m1/K1"]
